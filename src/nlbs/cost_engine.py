"""The nonlinear transaction-cost term of the two-asset pricing PDE.

With discrete rebalancing every ``dt`` years, the expected hedging cost per
unit time adds a nonlinear source term to the Black-Scholes equation:

    G = sum_i  (S_i / sqrt(dt)) * E[ C(sqrt(dt) |phi_i|) |phi_i| ],
    phi_i ~ N(0, Theta_i),
    Theta_i = (B A B)_ii,

where ``B`` is the price Hessian of the value function, ``A`` the diffusion
matrix ``A_ij = sigma_i sigma_j rho_ij S_i S_j``, and ``C`` the per-unit cost
model.  ``Theta_i`` is the variance of the change in the i-th hedge position
over one rebalancing interval; it is a positive-semidefinite quadratic form in
the Hessian row, so it is nonnegative by construction.

Closed forms for the half-normal expectation:

* constant C(x) = c0:           E = c0 sqrt(2 Theta / pi)
* exponential C(x) = c0 e^{-kx}: E = c0 sqrt(Theta) sqrt(2/pi) J(q),
  q = k sqrt(dt Theta), with the decay factor
  J(q) = 1 - sqrt(pi/2) q erfcx(q / sqrt(2)),
  J(0) = 1, strictly decreasing to 0 (erfcx is the scaled complementary error
  function, used for overflow safety), as c0 sqrt(2/pi) s (1 - sqrt(pi) z erfcx(z)), z = q/sqrt(2), s = sqrt(Theta).
* sampled C (linear between its samples, flat outside them):
  E = 2 sqrt(2/pi) sqrt(Theta) I1, I1 = int_0^inf C(h y) y e^{-y^2} dy,
  h = sqrt(2 dt Theta).  On each piece C(h y) = alpha + beta y, so I1 is a
  sum of one ramp integral per sample in erf and erfc (:func:`_sampled_integral`).

:func:`cost_integrals` gives I1 and I2 = int_0^inf C'(h y) y^2 e^{-y^2} dy,
the two integrals in the ellipticity scan's sensitivity dG/dTheta, for every
cost model, in closed form too (the exponential ones past a = k h = 20 by an
asymptotic series).  No cost model integrates numerically.

The package's finite-difference stencils live here: the four-corner mixed
difference (also the ADI stage operators' mixed term) and the hedge rows
dx^2 (u_xx - u_x) (dx^2 s u_xx on a price grid), with the first derivative
the grid's ``first_derivative`` stencil.  One grid routine writes
Theta_1 = w_1 [(sigma_1 p_1 + rho sigma_2 q)^2 + (1 - rho^2) sigma_2^2 q^2]
(p_1 the hedge row, q the mixed difference, Theta_2 likewise), a sum of
squares and so >= 0 with no clamp, for ``assemble_G`` (one
:func:`expected_cost` call for both assets) and the ellipticity scan; the
edge marches use its one-asset case, q = 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfc, erfcx

from .market_model import (
    ConstantCost,
    CostModel,
    ExponentialCost,
    SampledCost,
    Scenario,
    ValidationError,
)

__all__ = [
    "exponential_decay_factor",
    "expected_cost",
    "cost_integrals",
    "assemble_G",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)
_QUARTER_SQRT_PI = math.sqrt(math.pi) / 4.0
# Largest a = k h at which cost_integrals uses the exponential closed forms.
# They cancel as a grows: against 30-digit quadrature, I2 is off by 3.7e-12
# relative at a = 20, 1.6e-9 at a = 100 and 1.3e-5 at a = 1000.  Past it the
# asymptotic series takes over; for a >= 20 its terms fall until m ~ a^2/4,
# and the 20th is below 1e-20 of the first.
_EXPONENTIAL_CLOSED_FORM_MAX_A = 20.0
_SERIES_ORDERS = np.arange(1.0, 21.0)


# ---------------------------------------------------------------------------
# half-normal expected cost
# ---------------------------------------------------------------------------


def exponential_decay_factor(q):
    """J(q) = 1 - sqrt(pi/2) q erfcx(q/sqrt(2)) for q >= 0.

    The attenuation of the expected cost under an exponentially decaying cost
    curve relative to the constant-cost case: J(0) = 1, J strictly decreasing
    to 0 as q -> inf.
    """
    q = np.asarray(q, dtype=float)
    return 1.0 - _SQRT_PI_OVER_2 * q * erfcx(q / math.sqrt(2.0))


def _sampled_integral(x: np.ndarray, v: np.ndarray, h, n: int) -> np.ndarray:
    """int_0^inf L(h y) y^n e^{-y^2} dy for n = 1 or 2, vectorized over scales h >= 0.

    L interpolates the samples ``v`` at the knots ``x`` linearly and is flat
    outside them, so L(x) = v_0 + sum_j d_j (x - x_j)_+ with d_j the change of
    slope at knot j.  With y_j = x_j / h, each ramp integrates in closed form:

        n = 1:  int_0^inf L(h y) y e^{-y^2} dy = v_0/2 + h sum_j d_j K1(y_j),
                K1(y) = (sqrt(pi)/4) erfc(y);
        n = 2:  int_0^inf L(h y) y^2 e^{-y^2} dy = (sqrt(pi)/4) v_0 + h sum_j d_j K2(y_j),
                K2(y) = e^{-y^2}/2 - (sqrt(pi)/4) y erfc(y).

    The d_j sum to zero, so at knots below h (y_j < 1) the kernel is written
    less K(0), as -(sqrt(pi)/4) erf(y) and expm1(-y^2)/2 - (sqrt(pi)/4) y erfc(y),
    and K(0) times the slope at h is added back: no term grows with h, and
    none cancels where the result is tiny.  At h = 0 the integral is the
    sample v_0 times the weight's integral.
    """
    slopes = np.concatenate(([0.0], np.diff(v) / np.diff(x), [0.0]))
    weight, k0 = (0.5, _QUARTER_SQRT_PI) if n == 1 else (_QUARTER_SQRT_PI, 0.5)
    flat = np.ravel(h)
    tail = np.empty(flat.shape)
    rows = max(1, 2**17 // x.size)  # (scales, knots) blocks of 1 MiB, also for long tables on full grids
    for start in range(0, flat.size, rows):
        hb = flat[start : start + rows, None]
        below = x < hb
        y = np.minimum(x / np.where(hb > 0.0, hb, 1.0), 64.0)  # every kernel is 0 past y = 27; y^2 stays finite
        if n == 1:
            ramps = np.where(below, -erf(y), erfc(y)) * _QUARTER_SQRT_PI
        else:
            ramps = np.where(below, np.expm1(-y * y), np.exp(-y * y)) / 2.0 - _QUARTER_SQRT_PI * y * erfc(y)
        slope_at_h = slopes[np.searchsorted(x, hb[:, 0])]  # slopes[i]: the piece after i knots
        tail[start : start + rows] = slope_at_h * k0 + np.einsum("ij,j->i", ramps, np.diff(slopes))
    return (v[0] * weight + flat * tail).reshape(np.shape(h))


def expected_cost(cost: CostModel, theta, dt: float):
    """E[C(sqrt(dt) |phi|) |phi|] for phi ~ N(0, theta), vectorized over theta.

    Every cost model has a closed form (see the module docstring).
    """
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValidationError("dt", f"rebalancing interval must be positive, got {dt}")
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < -1e-12):
        raise ValidationError("theta", "variance must be nonnegative")
    theta_arr = np.asarray(np.maximum(theta_arr, 0.0))  # a fresh array, also for scalar theta

    if isinstance(cost, ConstantCost):
        out = cost.c0 * np.sqrt(2.0 * theta_arr / math.pi)
    elif isinstance(cost, ExponentialCost):
        kappa = cost.k * math.sqrt(dt / 2.0)  # z = kappa s; in place, as Theta stacks can be large
        s = np.sqrt(theta_arr, out=theta_arr)
        out = erfcx(s * kappa)
        out *= s
        out *= -math.sqrt(math.pi) * kappa
        out += 1.0
        out *= s
        out *= cost.c0 * _SQRT_2_OVER_PI
    elif isinstance(cost, SampledCost):  # E = 2 sqrt(2/pi) sqrt(Theta) I1(sqrt(2 dt Theta))
        s = np.sqrt(theta_arr)
        out = 2.0 * _SQRT_2_OVER_PI * s * _sampled_integral(cost.x, cost.c, math.sqrt(2.0 * dt) * s, 1)
    else:
        raise ValidationError("cost", f"unknown cost model type {type(cost).__name__}")
    return float(out) if np.ndim(theta) == 0 else out


def cost_integrals(cost: CostModel, h: float) -> tuple[float, float]:
    """(I1, I2) sensitivity integrals for cost argument scale h = sqrt(2 dt Theta).

    I1 = int_0^inf C(h y) y exp(-y^2) dy,
    I2 = int_0^inf C'(h y) y^2 exp(-y^2) dy.

    Constant cost has the closed form (c0/2, 0), and a sampled cost sums
    ramp integrals (:func:`_sampled_integral`; it must carry derivative
    samples).  Exponential cost C(x) = c0 e^{-kx} has, with a = k h and
    M0 = (sqrt(pi)/2) erfcx(a/2),

        I1 = (c0/2) J(a/sqrt(2)),    J = :func:`exponential_decay_factor`,
        I2 = -k c0 [ ((2 + a^2)/4) M0 - a/4 ],

    used up to a = 20.  Past it, with the asymptotic series of erfcx
    (Abramowitz & Stegun 7.1.23), s_m = (-1)^m (2m-1)!! (2/a^2)^m:

        I1 = -(c0/2) sum_{m>=1} s_m,    I2 = (k c0/a) sum_{m>=1} m s_m.
    """
    h = float(h)
    if not math.isfinite(h) or h < 0.0:
        raise ValidationError("h", f"argument scale must be nonnegative, got {h}")
    if isinstance(cost, ConstantCost):
        return cost.c0 / 2.0, 0.0
    if isinstance(cost, SampledCost):
        dc = cost.derivative(cost.x)  # the dc samples; raises without them
        return float(_sampled_integral(cost.x, cost.c, h, 1)), float(_sampled_integral(cost.x, dc, h, 2))
    if not isinstance(cost, ExponentialCost):
        raise ValidationError("cost", f"unknown cost model type {type(cost).__name__}")
    a = cost.k * h
    if a <= _EXPONENTIAL_CLOSED_FORM_MAX_A:
        m0 = 2.0 * _QUARTER_SQRT_PI * float(erfcx(a / 2.0))
        i1 = 0.5 * cost.c0 * float(exponential_decay_factor(a / math.sqrt(2.0)))
        return i1, -cost.k * cost.c0 * ((2.0 + a * a) / 4.0 * m0 - a / 4.0)
    s = np.cumprod((1.0 - 2.0 * _SERIES_ORDERS) * (2.0 / (a * a)))
    return -0.5 * cost.c0 * float(s.sum()), cost.k * cost.c0 / a * float(_SERIES_ORDERS @ s)


# ---------------------------------------------------------------------------
# finite-difference stencils and Theta on a grid
# ---------------------------------------------------------------------------


def _corner_sum(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Four-corner sum on interior nodes, shape (n-1, n-1): 4 dx^2 times the mixed difference.

    Written into ``out`` when given; the sum runs ((NE + SW) - SE) - NW.
    """
    out = np.add(u[2:, 2:], u[:-2, :-2], out=out)
    out -= u[2:, :-2]
    out -= u[:-2, 2:]
    return out


def _hedge_row(u: np.ndarray, grid) -> np.ndarray:
    """dx^2 (u_xx - u_x) along axis 0 at interior positions; dx^2 s u_xx on a price grid.

    ``u`` is a pair of edge vectors or a 2-D array, s the spot of the row and
    u_x the grid's ``first_derivative`` difference.  Both are weights on the
    two one-sided differences, so the row is exactly 0 where u is flat.
    """
    row, back = u[2:] - u[1:-1], u[1:-1] - u[:-2]
    if grid.coord == "price":
        return (row - back) * grid.spot_axis()[1:-1, None]
    if grid.first_derivative == "forward":
        return (1.0 - grid.dx) * row - back
    return (1.0 - grid.dx / 2.0) * row - (1.0 + grid.dx / 2.0) * back


def _variance_weight(grid, sigma: float) -> np.ndarray:
    """sigma^2 e^{-2x}/dx^4 per interior row (sigma^2/dx^4 on a price grid): squared hedge rows to Theta."""
    x = grid.axis()[1:-1]
    return (sigma / grid.dx**2) ** 2 * (np.exp(-2.0 * x) if grid.coord == "log" else np.ones_like(x))


def _theta(p, w, out, q=None, ratio: float = 0.0, rho: float = 0.0) -> np.ndarray:
    """Theta = w [(p + rho ratio q/4)^2 + (1 - rho^2) (ratio q/4)^2] >= 0 into ``out``; w p^2 without ``q``.

    p: :func:`_hedge_row`; w: :func:`_variance_weight`; q: four-corner sum (times
    the other spot on a price grid); ratio: other volatility over this one."""
    if q is None:  # one asset, as on a domain edge
        np.multiply(p, p, out=out)
    else:
        np.multiply(q, rho * ratio / 4.0, out=out)
        out += p
        out *= out
        out += q * q * (max(1.0 - rho * rho, 0.0) * ratio * ratio / 16.0)  # |rho| may exceed 1 by roundoff
    out *= w
    return out


def _grid_theta(u: np.ndarray, scenario: Scenario) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(Theta_1, Theta_2) on interior nodes as one (2, n-1, n-1) array, and the
    hedge rows p_1, p_2 and four-corner sum m they come from (for the scan)."""
    grid = scenario.grid
    sig1, sig2 = scenario.market.sigmas
    rho = float(scenario.market.rho[0, 1])
    # whole rows are contiguous and cheaper to difference than the interior block
    p1 = _hedge_row(u, grid)[:, 1:-1]
    p2 = _hedge_row(u.T, grid)[:, 1:-1].T
    q1 = q2 = m = _corner_sum(u)
    if grid.coord == "price":
        s = grid.spot_axis()[1:-1]
        q1, q2 = m * s[None, :], m * s[:, None]
    theta = np.empty((2,) + m.shape)
    _theta(p1, _variance_weight(grid, sig1)[:, None], theta[0], q1, sig2 / sig1, rho)
    _theta(p2, _variance_weight(grid, sig2)[None, :], theta[1], q2, sig1 / sig2, rho)
    return theta, (p1, p2, m)


# ---------------------------------------------------------------------------
# assembling the cost term on a grid
# ---------------------------------------------------------------------------


def assemble_G(surface: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Evaluate the transaction-cost term on every interior grid node.

    ``surface`` is a value array of shape (nx+1, nx+1) on ``scenario.grid``,
    differenced with the grid's stencils.  Returns an array of the same
    shape; the boundary ring is zero (the PDE never reads the source term on
    Dirichlet nodes, and one-sided second differences there would be
    meaningless).

    The per-interval expected cost becomes a per-unit-time term by division
    by sqrt(dt), consistent with the classical discrete-rebalancing limit.
    """
    u = np.asarray(surface, dtype=float)
    grid = scenario.grid
    n = grid.nx
    if u.shape != (n + 1, n + 1):
        raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {u.shape}")
    e = expected_cost(scenario.cost, _grid_theta(u, scenario)[0], scenario.dt_tc)
    rate = grid.spot_axis()[1:-1] / math.sqrt(scenario.dt_tc)
    g = np.zeros_like(u)
    g[1:-1, 1:-1] = e[0] * rate[:, None] + e[1] * rate[None, :]
    return g
