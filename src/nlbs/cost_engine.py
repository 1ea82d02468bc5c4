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
  function, used for overflow safety).
* sampled cost curves fall back to adaptive quadrature.  ``scipy.integrate``
  is imported at the first such call, not with the package: it costs about
  0.3 s, and only sampled cost and the scan's exponential-cost integrals
  past a = k h = 20 (:mod:`nlbs.ellipticity`) need it.

The package's finite-difference stencils live here: central second
derivatives, the four-corner mixed difference, and first derivatives chosen
by :class:`~nlbs.market_model.SolverFlags` (forward by default, or central).
``assemble_G``, the ellipticity scan and the edge marches take their
differences from them, the ADI stage operators their mixed term.  One grid
routine turns the differences into (Theta_1, Theta_2) for ``assemble_G`` and
the scan alike.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfcx

from .market_model import (
    ConstantCost,
    CostModel,
    ExponentialCost,
    MarketParams,
    SampledCost,
    Scenario,
    SolverFlags,
    ValidationError,
)

__all__ = [
    "QuadratureError",
    "theta_from_hessian",
    "theta_log_coords",
    "exponential_decay_factor",
    "expected_cost",
    "assemble_G",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Theta: variance of the hedge-position increment
# ---------------------------------------------------------------------------


def theta_from_hessian(hessian: np.ndarray, spots: np.ndarray, market: MarketParams) -> np.ndarray:
    """Per-asset Theta_i = (B A B)_ii from the price-coordinate Hessian.

    Tiny negative values from roundoff are clamped to zero; Theta is a PSD
    quadratic form and cannot be genuinely negative.
    """
    b = np.asarray(hessian, dtype=float)
    n = market.n_assets
    if b.shape != (n, n):
        raise ValidationError("hessian", f"expected shape ({n}, {n}), got {b.shape}")
    if not np.allclose(b, b.T, atol=1e-8 * (1.0 + np.abs(b).max())):
        raise ValidationError("hessian", "Hessian must be symmetric")
    a = market.diffusion_matrix(np.asarray(spots, dtype=float))
    theta = np.einsum("ij,jk,ki->i", b, a, b)
    return np.maximum(theta, 0.0)


def theta_log_coords(
    second: np.ndarray, grad: np.ndarray, x: np.ndarray, market: MarketParams
) -> np.ndarray:
    """Theta_i from log-coordinate derivatives of the value surface.

    ``second`` is the log-coordinate second-derivative matrix U_{x_i x_j},
    ``grad`` the gradient U_{x_i}, ``x`` the log-price point.  Uses the
    chain-rule expansion

        Theta_i = e^{-2 x_i} [ sum_{j!=i} sum_{k!=i} U_{x_i x_j} U_{x_i x_k}
                                 sigma_j sigma_k rho_jk
                   + 2 sum_{j!=i} U_{x_i x_j} (U_{x_i x_i} - U_{x_i})
                                 sigma_i sigma_j rho_ij
                   + (U_{x_i x_i} - U_{x_i})^2 sigma_i^2 ],

    which is an independent route from :func:`theta_from_hessian` (the test
    suite asserts they agree after converting derivatives).
    """
    u2 = np.asarray(second, dtype=float)
    g = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    n = market.n_assets
    if u2.shape != (n, n):
        raise ValidationError("second", f"expected shape ({n}, {n}), got {u2.shape}")
    if g.shape != (n,):
        raise ValidationError("grad", f"expected shape ({n},), got {g.shape}")
    if x.shape != (n,):
        raise ValidationError("x", f"expected shape ({n},), got {x.shape}")
    sig = np.asarray(market.sigmas)
    rho = market.rho
    theta = np.empty(n)
    for i in range(n):
        ci = u2[i, i] - g[i]
        cross = 0.0
        corr = 0.0
        for j in range(n):
            if j == i:
                continue
            corr += 2.0 * u2[i, j] * ci * sig[i] * sig[j] * rho[i, j]
            for k in range(n):
                if k == i:
                    continue
                cross += u2[i, j] * u2[i, k] * sig[j] * sig[k] * rho[j, k]
        theta[i] = math.exp(-2.0 * x[i]) * (cross + corr + ci * ci * sig[i] * sig[i])
    return np.maximum(theta, 0.0)


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


def _quad_to_inf(integrand, name: str, h: float) -> float:
    """int_0^inf integrand(y) dy by adaptive quadrature.

    Raises :class:`QuadratureError` naming the integral when the error
    estimate exceeds 1e-8 relative (absolute below magnitude 1).
    """
    from scipy.integrate import quad  # see the module docstring

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-10, limit=200)
    if err > 1e-8 * max(abs(val), 1.0):
        raise QuadratureError(f"{name} quadrature reached error {err:.3e} at scale h={h:.6e}")
    return val


def _cost_integral_i1(cost: CostModel, h: float) -> float:
    """I1 = int_0^inf C(h y) y e^{-y^2} dy for cost argument scale h = sqrt(2 dt Theta).

    E[C(sqrt(dt)|phi|) |phi|] = 2 sqrt(2/pi) sqrt(Theta) I1, and I1 also
    enters the sensitivity dG/dTheta (:mod:`nlbs.ellipticity`).
    """
    return _quad_to_inf(lambda y: float(cost.value(h * y)) * y * math.exp(-y * y), "I1", h)


def _expected_cost_quad(cost: CostModel, theta: np.ndarray, dt: float) -> np.ndarray:
    """E[C(sqrt(dt)|phi|) |phi|] by adaptive quadrature (sampled cost curves)."""
    flat = np.atleast_1d(theta).ravel()
    out = np.empty(flat.shape)
    for idx, th in enumerate(flat):
        if th == 0.0:
            out[idx] = 0.0
            continue
        out[idx] = 2.0 * _SQRT_2_OVER_PI * math.sqrt(th) * _cost_integral_i1(cost, math.sqrt(2.0 * dt * th))
    return out.reshape(np.shape(theta))


def expected_cost(cost: CostModel, theta, dt: float):
    """E[C(sqrt(dt) |phi|) |phi|] for phi ~ N(0, theta), vectorized over theta.

    Constant and exponential cost models use closed forms; sampled models use
    adaptive quadrature (raising :class:`QuadratureError` if the requested
    tolerance cannot be met).
    """
    dt = float(dt)
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValidationError("dt", f"rebalancing interval must be positive, got {dt}")
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr < -1e-12):
        raise ValidationError("theta", "variance must be nonnegative")
    theta_arr = np.maximum(theta_arr, 0.0)

    if isinstance(cost, ConstantCost):
        out = cost.c0 * np.sqrt(2.0 * theta_arr / math.pi)
    elif isinstance(cost, ExponentialCost):
        q = cost.k * np.sqrt(dt * theta_arr)
        out = cost.c0 * np.sqrt(theta_arr) * _SQRT_2_OVER_PI * exponential_decay_factor(q)
    elif isinstance(cost, SampledCost):
        out = _expected_cost_quad(cost, theta_arr, dt)
    else:
        raise ValidationError("cost", f"unknown cost model type {type(cost).__name__}")
    if np.ndim(theta) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# finite-difference stencils and Theta on a grid
# ---------------------------------------------------------------------------


def _axis_differences(u: np.ndarray, dx: float, first: str) -> tuple[np.ndarray, np.ndarray]:
    """First and second differences along axis 0 at interior positions.

    ``u`` is one edge vector or a 2-D array whose other axis is kept whole.
    The second difference is central; the first is ``"forward"`` or
    ``"central"``.
    """
    if first == "forward":
        d1 = (u[2:] - u[1:-1]) / dx
    else:
        d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    d2 = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
    return d1, d2


def _mixed_diff(u: np.ndarray, dx: float) -> np.ndarray:
    """Four-corner mixed second difference on interior nodes, shape (n-1, n-1)."""
    return (u[2:, 2:] + u[:-2, :-2] - u[2:, :-2] - u[:-2, 2:]) / (4.0 * dx * dx)


def _grid_derivatives(u: np.ndarray, dx: float, flags: SolverFlags) -> tuple[np.ndarray, ...]:
    """Interior finite differences (first both axes, second both axes, mixed).

    All returned arrays cover interior nodes only, shape (n-1, n-1).
    """
    ux, uxx = _axis_differences(u[:, 1:-1], dx, flags.first_derivative)
    uy, uyy = _axis_differences(u[1:-1, :].T, dx, flags.first_derivative)
    return ux, uy.T, uxx, uyy.T, _mixed_diff(u, dx)


def _grid_theta(derivatives: tuple[np.ndarray, ...], scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """(Theta_1, Theta_2) on interior nodes from :func:`_grid_derivatives`.

    Log grids use the chain-rule expansion of :func:`theta_log_coords`,
    price grids the quadratic form (B A B)_ii.  Roundoff below zero is
    clamped.
    """
    ux, uy, uxx, uyy, uxy = derivatives
    grid = scenario.grid
    sig1, sig2 = scenario.market.sigmas
    rho = float(scenario.market.rho[0, 1])
    axis = grid.axis()[1:-1]
    if grid.coord == "log":
        x1 = axis[:, None]
        x2 = axis[None, :]
        c1 = uxx - ux
        c2 = uyy - uy
        theta1 = np.exp(-2.0 * x1) * (
            c1 * c1 * sig1 * sig1 + 2.0 * c1 * uxy * sig1 * sig2 * rho + uxy * uxy * sig2 * sig2
        )
        theta2 = np.exp(-2.0 * x2) * (
            uxy * uxy * sig1 * sig1 + 2.0 * c2 * uxy * sig1 * sig2 * rho + c2 * c2 * sig2 * sig2
        )
    else:
        s1 = axis[:, None]
        s2 = axis[None, :]
        a11 = sig1 * sig1 * s1 * s1
        a12 = sig1 * sig2 * rho * s1 * s2
        a22 = sig2 * sig2 * s2 * s2
        theta1 = uxx * uxx * a11 + 2.0 * uxx * uxy * a12 + uxy * uxy * a22
        theta2 = uxy * uxy * a11 + 2.0 * uyy * uxy * a12 + uyy * uyy * a22
    return np.maximum(theta1, 0.0), np.maximum(theta2, 0.0)


# ---------------------------------------------------------------------------
# assembling the cost term on a grid
# ---------------------------------------------------------------------------


def assemble_G(surface, scenario: Scenario, *, flags: SolverFlags = SolverFlags()) -> np.ndarray:
    """Evaluate the transaction-cost term on every interior grid node.

    ``surface`` is a value array of shape (nx+1, nx+1) on ``scenario.grid``
    (or any object with a ``values`` attribute holding one).  Returns an array
    of the same shape; the boundary ring is zero (the PDE never reads the
    source term on Dirichlet nodes, and one-sided second differences there
    would be meaningless).

    The per-interval expected cost becomes a per-unit-time term by division
    by sqrt(dt), consistent with the classical discrete-rebalancing limit.
    """
    u = np.asarray(getattr(surface, "values", surface), dtype=float)
    grid = scenario.grid
    n = grid.nx
    if u.shape != (n + 1, n + 1):
        raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {u.shape}")
    dt = scenario.dt_tc
    theta1, theta2 = _grid_theta(_grid_derivatives(u, grid.dx, flags), scenario)
    spots = grid.spot_axis()[1:-1]
    e1 = expected_cost(scenario.cost, theta1, dt)
    e2 = expected_cost(scenario.cost, theta2, dt)
    g = np.zeros_like(u)
    g[1:-1, 1:-1] = (spots[:, None] * e1 + spots[None, :] * e2) / math.sqrt(dt)
    return g
