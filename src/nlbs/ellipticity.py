"""Well-posedness diagnostics for the nonlinear pricing operator.

The nonlinear operator F(B) = -tr(A B)/2 + G(B) (B the price Hessian, A the
diffusion matrix, G the transaction-cost term) stays parabolic only while its
matrix derivative D = dF/dB is negative definite.  This module evaluates that
derivative at a single state and scans whole solution surfaces node by node.

D is the literal entrywise derivative.  Because
dTheta_i/dB_lm = delta_il (A B)_mi + delta_im (B A)_il, each asset
contributes a rank-two matrix R_i supported on row/column i, and
D = -A/2 + sum_i g_i R_i with g_i = dG/dTheta_i, that is

    D_lm = -A_lm/2 + g_l (B A)_lm + g_m (A B)_lm;

central finite differences of F converge to it.  Summing the g_i first and
applying them to the whole anticommutator A B + B A = sum_i R_i is not this
derivative: it doubles the cost part even in the fully symmetric two-asset
case.

The scalar sensitivity is

    g_i = (2 S_i / sqrt(dt)) sqrt(2/pi)
          [ I1_i / (2 sqrt(Theta_i)) + sqrt(dt/2) I2_i ],

    I1_i = int_0^inf C(h_i y) y e^{-y^2} dy,
    I2_i = int_0^inf C'(h_i y) y^2 e^{-y^2} dy,    h_i = sqrt(2 dt Theta_i),

with the closed form g_i = sqrt(2/pi) S_i c0 / (2 sqrt(dt Theta_i)) for
constant cost (I1 = c0/2, I2 = 0).  Every cost model has closed forms of
both integrals (:func:`~nlbs.cost_engine.cost_integrals`; the scan looks it
up in this module, where tests swap in quadrature).  One routine computes g_i
and one builds D, over stacks of states, for both the single-state
derivative and the surface scan; the scan takes its Hessian and Theta_i from
the same finite-difference and Theta routines as the cost term
(:mod:`nlbs.cost_engine`).  Theta_i -> 0 makes g_i blow up; such nodes
are reported as degenerate rather than classified.

For a single asset under constant cost the sign of D reduces to the classical
Leland condition: D < 0 (for positive Hessian) iff the Leland number
sqrt(2/pi) * c / (sigma sqrt(dt)) < 1, with c the round-trip proportional
cost (a per-trade constant cost model c0 corresponds to c = 2 c0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cost_engine import _grid_theta, cost_integrals
from .market_model import (
    ConstantCost,
    CostModel,
    MarketParams,
    Scenario,
    ValidationError,
)

__all__ = [
    "DegenerateThetaError",
    "DyfInputs",
    "dyf_matrix",
    "LelandNumber",
    "leland_number",
    "EllipticityReport",
    "scan_surface",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# Largest eigenvalue of D that counts as negative definite, and the Theta_i at
# or below which g_i is treated as singular.
EIG_TOL = 1e-10
THETA_FLOOR = 1e-14


class DegenerateThetaError(ValueError):
    """The hedge-increment variance vanished; the sensitivity g_i is singular."""


class LelandNumber(NamedTuple):
    value: float
    well_posed: bool


def leland_number(sigma: float, c0: float, dt: float) -> LelandNumber:
    """Le = sqrt(2/pi) * c0 / (sigma sqrt(dt)); well-posed iff Le < 1.

    ``c0`` is the round-trip proportional cost.  Example: sigma = 0.30,
    c0 = 0.005, dt = 1/261 gives Le ~ 0.2148.
    """
    sigma = float(sigma)
    c0 = float(c0)
    dt = float(dt)
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValidationError("sigma", f"volatility must be positive, got {sigma}")
    if not math.isfinite(c0) or c0 < 0.0:
        raise ValidationError("c0", f"cost level must be nonnegative, got {c0}")
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValidationError("dt", f"rebalancing interval must be positive, got {dt}")
    value = _SQRT_2_OVER_PI * c0 / (sigma * math.sqrt(dt))
    return LelandNumber(value=value, well_posed=value < 1.0)


# ---------------------------------------------------------------------------
# the matrix derivative at a single state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyfInputs:
    """State at which the derivative of the nonlinear operator is evaluated.

    ``hessian`` is the price-coordinate Hessian of the value function at the
    node, ``spots`` the asset prices there, ``dt`` the rebalancing interval,
    ``cost`` the transaction-cost model.
    """

    hessian: np.ndarray
    spots: np.ndarray
    market: MarketParams
    dt: float
    cost: CostModel

    def __post_init__(self) -> None:
        n = self.market.n_assets
        b = np.asarray(self.hessian, dtype=float)
        if b.shape != (n, n):
            raise ValidationError("hessian", f"expected shape ({n}, {n}), got {b.shape}")
        if not np.allclose(b, b.T, atol=1e-8 * (1.0 + np.abs(b).max())):
            raise ValidationError("hessian", "Hessian must be symmetric")
        s = np.asarray(self.spots, dtype=float)
        if s.shape != (n,):
            raise ValidationError("spots", f"expected shape ({n},), got {s.shape}")
        if np.any(~np.isfinite(s)) or np.any(s <= 0.0):
            raise ValidationError("spots", "spot prices must be positive and finite")
        dt = float(self.dt)
        if not math.isfinite(dt) or dt <= 0.0:
            raise ValidationError("dt", f"rebalancing interval must be positive, got {dt}")
        object.__setattr__(self, "hessian", b)
        object.__setattr__(self, "spots", s)
        object.__setattr__(self, "dt", dt)


def _sensitivities(cost: CostModel, spots: np.ndarray, theta: np.ndarray, dt: float) -> np.ndarray:
    """g = dG/dTheta for matching 1-D arrays of spots and positive Theta values.

    Constant cost uses the closed form of g itself; other models make one
    :func:`cost_integrals` call per entry.
    """
    if isinstance(cost, ConstantCost):
        return _SQRT_2_OVER_PI / (2.0 * math.sqrt(dt)) * spots * cost.c0 / np.sqrt(theta)
    g = np.empty(theta.shape)
    for k, (s, th) in enumerate(zip(spots, theta)):
        i1, i2 = cost_integrals(cost, math.sqrt(2.0 * dt * th))
        g[k] = (
            (2.0 * s / math.sqrt(dt))
            * _SQRT_2_OVER_PI
            * (0.5 * i1 / math.sqrt(th) + math.sqrt(dt / 2.0) * i2)
        )
    return g


def _derivative(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """D_lm = -A_lm/2 + g_l (B A)_lm + g_m (A B)_lm over stacked (..., n, n) A, B and (..., n) g."""
    return -a / 2.0 + g[..., :, None] * (b @ a) + g[..., None, :] * (a @ b)


def dyf_matrix(inputs: DyfInputs) -> np.ndarray:
    """Matrix derivative D of the nonlinear operator at the given state.

    See the module docstring.  Raises :class:`DegenerateThetaError` when any
    Theta_i = (B A B)_ii <= THETA_FLOOR.
    """
    a = inputs.market.diffusion_matrix(inputs.spots)
    b = inputs.hessian
    theta = np.diag(b @ a @ b)
    for i, th in enumerate(theta):
        if th <= THETA_FLOOR:
            raise DegenerateThetaError(f"theta singular at asset {i}: theta={th:.3e}")
    return _derivative(a, b, _sensitivities(inputs.cost, inputs.spots, theta, inputs.dt))


# ---------------------------------------------------------------------------
# surface scan
# ---------------------------------------------------------------------------


@dataclass
class EllipticityReport:
    """Node-by-node classification of the operator derivative on a surface.

    ``eigenvalues`` holds the largest eigenvalue of D at each interior node
    (NaN where Theta was degenerate).  ``satisfied`` is True when every
    non-degenerate node has max eigenvalue <= EIG_TOL.
    """

    satisfied: bool
    max_eigenvalue: float
    worst_node: tuple[int, int] | None
    worst_spots: tuple[float, float] | None
    fraction_satisfied: float
    n_checked: int
    degenerate_count: int
    eigenvalues: np.ndarray = field(repr=False)
    spot_axes: tuple[np.ndarray, np.ndarray] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "satisfied": bool(self.satisfied),
            "max_eigenvalue": None if math.isnan(self.max_eigenvalue) else float(self.max_eigenvalue),
            "worst_node": None if self.worst_node is None else list(self.worst_node),
            "worst_spots": None if self.worst_spots is None else [float(v) for v in self.worst_spots],
            "fraction_satisfied": float(self.fraction_satisfied),
            "n_checked": int(self.n_checked),
            "degenerate_count": int(self.degenerate_count),
            "eig_tol": EIG_TOL,
            "theta_floor": THETA_FLOOR,
            "form": "exact",
        }

    def write_nodes_csv(self, path) -> None:
        """One row per interior node: indices, spots, max eigenvalue, flags."""
        s1, s2 = self.spot_axes
        with open(path, "w", newline="") as fh:
            fh.write("i,j,S1,S2,max_eigenvalue,degenerate,satisfied\n")
            for ii in range(self.eigenvalues.shape[0]):
                for jj in range(self.eigenvalues.shape[1]):
                    ev = self.eigenvalues[ii, jj]
                    deg = math.isnan(ev)
                    ok = (not deg) and ev <= EIG_TOL
                    ev_txt = "" if deg else format(ev, ".17g")
                    fh.write(
                        f"{ii + 1},{jj + 1},{format(s1[ii], '.17g')},{format(s2[jj], '.17g')},"
                        f"{ev_txt},{int(deg)},{int(ok)}\n"
                    )


def scan_surface(surface: np.ndarray, scenario: Scenario) -> EllipticityReport:
    """Classify the operator derivative at every interior node of a surface.

    ``surface`` is a value array of shape (nx+1, nx+1) on ``scenario.grid``.
    Its finite-difference Hessian uses the same stencils as the PDE scheme,
    the grid's.  Nodes where either Theta_i <= THETA_FLOOR (flat
    payoff regions, deep tails) are counted as degenerate and excluded from
    the eigenvalue statistics rather than misclassified.
    """
    u = np.asarray(surface, dtype=float)
    grid = scenario.grid
    n = grid.nx
    if u.shape != (n + 1, n + 1):
        raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {u.shape}")
    dt = scenario.dt_tc

    theta, (p1, p2, m) = _grid_theta(u, scenario)
    theta = np.moveaxis(theta, 0, -1)  # (n-1, n-1, 2): one state per node
    spot_axis = grid.spot_axis()[1:-1]
    s1 = spot_axis[:, None]
    s2 = spot_axis[None, :]
    h = grid.dx * grid.dx  # hedge rows dx^2 (u_ii - u_i), dx^2 s_i u_ii on a price grid; m = 4 dx^2 u_xy
    k1, k2 = (s1, s2) if grid.coord == "log" else (1.0, 1.0)
    b = np.empty(theta.shape + (2,))
    b[..., 0, 0] = p1 / (h * s1 * k1)
    b[..., 0, 1] = b[..., 1, 0] = m / (4.0 * h * k1 * k2)
    b[..., 1, 1] = p2 / (h * s2 * k2)
    spots = np.stack(np.broadcast_arrays(s1, s2), axis=-1)
    a = scenario.market.diffusion_matrix(spots)

    # per-asset sensitivities g_i = dG/dTheta_i on non-degenerate nodes; NaN, and so D, elsewhere
    degenerate = (theta <= THETA_FLOOR).any(axis=-1)
    ok = ~degenerate
    g = np.full(theta.shape, np.nan)
    g[ok] = _sensitivities(scenario.cost, spots[ok].ravel(), theta[ok].ravel(), dt).reshape(-1, 2)

    d = _derivative(a, b, g)
    d11, d12, d22 = d[..., 0, 0], d[..., 0, 1], d[..., 1, 1]
    eigmax = (d11 + d22) / 2.0 + np.sqrt(((d11 - d22) / 2.0) ** 2 + d12 * d12)

    n_deg = int(degenerate.sum())
    n_checked = int(ok.sum())
    # with no node checked the verdict holds vacuously
    max_eig, worst_node, worst_spots, n_sat = math.nan, None, None, 0
    if n_checked:
        good = eigmax[ok]
        max_eig = float(good.max())
        flat_idx = np.nanargmax(np.where(ok, eigmax, -np.inf))
        wi, wj = np.unravel_index(flat_idx, eigmax.shape)
        worst_node = (int(wi) + 1, int(wj) + 1)
        worst_spots = (float(spot_axis[wi]), float(spot_axis[wj]))
        n_sat = int((good <= EIG_TOL).sum())
    return EllipticityReport(
        satisfied=n_sat == n_checked,
        max_eigenvalue=max_eig,
        worst_node=worst_node,
        worst_spots=worst_spots,
        fraction_satisfied=n_sat / n_checked if n_checked else 1.0,
        n_checked=n_checked,
        degenerate_count=n_deg,
        eigenvalues=eigmax,
        spot_axes=(spot_axis, spot_axis),
    )
