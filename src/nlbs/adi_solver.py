"""Two-stage alternating-direction implicit solver with a fixed-point wrapper.

The pricing problem is posed in time-to-maturity tau on a square grid (log
prices by default).  Each time step splits the spatial operator into two
half-operators; each half-operator treats one axis implicitly (tridiagonal
solve) and the other axis plus the mixed derivative explicitly:

    stage 1 (x implicit):   (H - W)/dtau = Lx H + Ly W + Lxy W
    stage 2 (y implicit):   (V - H)/dtau = Ly V + Lx H + Lxy H - G

where each of Lx, Ly carries half of the corresponding one-dimensional
convection-diffusion-discount operator, Lxy half the mixed diffusion term,
and G the (frozen) transaction-cost source.  First derivatives are one-sided
forward differences by default ("central" available); the mixed term uses
the four-corner stencil.  The initial data is the payoff averaged over each
node's grid cell, which places the digital's jump to second order (the
initial-data averaging of Pooley, Vetzal & Forsyth, 2003).

The nonlinear problem is solved by fixed-point iteration on the source term:
iterate 0 is identically zero, so the first sweep is the pure linear problem;
sweep n evaluates G on iterate n-1's surface at the matching time level.
Recorded convergence distances start with the first cost-bearing correction:
record n is the distance between sweeps n+1 and n at tau = T in the induced
matrix 1-, 2- and infinity-norms.

Dirichlet boundary values on all four edges come from marching each edge
with the one-dimensional limit of the two-stage scheme itself (the exact
reduction of the interior stencil for a surface that is flat in the
transverse direction), including a one-dimensional single-asset cost term.
Corners decay by the scheme's own half-step discount factor.  No closed form
enters, so the edges stay consistent with the interior discretization for
any cost level.

Only the four edge vectors of each half level are stored, O(nt nx) floats;
the stage operators write them straight into their output level.  Each
half-step's nx - 1 tridiagonal line solves run as one LAPACK ``dgttrs`` call
on the matrix's Thomas factor (factored once per operator, no pivoting), which
is bit-identical to the row-by-row Thomas loop.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Literal

import numpy as np
from scipy.linalg.lapack import dgttrs

from .cost_engine import _axis_differences, _mixed_diff, assemble_G, expected_cost
from .market_model import (
    BestCashOrNothing,
    MarketParams,
    Scenario,
    SolverFlags,
    ValidationError,
)

__all__ = [
    "GridSpec",
    "default_grid",
    "Surface",
    "ConvergenceRecord",
    "SolveResult",
    "TridiagonalSystem",
    "ZeroPivotError",
    "thomas_solve",
    "initial_condition",
    "BoundaryData",
    "lx_stage",
    "ly_stage",
    "sweep",
    "solve_nonlinear",
]

Coord = Literal["log", "price"]


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Square spatial grid [a, b]^2 with nx cells per axis and nt time steps.

    ``coord="log"`` means the axis holds log prices (spots are exp(axis));
    ``coord="price"`` uses prices directly and then requires a > 0.
    """

    a: float
    b: float
    nx: int = 100
    nt: int = 100
    coord: Coord = "log"

    def __post_init__(self) -> None:
        a, b = float(self.a), float(self.b)
        if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
            raise ValidationError("grid.b", f"need finite bounds with b > a, got ({a}, {b})")
        nx, nt = int(self.nx), int(self.nt)
        if nx < 4:
            raise ValidationError("grid.nx", f"need at least 4 cells per axis, got {nx}")
        if nt < 1:
            raise ValidationError("grid.nt", f"need at least one time step, got {nt}")
        if self.coord not in ("log", "price"):
            raise ValidationError("grid.coord", f"expected 'log' or 'price', got {self.coord!r}")
        if self.coord == "price" and a <= 0.0:
            raise ValidationError("grid.a", f"price-coordinate grids need a > 0, got {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nt", nt)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.nx

    def axis(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.nx + 1)

    def spot_axis(self) -> np.ndarray:
        ax = self.axis()
        return np.exp(ax) if self.coord == "log" else ax


def default_grid(market: MarketParams, payoff: BestCashOrNothing, nx: int = 100, nt: int = 100) -> GridSpec:
    """Log-price grid centered on ln(X), reaching 3 sigma_max sqrt(T) + 1 out."""
    half = 3.0 * max(market.sigmas) * math.sqrt(market.T) + 1.0
    center = math.log(payoff.X)
    return GridSpec(a=center - half, b=center + half, nx=nx, nt=nt, coord="log")


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass
class Surface:
    """A value surface at one time level of one fixed-point iterate."""

    values: np.ndarray
    time_index: int
    iterate_index: int


@dataclass(frozen=True)
class ConvergenceRecord:
    """Distance between consecutive fixed-point iterates at tau = T.

    ``n`` counts cost-bearing corrections: record n compares sweep n+1 with
    sweep n (sweep 1 being the linear solve).  Norms are induced matrix norms
    (max column sum, spectral, max row sum).
    """

    n: int
    d1: float
    d2: float
    dinf: float

    def get(self, norm: str) -> float:
        return {"1": self.d1, "2": self.d2, "inf": self.dinf}[norm]


@dataclass
class SolveResult:
    surface: Surface
    records: list[ConvergenceRecord]
    converged: bool
    iterations: int
    block: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# tridiagonal solver
# ---------------------------------------------------------------------------


class ZeroPivotError(ValueError):
    """Forward elimination hit a (numerically) zero pivot."""


@dataclass
class TridiagonalSystem:
    """Tridiagonal system: diag (n,), lower/upper (n-1,), rhs (n,) or (n, m)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.diag = np.asarray(self.diag, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.diag.shape[0] if self.diag.ndim == 1 else -1
        if n < 1:
            raise ValidationError("diag", "diagonal must be a nonempty 1-D array")
        if self.lower.shape != (max(n - 1, 0),):
            raise ValidationError("lower", f"expected shape ({n - 1},), got {self.lower.shape}")
        if self.upper.shape != (max(n - 1, 0),):
            raise ValidationError("upper", f"expected shape ({n - 1},), got {self.upper.shape}")
        if self.rhs.shape[0] != n or self.rhs.ndim not in (1, 2):
            raise ValidationError("rhs", f"expected shape ({n},) or ({n}, m), got {self.rhs.shape}")


def _thomas_factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
    """Forward-elimination multipliers and pivots; O(n), done once per matrix."""
    n = diag.shape[0]
    piv = np.empty(n)
    w = np.empty(max(n - 1, 0))
    piv[0] = diag[0]
    if abs(piv[0]) < 1e-300:
        raise ZeroPivotError("zero pivot at row 0")
    for k in range(1, n):
        w[k - 1] = lower[k - 1] / piv[k - 1]
        piv[k] = diag[k] - w[k - 1] * upper[k - 1]
        if abs(piv[k]) < 1e-300:
            raise ZeroPivotError(f"zero pivot at row {k}")
    return w, piv


def _thomas_apply(
    w: np.ndarray, piv: np.ndarray, upper: np.ndarray, rhs: np.ndarray, overwrite: bool = False
) -> np.ndarray:
    """Forward/back substitution with the factor of :func:`_thomas_factor`.

    rhs may be (n,) or (n, m) for m systems.  One LAPACK ``dgttrs`` call does
    the work: fed the factor as an LU without row interchanges (identity
    ``ipiv``, zero second superdiagonal), it runs the same operations in the
    same order as the textbook loop, so the result is bit-identical to it.
    With ``overwrite`` a Fortran-ordered rhs is solved in place.
    """
    n = piv.shape[0]
    if n <= 2:  # scipy's dgttrs wrapper rejects n = 2; production lines have n >= 3
        y = np.array(rhs, dtype=float)
        if n == 1:
            return y / piv[0]
        y[1] = (y[1] - w[0] * y[0]) / piv[1]
        y[0] = (y[0] - upper[0] * y[1]) / piv[0]
        return y
    b = rhs if rhs.ndim == 2 else rhs[:, None]
    if not (overwrite and b.flags.f_contiguous):
        b = np.array(b, dtype=float, order="F")  # numpy transposes faster than the f2py wrapper
    ipiv = np.arange(1, n + 1, dtype=np.int32)
    x, _ = dgttrs(w, piv, upper, np.zeros(n - 2), ipiv, b, overwrite_b=True)
    return x if rhs.ndim == 2 else x[:, 0]


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve a tridiagonal system by the Thomas algorithm (no pivoting).

    Raises :class:`ZeroPivotError` naming the row if elimination breaks down.
    """
    w, piv = _thomas_factor(system.lower, system.diag, system.upper)
    return _thomas_apply(w, piv, system.upper, system.rhs)


# ---------------------------------------------------------------------------
# initial condition and boundary data
# ---------------------------------------------------------------------------


def _sampled_payoff(grid: GridSpec, value: Callable, ndim: int) -> np.ndarray:
    """``value`` averaged over the subcells around each grid node.

    ``value`` takes one spot array per dimension.  It is evaluated at the 5
    subcell points per axis (coordinate offsets (k - 2) dx / 5, k = 0..4)
    around each node, and the mean over all 5^ndim combinations is returned.
    """
    points = []
    for offset in (np.arange(5) - 2.0) / 5.0 * grid.dx:
        c = grid.axis() + offset
        points.append(np.exp(c) if grid.coord == "log" else np.maximum(c, 1e-300))
    acc = 0.0
    for spots in itertools.product(points, repeat=ndim):
        acc = acc + value(*spots)
    return acc / float(len(points)) ** ndim


def initial_condition(grid: GridSpec, payoff: BestCashOrNothing) -> np.ndarray:
    """Payoff averaged over 5x5 subcells around each grid node.

    Sampling the payoff at the nodes would alias its discontinuity onto the
    nearest node, displacing the jump by up to half a cell and leaving a
    first-order error plateau near the strike.  Cell averaging replaces each
    node value with the mean of the payoff over the surrounding grid cell,
    restoring the jump location to second order.
    """
    return _sampled_payoff(grid, lambda s1, s2: payoff.value(s1[:, None], s2[None, :]), 2)


Edges = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _ring_edges(a: np.ndarray) -> Edges:
    """Copies of the (bottom, top, left, right) edges of a square array.

    Bottom and top are the columns j = 0 and j = nx (running along asset 1),
    left and right the rows i = 0 and i = nx (running along asset 2).
    """
    return a[:, 0].copy(), a[:, -1].copy(), a[0, :].copy(), a[-1, :].copy()


def _write_edges(out: np.ndarray, edges: Edges) -> None:
    """Write edges into ``out`` in the order bottom, top, left, right.

    Each corner therefore takes its value from the left or right edge.
    """
    bottom, top, left, right = edges
    out[:, 0] = bottom
    out[:, -1] = top
    out[0, :] = left
    out[-1, :] = right


class BoundaryData:
    """Dirichlet edge values for every half time level.

    ``edges(h)`` returns the (bottom, top, left, right) edge vectors, each of
    length nx+1, at half-level h (time to maturity h * dtau / 2); stage
    operators write them into their output.  Every level is marched at
    construction, and only these four vectors are kept per level,
    4 (2 nt + 1) (nx + 1) floats in all.  ``ring(h)`` assembles them into a
    dense (nx+1, nx+1) array with a zero interior, the form :func:`lx_stage`
    and :func:`ly_stage` take; it is not cached.
    """

    def __init__(self, scenario: Scenario, flags: SolverFlags, dtau: float) -> None:
        self._levels: list[Edges] = list(zip(*_evolve_edges(scenario, flags, float(dtau))))

    def edges(self, h: int) -> Edges:
        return self._levels[h]

    def ring(self, h: int) -> np.ndarray:
        edges = self.edges(h)
        n = edges[0].size - 1
        vals = np.zeros((n + 1, n + 1))
        _write_edges(vals, edges)
        return vals


# ---------------------------------------------------------------------------
# stage operators
# ---------------------------------------------------------------------------


def _axis_coefficients(
    grid: GridSpec, r: float, sigma: float, dtau: float, first_derivative: str
) -> tuple[np.ndarray, ...]:
    """Half-step weights of one coordinate direction on interior nodes.

    Returns (lower, diag, upper, expl_up, expl_mid, expl_dn): the implicit
    tridiagonal bands used when this direction is solved, and the matching
    explicit weights (dtau included) used when it appears on the right-hand
    side of the other stage.  Shared by the interior stage operators and the
    one-dimensional edge marches so both use identical coefficients.
    """
    n = grid.nx
    dx = grid.dx
    ones = np.ones(n - 1)
    if grid.coord == "log":
        diff = (sigma * sigma / (4.0 * dx * dx)) * ones
        drift = ((r - sigma * sigma / 2.0) / 2.0) * ones
    else:
        s_in = grid.spot_axis()[1:-1]
        diff = sigma * sigma * s_in * s_in / (4.0 * dx * dx)
        drift = r * s_in / 2.0
    if first_derivative == "forward":
        lower = -dtau * diff
        diag = 1.0 + dtau * (2.0 * diff + r / 2.0 + drift / dx)
        upper = -dtau * (diff + drift / dx)
        expl_up = dtau * (diff + drift / dx)
        expl_mid = -dtau * (2.0 * diff + drift / dx)
        expl_dn = dtau * diff
    else:
        lower = -dtau * diff + dtau * drift / (2.0 * dx)
        diag = 1.0 + dtau * (2.0 * diff + r / 2.0)
        upper = -dtau * (diff + drift / (2.0 * dx))
        expl_up = dtau * (diff + drift / (2.0 * dx))
        expl_mid = -dtau * 2.0 * diff
        expl_dn = dtau * (diff - drift / (2.0 * dx))
    return lower, diag, upper, expl_up, expl_mid, expl_dn


def _edge_cost_term(
    f: np.ndarray, sigma: float, scenario: Scenario, flags: SolverFlags
) -> np.ndarray:
    """One-asset transaction-cost term along a domain edge, interior nodes.

    On an edge the surface is treated as flat in the transverse coordinate,
    so only the edge's own asset carries hedging volume.  Stencils and
    normalization match :func:`nlbs.cost_engine.assemble_G`.
    """
    grid = scenario.grid
    dt = scenario.dt_tc
    d1, d2 = _axis_differences(f, grid.dx, flags.first_derivative)
    x = grid.axis()[1:-1]
    if grid.coord == "log":
        c = d2 - d1
        theta = np.exp(-2.0 * x) * c * c * sigma * sigma
        spots = np.exp(x)
    else:
        theta = sigma * sigma * x * x * d2 * d2
        spots = x
    e = expected_cost(scenario.cost, np.maximum(theta, 0.0), dt)
    return spots * e / math.sqrt(dt)


def _evolve_edges(
    scenario: Scenario, flags: SolverFlags, dtau: float
) -> tuple[list[np.ndarray], ...]:
    """March the four domain edges with the flat-transverse limit of the scheme.

    Far from the strike in the transverse direction the value surface loses
    its dependence on that coordinate; both stages then collapse onto
    one-dimensional operators along the edge (the implicit solve of the flat
    direction reduces to division by 1 + dtau r/2, its explicit weights sum
    to zero, and the mixed term vanishes).  Each edge is evolved with exactly
    that limit, including its own one-asset cost term lagged one time level,
    so the Dirichlet data stays consistent with the costed interior instead
    of imposing a frictionless surface against it.

    Returns (bottoms, tops, lefts, rights): per-half-level edge vectors,
    h = 0 .. 2 nt.  Bottom/top run along asset 1 (transverse asset 2 pinned
    at its bound), left/right along asset 2.
    """
    grid = scenario.grid
    market = scenario.market
    payoff = scenario.payoff
    n = grid.nx
    nt = grid.nt
    r = market.r
    sig1, sig2 = market.sigmas
    spots = grid.spot_axis()
    scale = 1.0 / (1.0 + dtau * r / 2.0)
    zero_cost = scenario.cost.bounds()[1] == 0.0

    lo1, di1, up1, eu1, em1, ed1 = _axis_coefficients(grid, r, sig1, dtau, flags.first_derivative)
    lo2, di2, up2, eu2, em2, ed2 = _axis_coefficients(grid, r, sig2, dtau, flags.first_derivative)
    w1, piv1 = _thomas_factor(lo1[1:], di1, up1[:-1])
    w2, piv2 = _thomas_factor(lo2[1:], di2, up2[:-1])

    def edge_payoff(other_spot: float, own_is_first: bool) -> np.ndarray:
        def val(own):
            a, b = (own, other_spot) if own_is_first else (other_spot, own)
            return payoff.value(a, b)

        return _sampled_payoff(grid, val, 1)

    bot = edge_payoff(spots[0], True)
    top = edge_payoff(spots[n], True)
    lef = edge_payoff(spots[0], False)
    rig = edge_payoff(spots[n], False)
    # pin shared corners to pointwise payoff values so adjacent edges agree
    c00 = float(payoff.value(spots[0], spots[0]))
    cn0 = float(payoff.value(spots[n], spots[0]))
    c0n = float(payoff.value(spots[0], spots[n]))
    cnn = float(payoff.value(spots[n], spots[n]))
    bot[0], bot[-1] = c00, cn0
    top[0], top[-1] = c0n, cnn
    lef[0], lef[-1] = c00, c0n
    rig[0], rig[-1] = cn0, cnn

    def own_axis_implicit(f, lo, up, w, piv, g=None):
        out = np.empty_like(f)
        out[0] = f[0] * scale
        out[-1] = f[-1] * scale
        rhs = f[1:-1].copy()
        if g is not None:
            rhs -= dtau * g
        rhs[0] -= lo[0] * out[0]
        rhs[-1] -= up[-1] * out[-1]
        out[1:-1] = _thomas_apply(w, piv, up[:-1], rhs, overwrite=True)
        return out

    def own_axis_explicit(f, eu, em, ed, g=None):
        out = np.empty_like(f)
        out[0] = f[0] * scale
        out[-1] = f[-1] * scale
        interior = f[1:-1] + eu * f[2:] + em * f[1:-1] + ed * f[:-2]
        if g is not None:
            interior = interior - dtau * g
        out[1:-1] = interior * scale
        return out

    bottoms, tops, lefts, rights = [bot], [top], [lef], [rig]
    for _ in range(nt):
        if zero_cost:
            gb = gt = gl = gr = None
        else:
            gb = _edge_cost_term(bot, sig1, scenario, flags)
            gt = _edge_cost_term(top, sig1, scenario, flags)
            gl = _edge_cost_term(lef, sig2, scenario, flags)
            gr = _edge_cost_term(rig, sig2, scenario, flags)
        # stage 1: implicit along asset 1 (bottom/top solve, left/right are flat)
        bot_h = own_axis_implicit(bot, lo1, up1, w1, piv1)
        top_h = own_axis_implicit(top, lo1, up1, w1, piv1)
        lef_h = own_axis_explicit(lef, eu2, em2, ed2)
        rig_h = own_axis_explicit(rig, eu2, em2, ed2)
        bottoms.append(bot_h)
        tops.append(top_h)
        lefts.append(lef_h)
        rights.append(rig_h)
        # stage 2: implicit along asset 2 (left/right solve), cost term enters here
        bot = own_axis_explicit(bot_h, eu1, em1, ed1, gb)
        top = own_axis_explicit(top_h, eu1, em1, ed1, gt)
        lef = own_axis_implicit(lef_h, lo2, up2, w2, piv2, gl)
        rig = own_axis_implicit(rig_h, lo2, up2, w2, piv2, gr)
        bottoms.append(bot)
        tops.append(top)
        lefts.append(lef)
        rights.append(rig)
    return bottoms, tops, lefts, rights


class _StageOperator:
    """One half-step: implicit along ``axis``, explicit along the other axis.

    Interior equation solved for the output level H given the input level W
    (coefficients shown for axis = 0, log coordinates, forward drift):

        H_ij - dtau [ sA^2/4 dxx H + bA/dx (H_{i+1,j} - H_ij) - (r/2) H_ij ]
        = W_ij + dtau [ sB^2/4 dyy W + bB/dx (W_{i,j+1} - W_ij)
                        + (s1 s2 rho / 2) dxy W ]  - dtau G_ij (stage 2 only)

    with bA = (r - sA^2/2)/2.  The tridiagonal matrix is identical for every
    line, so it is factored once at construction.
    """

    def __init__(self, scenario: Scenario, flags: SolverFlags, dtau: float, axis: int) -> None:
        grid = scenario.grid
        market = scenario.market
        n = grid.nx
        dx = grid.dx
        r = market.r
        sig1, sig2 = market.sigmas
        rho = float(market.rho[0, 1])
        sig_a, sig_b = (sig1, sig2) if axis == 0 else (sig2, sig1)

        if grid.coord == "log":
            self._mixed_coeff = sig1 * sig2 * rho / 2.0
        else:
            s_in = grid.spot_axis()[1:-1]
            self._mixed_coeff = (sig1 * sig2 * rho / 2.0) * (s_in[:, None] * s_in[None, :])

        lower_full, diag_full, upper_full, _, _, _ = _axis_coefficients(
            grid, r, sig_a, dtau, flags.first_derivative
        )
        _, _, _, self._expl_up, self._expl_mid, self._expl_dn = _axis_coefficients(
            grid, r, sig_b, dtau, flags.first_derivative
        )

        self.axis = axis
        self.dtau = dtau
        self.dx = dx
        self.n = n
        self._lift_lo = lower_full[0]
        self._lift_hi = upper_full[-1]
        self._upper_band = upper_full[:-1]
        self._w, self._piv = _thomas_factor(lower_full[1:], diag_full, upper_full[:-1])

    def apply(self, w_level: np.ndarray, edges: Edges, g: np.ndarray | None = None) -> np.ndarray:
        """The output level: ``edges`` (bottom, top, left, right) on its ring."""
        n = self.n
        if w_level.shape != (n + 1, n + 1):
            raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {w_level.shape}")
        mid = w_level[1:-1, 1:-1]
        mix = self._mixed_coeff * _mixed_diff(w_level, self.dx)
        if self.axis == 0:
            up = w_level[1:-1, 2:]
            dn = w_level[1:-1, :-2]
            cu, cm, cd = self._expl_up[None, :], self._expl_mid[None, :], self._expl_dn[None, :]
        else:
            up = w_level[2:, 1:-1]
            dn = w_level[:-2, 1:-1]
            cu, cm, cd = self._expl_up[:, None], self._expl_mid[:, None], self._expl_dn[:, None]
        rhs = mid + cu * up + cm * mid + cd * dn + self.dtau * mix
        if g is not None:
            rhs = rhs - self.dtau * g[1:-1, 1:-1]
        bottom, top, left, right = edges
        out = np.empty((n + 1, n + 1))
        _write_edges(out, edges)
        # lines run along the implicit axis; rhs.T is already Fortran-ordered
        if self.axis == 0:
            rhs[0, :] -= self._lift_lo * left[1:-1]
            rhs[-1, :] -= self._lift_hi * right[1:-1]
            lines = rhs
        else:
            rhs[:, 0] -= self._lift_lo * bottom[1:-1]
            rhs[:, -1] -= self._lift_hi * top[1:-1]
            lines = rhs.T
        solved = _thomas_apply(self._w, self._piv, self._upper_band, lines, overwrite=True)
        out[1:-1, 1:-1] = solved if self.axis == 0 else solved.T
        return out


def lx_stage(
    u: np.ndarray,
    scenario: Scenario,
    boundary_ring: np.ndarray,
    g: np.ndarray | None = None,
    flags: SolverFlags = SolverFlags(),
    dtau: float | None = None,
) -> np.ndarray:
    """Single x-implicit half-step from level values ``u``.

    ``boundary_ring`` supplies the Dirichlet values of the *output* level on
    its boundary ring (interior entries ignored).  ``dtau`` defaults to
    T / nt.  Convenience wrapper over the cached operator used by
    :func:`sweep`; building it anew per call, it is meant for tests and
    one-off applications.
    """
    dtau = scenario.market.T / scenario.grid.nt if dtau is None else float(dtau)
    return _StageOperator(scenario, flags, dtau, axis=0).apply(u, _ring_edges(boundary_ring), g)


def ly_stage(
    u: np.ndarray,
    scenario: Scenario,
    boundary_ring: np.ndarray,
    g: np.ndarray | None = None,
    flags: SolverFlags = SolverFlags(),
    dtau: float | None = None,
) -> np.ndarray:
    """Single y-implicit half-step (mirror of :func:`lx_stage`)."""
    dtau = scenario.market.T / scenario.grid.nt if dtau is None else float(dtau)
    return _StageOperator(scenario, flags, dtau, axis=1).apply(u, _ring_edges(boundary_ring), g)


# ---------------------------------------------------------------------------
# time marching and the fixed-point iteration
# ---------------------------------------------------------------------------


def sweep(
    scenario: Scenario,
    *,
    g_provider: Callable[[int], np.ndarray] | None = None,
    flags: SolverFlags = SolverFlags(),
    boundary: BoundaryData | None = None,
) -> np.ndarray:
    """March the scheme from the payoff to tau = T.

    Returns the full space-time block, shape (nt+1, nx+1, nx+1); level m is
    the surface at tau = m dtau.  ``g_provider(m)`` must return the source
    field used for the step m -> m+1 (full-shape array); None means zero
    source (the linear problem).
    """
    grid = scenario.grid
    nt = grid.nt
    dtau = scenario.market.T / nt
    if boundary is None:
        boundary = BoundaryData(scenario, flags, dtau)
    op_x = _StageOperator(scenario, flags, dtau, axis=0)
    op_y = _StageOperator(scenario, flags, dtau, axis=1)
    n = grid.nx
    block = np.empty((nt + 1, n + 1, n + 1))
    block[0] = initial_condition(grid, scenario.payoff)
    for m in range(nt):
        g = g_provider(m) if g_provider is not None else None
        half = op_x.apply(block[m], boundary.edges(2 * m + 1), g=None)
        block[m + 1] = op_y.apply(half, boundary.edges(2 * m + 2), g=g)
    return block


def solve_nonlinear(
    scenario: Scenario,
    *,
    tol: float = 1e-6,
    max_iter: int = 25,
    stop_norm: Literal["1", "2", "inf"] = "inf",
    flags: SolverFlags = SolverFlags(),
) -> SolveResult:
    """Fixed-point iteration on the transaction-cost source term.

    Sweep 1 solves the linear problem (source frozen at zero); sweep n
    evaluates the source on sweep n-1's space-time block, level by level.
    Stops when the distance between consecutive terminal surfaces drops below
    ``tol`` in the chosen induced norm, or after ``max_iter`` sweeps (then
    ``converged=False`` and a RuntimeWarning is issued).

    A cost model that is identically zero makes every correction vanish, so
    the linear sweep is returned immediately as converged.
    """
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValidationError("tol", f"tolerance must be positive, got {tol}")
    if int(max_iter) < 1:
        raise ValidationError("max_iter", f"need at least one sweep, got {max_iter}")
    if stop_norm not in ("1", "2", "inf"):
        raise ValidationError("stop_norm", f"expected '1', '2' or 'inf', got {stop_norm!r}")

    grid = scenario.grid
    dtau = scenario.market.T / grid.nt
    boundary = BoundaryData(scenario, flags, dtau)

    def make_provider(block: np.ndarray) -> Callable[[int], np.ndarray]:
        def provider(m: int) -> np.ndarray:
            return assemble_G(block[m], scenario, flags=flags)

        return provider

    zero_cost = scenario.cost.bounds()[1] == 0.0
    records: list[ConvergenceRecord] = []
    converged = False
    prev: np.ndarray | None = None
    sweeps = 0
    for it in range(1, int(max_iter) + 1):
        provider = None if prev is None else make_provider(prev)
        cur = sweep(scenario, g_provider=provider, flags=flags, boundary=boundary)
        sweeps = it
        if prev is not None:
            diff = cur[-1] - prev[-1]
            rec = ConvergenceRecord(
                n=it - 1,
                d1=float(np.linalg.norm(diff, 1)),
                d2=float(np.linalg.norm(diff, 2)),
                dinf=float(np.linalg.norm(diff, np.inf)),
            )
            records.append(rec)
            prev = cur
            if rec.get(stop_norm) < tol:
                converged = True
                break
        else:
            prev = cur
            if zero_cost:
                converged = True
                break
    assert prev is not None
    if not converged:
        warnings.warn(
            f"fixed-point iteration did not reach tol={tol} within {max_iter} sweeps",
            RuntimeWarning,
            stacklevel=2,
        )
    return SolveResult(
        surface=Surface(values=prev[-1], time_index=grid.nt, iterate_index=sweeps),
        records=records,
        converged=converged,
        iterations=sweeps,
        block=prev,
    )
