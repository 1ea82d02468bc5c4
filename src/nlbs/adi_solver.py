"""Two-stage alternating-direction implicit solver with a fixed-point wrapper.

The pricing problem is posed in time-to-maturity tau on a square grid (log
prices by default; :class:`~nlbs.market_model.GridSpec`, which the scenario
carries).  Each time step splits the spatial operator into two
half-operators; each half-operator treats one axis implicitly (tridiagonal
solve) and the other axis plus the mixed derivative explicitly:

    stage 1 (x implicit):   (H - W)/dtau = Lx H + Ly W + Lxy W
    stage 2 (y implicit):   (V - H)/dtau = Ly V + Lx H + Lxy H - G

where each of Lx, Ly carries half of the corresponding one-dimensional
convection-diffusion-discount operator, Lxy half the mixed diffusion term,
and G the (frozen) transaction-cost source.  First derivatives are one-sided
forward differences by default ("central" available); the mixed term uses
the four-corner stencil.  The initial data is the payoff's exact average over
each node's cell (Pooley, Vetzal & Forsyth, 2003): forward differences stay
first order in space, and central ones are second order.

The nonlinear problem is solved by fixed-point iteration on the source term:
iterate 0 is identically zero, so the first sweep is the pure linear problem;
sweep n evaluates G on iterate n-1's surface at the matching time level.
Recorded convergence distances start with the first cost-bearing correction:
record n is the distance between sweeps n+1 and n at tau = T in the induced
matrix 1-, 2- and infinity-norms, and the iteration stops on the last.
The source lags one time level, so level m is final after m + 1 sweeps: the
iteration always stops, at distance 0, by sweep nt + 2 (the default cap).
Each sweep takes the previous sweep's block as its source.  A costed sweep
keeps its whole space-time block, (nt+1)(nx+1)^2 floats, for the next sweep
to read level by level.  A zero-cost solve converges after its one linear
sweep, which streams: it holds only the current level and its half level
and keeps the terminal one.

Dirichlet boundary values on all four edges come from marching each edge
with the one-dimensional limit of the two-stage scheme itself (the exact
reduction of the interior stencil for a surface that is flat in the
transverse direction), including a one-dimensional single-asset cost term.
Corners decay by the scheme's own half-step discount factor.  No closed form
enters, so the edges stay consistent with the interior discretization for
any cost level.

One solve is fixed by its scenario (whose grid carries the first-difference
stencil), its step dtau = T / nt and whether it carries a cost, and
:class:`BoundaryData` is where all three are decided; :func:`sweep` and
everything it calls read them from there and from nowhere else.  It builds
each coordinate direction's half of the operator once, as one object
(``_Axis``): its tridiagonal matrix, Dirichlet lift and explicit weights
serve the edge march and every sweep's stage operators alike.  The edges
march in pairs, bottom with top along asset 1 and left with right along
asset 2, as the two columns of one array; only these pairs are stored for
each half level, O(nt nx) floats, and the stage operators write them
straight into their output level.

A half-step allocates no level-sized array: its right-hand side is built in
place in two (nx-1)^2 scratch arrays that both stage operators of a sweep
share, laid out so that every implicit line is contiguous, and its output
goes straight to the level that is kept.  Its nx - 1 line solves are one
LAPACK ``dgtsv`` call, which eliminates across all lines at once.  On the
scheme's matrices ``dgtsv`` interchanges no rows, so it repeats the
row-by-row Thomas loop's operations in its order and the result is
bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgtsv

from .cost_engine import _corner_sum, _hedge_row, _theta, _variance_weight, assemble_G, expected_cost
from .market_model import BestCashOrNothing, GridSpec, Scenario, ValidationError, _integer, _numbers

__all__ = [
    "Surface",
    "ConvergenceRecord",
    "SolveResult",
    "ZeroPivotError",
    "initial_condition",
    "BoundaryData",
    "sweep",
    "solve_nonlinear",
]

# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass
class Surface:
    """The value surface at tau = T of the last fixed-point iterate."""

    values: np.ndarray


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


def _spectral_norm(d: np.ndarray) -> float:
    """Largest singular value of a 2-D array (nan if not finite), from the top
    eigenvalue of its smaller Gram matrix: many times cheaper than the SVD of
    ``np.linalg.norm(d, 2)``."""
    gram = d.T @ d if d.shape[0] >= d.shape[1] else d @ d.T
    if not np.isfinite(gram).all():
        return math.nan
    return math.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)) if gram.size else 0.0


@dataclass
class SolveResult:
    """Outcome of :func:`solve_nonlinear`.

    ``block`` is the last sweep's result (see :func:`sweep`): every level of
    a costed solve, the terminal one alone of a zero-cost solve.
    """

    surface: Surface
    records: list[ConvergenceRecord]
    converged: bool
    iterations: int
    block: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# tridiagonal solver
# ---------------------------------------------------------------------------


class ZeroPivotError(ValueError):
    """A tridiagonal matrix is singular: LAPACK's ``dgtsv`` met a zero pivot."""


def _tridiag_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system for every column of ``rhs`` by one LAPACK ``dgtsv`` call.

    ``rhs`` is (n, m) for m systems of n rows; a Fortran-ordered rhs is
    solved in place, any other is copied.  The matrix is left alone.  Where
    ``dgtsv`` interchanges no rows (as on every scheme matrix the tests
    cover) it runs the Thomas loop's operations in its order.
    """
    # numpy transposes faster than the f2py wrapper
    b = rhs if rhs.flags.f_contiguous else np.array(rhs, dtype=float, order="F")
    *_, x, info = dgtsv(lower, diag, upper, b, overwrite_b=True)
    if info > 0:
        raise ZeroPivotError(f"singular matrix: zero pivot at row {info - 1}")
    return x


# ---------------------------------------------------------------------------
# initial condition and boundary data
# ---------------------------------------------------------------------------


def _below_shares(grid: GridSpec, X: float) -> np.ndarray:
    """Share of each node's cell [x - dx/2, x + dx/2] below X, in the grid's
    own coordinate (ln X on a log grid)."""
    c = math.log(X) if grid.coord == "log" else X
    return np.clip((c - grid.axis()) / grid.dx + 0.5, 0.0, 1.0)


def initial_condition(grid: GridSpec, payoff: BestCashOrNothing) -> np.ndarray:
    """The payoff's exact average over each node's grid cell.

    Sampling the payoff at the nodes would alias its jump onto the nearest
    node, displacing it by up to half a cell: a first-order error near X.
    """
    below = _below_shares(grid, payoff.X)
    return payoff.cell_average(below[:, None], below[None, :])


Edges = tuple[np.ndarray, np.ndarray]


def _write_edges(out: np.ndarray, edges: Edges) -> None:
    """Write edges into ``out``, bottom and top before left and right.

    Each corner therefore takes its value from the left or right edge.
    """
    bottom_top, left_right = edges
    out[:, 0] = bottom_top[:, 0]
    out[:, -1] = bottom_top[:, 1]
    out[0, :] = left_right[:, 0]
    out[-1, :] = left_right[:, 1]


class BoundaryData:
    """The scheme of one solve, and its Dirichlet edge values for every half time level.

    Everything that fixes a solve is decided here, once: ``scenario`` and
    its ``grid`` (which carries the stencils), ``dtau`` = T / nt, ``costed``
    (the cost's upper bound is above 0), and ``axes``, the two directions'
    :class:`_Axis` objects, built once for the edge march and every sweep's
    stage operators.

    ``edges(h)`` returns the edges at half-level h (time to maturity
    h * dtau / 2) as two (nx+1, 2) column pairs: bottom and top (the columns
    j = 0 and j = nx, along asset 1), then left and right (the rows i = 0 and
    i = nx, along asset 2); stage operators write them into their output.
    Every level is marched at construction, one pair per direction, and only
    these pairs are kept, 4 (2 nt + 1) (nx + 1) floats in all.
    """

    def __init__(self, scenario: Scenario) -> None:
        grid, market = scenario.grid, scenario.market
        self.scenario, self.grid = scenario, grid
        self.costed = scenario.cost.bounds()[1] > 0.0
        self.dtau = market.T / grid.nt
        self.axes = tuple(_Axis(grid, market.r, sigma, self.dtau) for sigma in market.sigmas)
        self._levels: list[Edges] = _evolve_edges(self)

    def edges(self, h: int) -> Edges:
        return self._levels[h]


# ---------------------------------------------------------------------------
# one direction's half-step, and the stage operators
# ---------------------------------------------------------------------------


class _Axis:
    """Half-step weights of one coordinate direction on interior nodes.

    Holds half of the direction's one-dimensional convection-diffusion-
    discount operator, dtau included, in the two forms a stage needs:
    :meth:`solve` treats the direction implicitly (one tridiagonal solve per
    line, all lines in one LAPACK call), :meth:`explicit` applies it on the
    right-hand side of the other direction's stage.  The interior stage
    operators and the edge marches share this object, so both use identical
    coefficients.  Both methods run along axis 0 and broadcast over axis 1.
    The first difference is the grid's ``first_derivative`` stencil.
    """

    def __init__(self, grid: GridSpec, r: float, sigma: float, dtau: float) -> None:
        dx = grid.dx
        if grid.coord == "log":
            diff = np.full(grid.nx - 1, sigma * sigma / (4.0 * dx * dx))
            drift = np.full(grid.nx - 1, (r - sigma * sigma / 2.0) / 2.0)
        else:
            s_in = grid.spot_axis()[1:-1]
            diff = sigma * sigma * s_in * s_in / (4.0 * dx * dx)
            drift = r * s_in / 2.0
        if grid.first_derivative == "forward":
            lower = -dtau * diff
            diag = 1.0 + dtau * (2.0 * diff + r / 2.0 + drift / dx)
            upper = -dtau * (diff + drift / dx)
            weights = (dtau * (diff + drift / dx), -dtau * (2.0 * diff + drift / dx), dtau * diff)
        else:
            lower = -dtau * diff + dtau * drift / (2.0 * dx)
            diag = 1.0 + dtau * (2.0 * diff + r / 2.0)
            upper = -dtau * (diff + drift / (2.0 * dx))
            weights = (dtau * (diff + drift / (2.0 * dx)), -dtau * 2.0 * diff, dtau * (diff - drift / (2.0 * dx)))
        # a log grid's weights are the same on every row, and numpy multiplies
        # by a scalar about twice as fast as by a broadcast column
        self._up, self._mid, self._dn = (c[0] if grid.coord == "log" else c[:, None] for c in weights)
        self._lift = lower[0], upper[-1]
        self._tridiag = lower[1:], diag, upper[:-1]

    def explicit(self, f: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """``f`` on interior rows plus this direction's explicit increment, into ``out``.

        ``out`` and the scratch ``tmp`` have the shape of ``f[1:-1]``.  The
        sum runs ((f + up f[2:]) + mid f) + dn f[:-2].
        """
        np.multiply(self._up, f[2:], out=out)
        out += f[1:-1]
        out += np.multiply(self._mid, f[1:-1], out=tmp)
        out += np.multiply(self._dn, f[:-2], out=tmp)
        return out

    def solve(self, rhs: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Interior rows of the implicit half-step; ``rhs`` is overwritten.

        ``first`` and ``last`` are the Dirichlet values at rows 0 and nx,
        lifted onto the right-hand side before the line solves.  A
        Fortran-ordered ``rhs`` holds the solution on return.
        """
        rhs[0] -= self._lift[0] * first
        rhs[-1] -= self._lift[1] * last
        return _tridiag_solve(*self._tridiag, rhs)


def _edge_cost_term(f: np.ndarray, sigma: float, boundary: BoundaryData) -> np.ndarray:
    """One-asset transaction-cost term along a pair of domain edges, interior nodes.

    ``f`` holds two edges that run along the same asset as its columns.  On
    an edge the surface is treated as flat in the transverse coordinate, so
    only the edge's own asset carries hedging volume (the one-asset Theta).
    Stencils and normalization match :func:`nlbs.cost_engine.assemble_G`.
    """
    scenario, grid = boundary.scenario, boundary.grid
    p = _hedge_row(f, grid)
    theta = _theta(p, _variance_weight(grid, sigma)[:, None], p)
    rate = grid.spot_axis()[1:-1, None] / math.sqrt(scenario.dt_tc)
    return rate * expected_cost(scenario.cost, theta, scenario.dt_tc)


def _evolve_edges(boundary: BoundaryData) -> list[Edges]:
    """March the four domain edges with the flat-transverse limit of the scheme.

    Far from the strike in the transverse direction the value surface loses
    its dependence on that coordinate; both stages then collapse onto
    one-dimensional operators along the edge (the implicit solve of the flat
    direction reduces to division by 1 + dtau r/2, its explicit weights sum
    to zero, and the mixed term vanishes).  Each edge is evolved with exactly
    that limit, including its own one-asset cost term lagged one time level,
    so the Dirichlet data stays consistent with the costed interior instead
    of imposing a frictionless surface against it.

    Edges that run along the same asset march together as the two columns of
    one array, with the scheme of ``boundary``.  Returns its pairs of every
    half level, h = 0 .. 2 nt.
    """
    scenario, grid = boundary.scenario, boundary.grid
    sig1, sig2 = scenario.market.sigmas
    dtau, (axis1, axis2) = boundary.dtau, boundary.axes
    scale = 1.0 / (1.0 + dtau * scenario.market.r / 2.0)

    # each edge's own asset is averaged over its cell, the other sits at a domain end
    below = _below_shares(grid, scenario.payoff.X)[:, None]
    ends_below = grid.spot_axis()[None, [0, -1]] < scenario.payoff.X
    bottom_top = scenario.payoff.cell_average(below, ends_below)
    left_right = scenario.payoff.cell_average(ends_below, below)

    def implicit(axis: _Axis, f: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
        out = f * scale
        rhs = f[1:-1].copy() if g is None else f[1:-1] - dtau * g
        out[1:-1] = axis.solve(rhs, out[0], out[-1])
        return out

    def explicit(axis: _Axis, f: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
        out = f * scale
        rhs = axis.explicit(f, out[1:-1], np.empty_like(f[1:-1]))
        if g is not None:
            rhs -= dtau * g
        rhs *= scale
        return out

    levels = [(bottom_top, left_right)]
    for _ in range(grid.nt):
        g_bt = g_lr = None
        if boundary.costed:
            g_bt = _edge_cost_term(bottom_top, sig1, boundary)
            g_lr = _edge_cost_term(left_right, sig2, boundary)
        # stage 1: implicit along asset 1 (bottom/top solve, left/right are flat)
        bottom_top, left_right = implicit(axis1, bottom_top), explicit(axis2, left_right)
        levels.append((bottom_top, left_right))
        # stage 2: implicit along asset 2 (left/right solve), cost term enters here
        bottom_top, left_right = explicit(axis1, bottom_top, g_bt), implicit(axis2, left_right, g_lr)
        levels.append((bottom_top, left_right))
    return levels


class _StageOperator:
    """One half-step: implicit along ``axis``, explicit along the other axis.

    Interior equation solved for the output level H given the input level W
    (coefficients shown for axis = 0, log coordinates, forward drift):

        H_ij - dtau [ sA^2/4 dxx H + bA/dx (H_{i+1,j} - H_ij) - (r/2) H_ij ]
        = W_ij + dtau [ sB^2/4 dyy W + bB/dx (W_{i,j+1} - W_ij)
                        + (s1 s2 rho / 2) dxy W ]  - dtau G_ij (stage 2 only)

    with bA = (r - sA^2/2)/2.  The tridiagonal matrix is identical for every
    line, so one LAPACK call solves all lines.

    The grid, the market, the scheme's step and both directions come from
    ``boundary``.  The right-hand side is built in ``scratch``, two
    (nx-1, nx-1) arrays; operators that never run at once may share it.
    """

    def __init__(self, boundary: BoundaryData, axis: int, scratch: np.ndarray) -> None:
        grid, market = boundary.grid, boundary.scenario.market
        sig1, sig2 = market.sigmas
        rho = float(market.rho[0, 1])
        if grid.coord == "log":
            self._mixed_coeff = sig1 * sig2 * rho / 2.0
        else:
            s_in = grid.spot_axis()[1:-1]
            self._mixed_coeff = (sig1 * sig2 * rho / 2.0) * (s_in[:, None] * s_in[None, :])
        self._implicit, self._explicit = boundary.axes[axis], boundary.axes[1 - axis]
        self.axis = axis
        self.dtau = boundary.dtau
        self.dx = grid.dx
        self.n = grid.nx
        self._scratch = scratch

    def apply(self, w_level: np.ndarray, edges: Edges, g: np.ndarray | None = None, *, out: np.ndarray) -> np.ndarray:
        """Write the output level into ``out``, with ``edges`` (as
        :class:`BoundaryData` holds them) on its ring, and return it.

        ``out`` must not overlap ``w_level`` or ``g``.  The right-hand side
        runs ((explicit part + dtau mixed term) - dtau g), as in the
        equation above, with the mixed term coeff ((((NE + SW) - SE) - NW)
        / (4 dx^2)).
        """
        n = self.n
        if w_level.shape != (n + 1, n + 1):
            raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {w_level.shape}")
        # seen through ``orient``, the implicit direction runs along axis 0
        orient = (lambda a: a) if self.axis == 0 else np.transpose
        rhs, tmp = self._scratch
        # every operand has the level's layout, so numpy walks memory in order
        self._explicit.explicit(orient(w_level)[1:-1].T, orient(rhs).T, orient(tmp).T)
        mix = _corner_sum(w_level, out=tmp)
        mix /= 4.0 * self.dx * self.dx
        mix *= self._mixed_coeff
        mix *= self.dtau
        rhs += mix
        if g is not None:
            rhs -= np.multiply(self.dtau, g[1:-1, 1:-1], out=tmp)
        lines = orient(rhs)
        if self.axis == 0:  # LAPACK solves in place lines that are contiguous: the rows of tmp
            lines = tmp.T
            lines[...] = rhs
        _write_edges(out, edges)
        # the line ends: left and right for axis 0, bottom and top for axis 1
        ends = edges[1 - self.axis]
        orient(out)[1:-1, 1:-1] = self._implicit.solve(lines, ends[1:-1, 0], ends[1:-1, 1])
        return out


# ---------------------------------------------------------------------------
# time marching and the fixed-point iteration
# ---------------------------------------------------------------------------


def sweep(boundary: BoundaryData, source: np.ndarray | None = None) -> np.ndarray:
    """March the scheme of ``boundary`` from the payoff to tau = T.

    ``boundary`` is the solve's one source of inputs: its scenario and grid
    (with the stencils), its step dtau = T / nt, whether it is costed, both
    directions' operators and the edges.  Step m -> m+1 takes the source
    ``assemble_G(source[m])``, from level m of an earlier sweep's block;
    without ``source`` the source is zero (the linear problem).  A costed
    scenario returns the full space-time block, shape (nt+1, nx+1, nx+1),
    level m being the surface at tau = m dtau, for the next sweep's source
    to read.  A zero-cost one streams: it holds only the current level and
    its half level and returns the terminal level alone, shape
    (1, nx+1, nx+1).

    Each stage writes its level where it is kept: the x stage into one
    reusable half level, the y stage into the block, or, when streaming,
    back into the level the x stage has just read.
    """
    scenario, grid = boundary.scenario, boundary.grid
    n = grid.nx
    # the block is allocated first: on glibc that order keeps the peak RSS lower
    block = np.empty((grid.nt + 1, n + 1, n + 1)) if boundary.costed else None
    scratch = np.empty((2, n - 1, n - 1))
    op_x, op_y = (_StageOperator(boundary, axis, scratch) for axis in (0, 1))
    half = np.empty((n + 1, n + 1))
    level = initial_condition(grid, scenario.payoff)
    if block is not None:
        block[0] = level
    for m in range(grid.nt):
        g = None if source is None else assemble_G(source[m], scenario)
        op_x.apply(level, boundary.edges(2 * m + 1), out=half)
        level = op_y.apply(half, boundary.edges(2 * m + 2), g, out=level if block is None else block[m + 1])
    return level[None] if block is None else block


def solve_nonlinear(
    scenario: Scenario,
    *,
    tol: float = 1e-6,
    max_iter: int | None = None,
) -> SolveResult:
    """Fixed-point iteration on the transaction-cost source term.

    Sweep 1 solves the linear problem (source frozen at zero); sweep n
    evaluates the source on sweep n-1's space-time block, level by level.
    Stops when the distance between consecutive terminal surfaces drops below
    ``tol`` in the induced infinity-norm (max row sum), or after ``max_iter``
    sweeps (then ``converged=False``, and no warning is issued).
    ``max_iter`` defaults to nt + 2, by which the iteration always stops at
    distance 0 (see the module docstring), so a default solve converges.

    A cost model that is identically zero makes every correction vanish, so
    the linear sweep is returned immediately as converged; that sweep streams
    its levels and ``block`` holds the terminal level alone.
    """
    tol = _numbers(tol, "tol")
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValidationError("tol", f"tolerance must be positive, got {tol}")
    max_iter = scenario.grid.nt + 2 if max_iter is None else _integer(max_iter, "max_iter")
    if max_iter < 1:
        raise ValidationError("max_iter", f"need at least one sweep, got {max_iter}")

    boundary = BoundaryData(scenario)
    records: list[ConvergenceRecord] = []
    prev: np.ndarray | None = None
    for sweeps in range(1, max_iter + 1):
        cur = sweep(boundary, prev)
        if prev is None:
            converged = not boundary.costed
        else:
            diff = cur[-1] - prev[-1]
            records.append(
                ConvergenceRecord(
                    n=sweeps - 1,
                    d1=float(np.linalg.norm(diff, 1)),
                    d2=_spectral_norm(diff),
                    dinf=float(np.linalg.norm(diff, np.inf)),
                )
            )
            converged = records[-1].dinf < tol
        prev = cur
        if converged:
            break
    return SolveResult(
        surface=Surface(values=prev[-1]),
        records=records,
        converged=converged,
        iterations=sweeps,
        block=prev,
    )
