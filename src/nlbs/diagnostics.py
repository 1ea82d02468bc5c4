"""Solution-quality diagnostics: benchmark error, sensitivity, source bound.

* :func:`error_vs_analytic` - compares a terminal PDE surface with the
  closed-form benchmark.  The headline number is peak-normalized:
  ``max|num - ana| / max(ana)`` over included nodes.  Pointwise relative
  error is meaningless for a digital payoff (the benchmark underflows toward
  zero in the deep tails while any finite-difference surface carries a
  roundoff floor), so nodes near the payoff discontinuity (a configurable
  Chebyshev band around it, two rectangles in closed form) and the Dirichlet
  ring are excluded and the remaining errors are scaled by the benchmark's
  peak.
* :func:`dt_sensitivity_sweep` - re-solves the nonlinear problem across a
  range of rebalancing intervals and samples price and source term at probe
  spots, each snapped to an interior node (:func:`probe_nodes`).
* :func:`perron_bound` - the largest magnitude the cost term attains on the
  analytic benchmark surface: a supremum-type bound on the source term that
  drives comparison-principle estimates.  Evaluated at a fixed time to
  maturity (default T): for a discontinuous payoff the bound diverges as
  tau -> 0, so no supremum over tau exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adi_solver import SolveResult, solve_nonlinear
from .analytic_pricing import cbest_price
from .cost_engine import assemble_G
from .market_model import Scenario, ValidationError, _integer, _numbers

__all__ = [
    "ErrorReport",
    "compared_nodes",
    "error_vs_analytic",
    "DtSweepRow",
    "DtSweepResult",
    "probe_nodes",
    "dt_sensitivity_sweep",
    "PerronBound",
    "perron_bound",
]


# ---------------------------------------------------------------------------
# benchmark error
# ---------------------------------------------------------------------------


def compared_nodes(scenario: Scenario, band: int = 2) -> np.ndarray:
    """Mask of the nodes :func:`error_vs_analytic` compares, shape (nx+1, nx+1).

    Excludes the Dirichlet boundary ring and every node within ``band``
    cells (Chebyshev distance) of the payoff discontinuity (nodes where the
    terminal indicator changes between neighbors).  The mask depends only on
    the grid, the payoff and ``band``, so ``band`` can be checked before any
    solve: a negative band, or one that leaves no node, raises
    :class:`ValidationError` naming ``band``.
    """
    band = _integer(band, "band")
    if band < 0:
        raise ValidationError("band", f"exclusion band must be nonnegative, got {band}")
    s = scenario.grid.spot_axis()
    include = np.zeros((s.size, s.size), dtype=bool)
    include[1:-1, 1:-1] = True
    # the payoff is 0 on nodes 0..k-1 of both axes, so the indicator changes
    # between rows (columns) k-1 and k up to column (row) k-1
    k = int(np.searchsorted(s, scenario.payoff.X))
    if 0 < k < s.size:
        rows = slice(max(k - 1 - band, 0), k + 1 + band)
        include[rows, : k + band] = include[: k + band, rows] = False
    if not include.any():
        raise ValidationError("band", "exclusion band leaves no interior nodes to compare")
    return include


@dataclass(frozen=True)
class ErrorReport:
    """Comparison of a numerical surface against the closed-form benchmark.

    ``max_rel`` is peak-normalized (see module docstring), ``mean_abs`` the
    mean absolute error over included nodes, ``n_included`` their count,
    ``peak_analytic`` the normalization constant.
    """

    max_rel: float
    mean_abs: float
    n_included: int
    peak_analytic: float


def error_vs_analytic(
    surface: np.ndarray,
    scenario: Scenario,
    *,
    band: int = 2,
) -> ErrorReport:
    """Benchmark error of a value array of shape (nx+1, nx+1) at time-to-maturity T.

    The statistics cover the nodes of :func:`compared_nodes`.
    """
    u = np.asarray(surface, dtype=float)
    n = scenario.grid.nx
    if u.shape != (n + 1, n + 1):
        raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {u.shape}")
    include = compared_nodes(scenario, band)

    s = scenario.grid.spot_axis()
    ana = np.broadcast_to(cbest_price(s[:, None], s[None, :], scenario.market.T, scenario), u.shape)
    diff = np.abs(u - ana)[include]
    peak = float(ana[include].max())
    max_abs = float(diff.max())
    if peak <= 0.0:
        max_rel = 0.0 if max_abs == 0.0 else math.inf
    else:
        max_rel = max_abs / peak
    return ErrorReport(
        max_rel=max_rel,
        mean_abs=float(diff.mean()),
        n_included=int(include.sum()),
        peak_analytic=peak,
    )


# ---------------------------------------------------------------------------
# rebalancing-interval sensitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DtSweepRow:
    dt: float
    converged: bool
    iterations: int
    prices: tuple[float, ...]
    g_values: tuple[float, ...]


@dataclass(frozen=True)
class DtSweepResult:
    """Per-dt solves sampled at probe nodes (probes snapped to grid nodes)."""

    rows: tuple[DtSweepRow, ...]
    probe_nodes: tuple[tuple[int, int], ...]
    probe_spots: tuple[tuple[float, float], ...]


def probe_nodes(scenario: Scenario, probes=None) -> list[tuple[int, int]]:
    """The grid nodes nearest the (S1, S2) ``probes``, default the single probe (X, X).

    A probe that is not positive and finite, or whose nearest node lies on
    the Dirichlet ring, where the source is never evaluated, raises
    :class:`ValidationError` naming ``probes``; like :func:`compared_nodes`,
    this needs no solve.
    """
    grid = scenario.grid
    nodes = []
    for s1, s2 in [(scenario.payoff.X, scenario.payoff.X)] if probes is None else probes:
        s1, s2 = float(s1), float(s2)
        if not (0.0 < s1 < math.inf and 0.0 < s2 < math.inf):
            raise ValidationError("probes", f"probe spots must be positive and finite, got ({s1}, {s2})")
        c1, c2 = (math.log(s1), math.log(s2)) if grid.coord == "log" else (s1, s2)
        # clamped before rounding, so a coordinate far off the grid cannot overflow
        i, j = (round(min(max((c - grid.a) / grid.dx, -1.0), grid.nx + 1.0)) for c in (c1, c2))
        if not (0 < i < grid.nx and 0 < j < grid.nx):
            raise ValidationError("probes", f"probe ({s1}, {s2}) snaps to the Dirichlet ring, where G is not evaluated")
        nodes.append((i, j))
    return nodes


def dt_sensitivity_sweep(scenario: Scenario, dt_values, probes=None, **settings) -> DtSweepResult:
    """Solve the nonlinear problem for each rebalancing interval in dt_values.

    ``probes`` is a sequence of (S1, S2) spot pairs, each snapped to the
    nearest grid node, which must be interior (see :func:`probe_nodes`).
    ``settings`` (``tol``, ``max_iter``) go to :func:`solve_nonlinear`, whose
    defaults hold for those not given; with the default ``max_iter`` of
    nt + 2 every solve converges.  A solve stopped short by an explicit
    ``max_iter`` is recorded with ``converged=False`` and the sweep continues.
    """
    dts = np.atleast_1d(_numbers(dt_values, "dt_values", (0, 1))).tolist()
    if not dts:
        raise ValidationError("dt_values", "need at least one rebalancing interval")
    for d in dts:
        if not math.isfinite(d) or d <= 0.0:
            raise ValidationError("dt_values", f"rebalancing intervals must be positive, got {d}")
    nodes = probe_nodes(scenario, probes)

    rows: list[DtSweepRow] = []
    for d in dts:
        scen_d = scenario.with_dt(d)
        result: SolveResult = solve_nonlinear(scen_d, **settings)
        g = assemble_G(result.surface.values, scen_d)
        rows.append(
            DtSweepRow(
                dt=d,
                converged=result.converged,
                iterations=result.iterations,
                prices=tuple(float(result.surface.values[i, j]) for i, j in nodes),
                g_values=tuple(float(g[i, j]) for i, j in nodes),
            )
        )
    spot = scenario.grid.spot_axis()
    spots = tuple((float(spot[i]), float(spot[j])) for i, j in nodes)
    return DtSweepResult(rows=tuple(rows), probe_nodes=tuple(nodes), probe_spots=spots)


# ---------------------------------------------------------------------------
# source-term bound on the benchmark surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerronBound:
    """max |G| over interior nodes of the benchmark surface at fixed tau."""

    value: float
    node: tuple[int, int]
    spots: tuple[float, float]
    tau: float


def perron_bound(scenario: Scenario, *, tau: float | None = None) -> PerronBound:
    """Largest |G| on the closed-form surface at time-to-maturity tau.

    The benchmark surface is sampled on the scenario grid, its Hessian taken
    with the scheme's own stencils (the grid's), and the cost term assembled
    on interior nodes.  Linear in the cost level for constant and
    exponential models.
    """
    grid = scenario.grid
    tau = scenario.market.T if tau is None else float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValidationError("tau", f"time to maturity must be positive, got {tau}")
    s = grid.spot_axis()
    ana = cbest_price(s[:, None], s[None, :], tau, scenario)
    ana = np.broadcast_to(ana, (grid.nx + 1, grid.nx + 1))
    g = assemble_G(ana, scenario)
    inner = np.abs(g[1:-1, 1:-1])
    flat = int(np.argmax(inner))
    wi, wj = np.unravel_index(flat, inner.shape)
    i, j = int(wi) + 1, int(wj) + 1
    return PerronBound(
        value=float(inner[wi, wj]),
        node=(i, j),
        spots=(float(s[i]), float(s[j])),
        tau=tau,
    )
