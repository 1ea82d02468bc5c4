"""Solution-quality diagnostics: norms, analytic-benchmark error, sensitivity.

* :func:`pnorm_distance` - induced (or entrywise) matrix norms between two
  surfaces, the metric used by the fixed-point convergence records.
* :func:`error_vs_analytic` - compares a terminal PDE surface with the
  closed-form benchmark.  The headline number is peak-normalized:
  ``max|num - ana| / max(ana)`` over included nodes.  Pointwise relative
  error is meaningless for a digital payoff (the benchmark underflows toward
  zero in the deep tails while any finite-difference surface carries a
  roundoff floor), so nodes near the payoff discontinuity (a configurable
  Chebyshev band, a square-window dilation computed in numpy from running
  counts) and the Dirichlet ring are excluded and the remaining errors are
  scaled by the benchmark's peak.
* :func:`dt_sensitivity_sweep` - re-solves the nonlinear problem across a
  range of rebalancing intervals and samples price and source term at probe
  spots.
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
from .market_model import Scenario, SolverFlags, ValidationError

__all__ = [
    "pnorm_distance",
    "ErrorReport",
    "compared_nodes",
    "error_vs_analytic",
    "DtSweepRow",
    "DtSweepResult",
    "dt_sensitivity_sweep",
    "PerronBound",
    "perron_bound",
]


def pnorm_distance(u: np.ndarray, v: np.ndarray, p="inf", entrywise: bool = False) -> float:
    """Distance between two surfaces in an induced (default) or entrywise norm.

    ``p`` is 1, 2 or "inf".  Induced norms: max column sum, spectral norm,
    max row sum.  Entrywise: sum of |.|, Frobenius, max of |.|.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 2:
        raise ValidationError("u", f"need two equal-shape 2-D arrays, got {u.shape} and {v.shape}")
    key = str(p)
    if key not in ("1", "2", "inf"):
        raise ValidationError("p", f"expected 1, 2 or 'inf', got {p!r}")
    d = u - v
    if entrywise:
        if key == "1":
            return float(np.abs(d).sum())
        if key == "2":
            return float(np.linalg.norm(d, "fro"))
        return float(np.abs(d).max()) if d.size else 0.0
    ord_map = {"1": 1, "2": 2, "inf": np.inf}
    return float(np.linalg.norm(d, ord_map[key]))


# ---------------------------------------------------------------------------
# benchmark error
# ---------------------------------------------------------------------------


def _dilate(mask: np.ndarray, times: int) -> np.ndarray:
    """Chebyshev (8-neighborhood) dilation of a boolean mask, ``times`` steps.

    One square window of half-width ``times``, taken one axis at a time: a
    node is set when the running count of set nodes rises across the window
    around it.  Past the mask's own size more steps change nothing, so the
    window is capped there.
    """
    out = np.asarray(mask, dtype=bool)
    for axis in range(out.ndim):
        lines = np.moveaxis(out, axis, 0)
        n = lines.shape[0]
        counts = np.zeros((n + 1,) + lines.shape[1:], dtype=np.intp)
        np.cumsum(lines, axis=0, out=counts[1:])
        reach = min(times, n)
        node = np.arange(n)
        hi = np.minimum(node + reach + 1, n)
        lo = np.maximum(node - reach, 0)
        out = np.moveaxis(counts[hi] > counts[lo], 0, axis)
    return out


def compared_nodes(scenario: Scenario, band: int = 2) -> np.ndarray:
    """Mask of the nodes :func:`error_vs_analytic` compares, shape (nx+1, nx+1).

    Excludes the Dirichlet boundary ring and every node within ``band``
    cells (Chebyshev distance) of the payoff discontinuity (nodes where the
    terminal indicator changes between neighbors).  The mask depends only on
    the grid, the payoff and ``band``, so ``band`` can be checked before any
    solve: a negative band, or one that leaves no node, raises
    :class:`ValidationError` naming ``band``.
    """
    if band < 0:
        raise ValidationError("band", f"exclusion band must be nonnegative, got {band}")
    s = scenario.grid.spot_axis()
    pay = scenario.payoff.value(s[:, None], s[None, :]) > 0.0
    pay = np.broadcast_to(pay, (s.size, s.size))
    edge = np.zeros_like(pay)
    edge[:-1, :] |= pay[:-1, :] != pay[1:, :]
    edge[1:, :] |= pay[:-1, :] != pay[1:, :]
    edge[:, :-1] |= pay[:, :-1] != pay[:, 1:]
    edge[:, 1:] |= pay[:, :-1] != pay[:, 1:]
    include = ~_dilate(edge, band)
    include[0, :] = include[-1, :] = False
    include[:, 0] = include[:, -1] = False
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
    surface,
    scenario: Scenario,
    *,
    band: int = 2,
    tau: float | None = None,
) -> ErrorReport:
    """Benchmark error of a surface at time-to-maturity tau (default T).

    The statistics cover the nodes of :func:`compared_nodes`.
    """
    u = np.asarray(getattr(surface, "values", surface), dtype=float)
    n = scenario.grid.nx
    if u.shape != (n + 1, n + 1):
        raise ValidationError("surface", f"expected shape ({n + 1}, {n + 1}), got {u.shape}")
    include = compared_nodes(scenario, band)
    tau = scenario.market.T if tau is None else float(tau)

    s = scenario.grid.spot_axis()
    ana = np.broadcast_to(cbest_price(s[:, None], s[None, :], tau, scenario), u.shape)
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


def dt_sensitivity_sweep(
    scenario: Scenario,
    dt_values,
    probes=None,
    *,
    flags: SolverFlags = SolverFlags(),
    **settings,
) -> DtSweepResult:
    """Solve the nonlinear problem for each rebalancing interval in dt_values.

    ``probes`` is a sequence of (S1, S2) spot pairs (default: the single
    at-the-threshold probe (X, X)); each is snapped to the nearest grid node.
    ``settings`` (``tol``, ``max_iter``) go to :func:`solve_nonlinear`, whose
    defaults hold for those not given; with the default ``max_iter`` of
    nt + 2 every solve converges.  A solve stopped short by an explicit
    ``max_iter`` is recorded with ``converged=False`` and the sweep continues.
    """
    dts = [float(d) for d in np.atleast_1d(dt_values)]
    if not dts:
        raise ValidationError("dt_values", "need at least one rebalancing interval")
    for d in dts:
        if not math.isfinite(d) or d <= 0.0:
            raise ValidationError("dt_values", f"rebalancing intervals must be positive, got {d}")
    if probes is None:
        probes = [(scenario.payoff.X, scenario.payoff.X)]

    grid = scenario.grid
    axis = grid.axis()
    nodes: list[tuple[int, int]] = []
    spots: list[tuple[float, float]] = []
    spot_axis = grid.spot_axis()
    for s1, s2 in probes:
        s1, s2 = float(s1), float(s2)
        if not (0.0 < s1 < math.inf and 0.0 < s2 < math.inf):
            raise ValidationError("probes", f"probe spots must be positive and finite, got ({s1}, {s2})")
        c1, c2 = (math.log(s1), math.log(s2)) if grid.coord == "log" else (s1, s2)
        i = int(np.clip(round((c1 - grid.a) / grid.dx), 0, grid.nx))
        j = int(np.clip(round((c2 - grid.a) / grid.dx), 0, grid.nx))
        nodes.append((i, j))
        spots.append((float(spot_axis[i]), float(spot_axis[j])))

    rows: list[DtSweepRow] = []
    for d in dts:
        scen_d = scenario.with_dt(d)
        result: SolveResult = solve_nonlinear(scen_d, flags=flags, **settings)
        g = assemble_G(result.surface.values, scen_d, flags=flags)
        rows.append(
            DtSweepRow(
                dt=d,
                converged=result.converged,
                iterations=result.iterations,
                prices=tuple(float(result.surface.values[i, j]) for i, j in nodes),
                g_values=tuple(float(g[i, j]) for i, j in nodes),
            )
        )
    return DtSweepResult(rows=tuple(rows), probe_nodes=tuple(nodes), probe_spots=tuple(spots))


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


def perron_bound(
    scenario: Scenario,
    *,
    tau: float | None = None,
    flags: SolverFlags = SolverFlags(),
) -> PerronBound:
    """Largest |G| on the closed-form surface at time-to-maturity tau.

    The benchmark surface is sampled on the scenario grid, its Hessian taken
    with the scheme's own stencils (``flags``), and the cost term assembled
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
    g = assemble_G(ana, scenario, flags=flags)
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
