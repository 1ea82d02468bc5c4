"""Diagnostics tests: the spectral norm, benchmark-error reports, rebalancing
sweeps, and the source-term bound on the closed-form surface."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nlbs import (
    BestCashOrNothing,
    ConstantCost,
    ExponentialCost,
    GridSpec,
    ValidationError,
    assemble_G,
    cbest_price,
    dt_sensitivity_sweep,
    error_vs_analytic,
    perron_bound,
    scan_surface,
    solve_nonlinear,
)

from nlbs.adi_solver import _spectral_norm
from nlbs import diagnostics
from nlbs.diagnostics import compared_nodes, probe_nodes

import oracles
from conftest import benchmark_scenario, with_stencil


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_spectral_norm_matches_the_svd_on_random_and_rank_deficient_matrices():
    """The eigenvalue route behind the convergence records' spectral norm,
    against np.linalg.norm(., 2) (an SVD)."""
    rng = np.random.default_rng(33)
    mats = [rng.normal(size=shape) for shape in [(101, 101), (40, 25), (25, 40), (1, 7)]]
    for rank in (1, 2, 5):
        mats.append(rng.normal(size=(60, rank)) @ rng.normal(size=(rank, 60)))
    with_zero_rows = rng.normal(size=(30, 30))
    with_zero_rows[::3] = 0.0
    mats += [with_zero_rows, 1e-9 * mats[0], np.outer(np.ones(20), np.arange(20.0))]
    for d in mats:
        ref = np.linalg.norm(d, 2)
        assert abs(_spectral_norm(d) - ref) <= 1e-13 * ref
    assert _spectral_norm(np.zeros((101, 101))) == 0.0
    assert math.isnan(_spectral_norm(np.full((3, 3), np.inf)))


# ---------------------------------------------------------------------------
# benchmark error report
# ---------------------------------------------------------------------------


def analytic_surface(scen, tau):
    s = scen.grid.spot_axis()
    return np.broadcast_to(
        cbest_price(s[:, None], s[None, :], tau, scen), (scen.grid.nx + 1,) * 2
    ).copy()


def test_error_report_on_the_exact_surface_is_zero():
    scen = benchmark_scenario(1, nx=30, nt=4)
    u = analytic_surface(scen, 1.0)
    rep = error_vs_analytic(u, scen)
    assert rep.max_rel <= 1e-14
    assert rep.mean_abs <= 1e-14
    assert rep.n_included > 0
    assert rep.peak_analytic == pytest.approx(u.max(), rel=1e-6)


def test_error_report_zero_surface_normalizes_to_one():
    scen = benchmark_scenario(1, nx=30, nt=4)
    rep = error_vs_analytic(np.zeros((31, 31)), scen)
    assert rep.max_rel == pytest.approx(1.0, abs=1e-15)


def test_error_report_band_controls_inclusion():
    scen = benchmark_scenario(1, nx=30, nt=4)
    u = analytic_surface(scen, 1.0)
    n0 = error_vs_analytic(u, scen, band=0).n_included
    n2 = error_vs_analytic(u, scen, band=2).n_included
    n5 = error_vs_analytic(u, scen, band=5).n_included
    assert n0 > n2 > n5 > 0
    with pytest.raises(ValidationError, match="band"):
        error_vs_analytic(u, scen, band=200)
    # one filter window, capped at the grid (stepwise growth took 25 s at 9 x 9)
    with pytest.raises(ValidationError, match="band"):
        error_vs_analytic(u, scen, band=1_000_000)
    with pytest.raises(ValidationError, match="band"):
        error_vs_analytic(u, scen, band=-1)
    # a band is a count of cells, parsed as the containers parse integers
    for bad in (1.5, True, "2", None):
        with pytest.raises(ValidationError, match="band"):
            compared_nodes(scen, band=bad)
    assert np.array_equal(compared_nodes(scen, band=2.0), compared_nodes(scen, band=2))


def neighbor_changes(scen):
    """Nodes where the terminal indicator differs from a horizontal or vertical neighbor."""
    s = scen.grid.spot_axis()
    pay = np.broadcast_to(scen.payoff.value(s[:, None], s[None, :]) > 0.0, (s.size, s.size))
    edge = np.zeros_like(pay)
    edge[:-1, :] |= pay[:-1, :] != pay[1:, :]
    edge[1:, :] |= pay[:-1, :] != pay[1:, :]
    edge[:, :-1] |= pay[:, :-1] != pay[:, 1:]
    edge[:, 1:] |= pay[:, :-1] != pay[:, 1:]
    return edge


@pytest.mark.parametrize("nx", [5, 12])
@pytest.mark.parametrize("coord", ["log", "price"])
def test_compared_nodes_match_the_dilated_neighbor_changes(coord, nx):
    """The closed-form mask is the generic route's: the neighbor changes of
    the terminal indicator dilated by the step loop, less the ring.  X lies
    below the grid, on its end nodes, on an interior node spot, inside a
    cell and above the grid; a band that leaves no node raises."""
    scen = benchmark_scenario(1, nx=nx, nt=4)
    if coord == "price":
        scen = scen.with_grid(GridSpec(a=10.0, b=60.0, nx=nx, nt=4, coord="price"))
    s = scen.grid.spot_axis()
    empty = 0
    for x in (s[0] / 2, s[0], s[1], s[nx // 2], (s[2] + s[3]) / 2, s[-1], 2 * s[-1]):
        scen_x = replace(scen, payoff=BestCashOrNothing(K=5.0, X=float(x)))
        edge = neighbor_changes(scen_x)
        for band in list(range(nx + 2)) + [200]:
            expected = ~oracles.dilate_loop(edge, band)
            expected[[0, -1], :] = expected[:, [0, -1]] = False
            if expected.any():
                assert np.array_equal(compared_nodes(scen_x, band), expected), (x, band)
            else:
                with pytest.raises(ValidationError, match="band"):
                    compared_nodes(scen_x, band)
                empty += 1
    assert empty > 0


def test_error_report_ignores_errors_inside_the_excluded_band():
    scen = benchmark_scenario(1, nx=30, nt=4)
    u = analytic_surface(scen, 1.0)
    clean = error_vs_analytic(u, scen, band=2)
    # the node nearest the threshold in both coordinates sits on the payoff
    # edge; corrupting it must not change the report
    center = int(round((math.log(scen.payoff.X) - scen.grid.a) / scen.grid.dx))
    u_dirty = u.copy()
    u_dirty[center, center] += 123.0
    rep = error_vs_analytic(u_dirty, scen, band=2)
    assert rep.max_rel == clean.max_rel
    # a far-field corruption is visible
    u_dirty[4, 4] += 1.0
    rep2 = error_vs_analytic(u_dirty, scen, band=2)
    assert rep2.max_rel >= 1.0 / rep2.peak_analytic * 0.99


def test_error_report_checks_shape():
    scen = benchmark_scenario(1, nx=20, nt=4)
    u = analytic_surface(scen, 1.0)
    with pytest.raises(ValidationError, match="surface"):
        error_vs_analytic(u[:-1], scen)


# ---------------------------------------------------------------------------
# rebalancing-interval sweep
# ---------------------------------------------------------------------------


def test_dt_sweep_probe_snapping_and_row_layout():
    scen = benchmark_scenario(1, nx=10, nt=4)
    res = dt_sensitivity_sweep(scen, [0.01, 0.001], tol=1e-4)
    # default probe is the threshold corner, dead center of the default grid
    assert res.probe_nodes == ((5, 5),)
    s_node = scen.grid.spot_axis()[5]
    assert res.probe_spots == ((s_node, s_node),)
    assert [row.dt for row in res.rows] == [0.01, 0.001]
    for row in res.rows:
        assert len(row.prices) == 1 and len(row.g_values) == 1
        assert row.g_values[0] > 0.0


def test_dt_sweep_multiple_probes():
    scen = benchmark_scenario(1, nx=10, nt=4)
    res = dt_sensitivity_sweep(scen, [0.005], probes=[(30.0, 30.0), (10.0, 55.0)], tol=1e-4)
    assert len(res.probe_nodes) == 2
    assert len(res.rows[0].prices) == 2
    # snapping reports the actual grid spots
    for (i, j), (s1, s2) in zip(res.probe_nodes, res.probe_spots):
        spot = scen.grid.spot_axis()
        assert (spot[i], spot[j]) == (s1, s2)


def test_dt_sweep_zero_cost_rows():
    scen = benchmark_scenario(1, nx=10, nt=4).with_cost(ConstantCost(c0=0.0))
    res = dt_sensitivity_sweep(scen, [0.01, 0.0001])
    for row in res.rows:
        assert row.converged and row.iterations == 1
        assert row.g_values == (0.0,)


def test_dt_sweep_records_failures_quietly():
    scen = benchmark_scenario(1, nx=12, nt=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any escaped warning fails the test
        res = dt_sensitivity_sweep(scen, [0.004], tol=1e-14, max_iter=1)
    assert res.rows[0].converged is False
    assert res.rows[0].iterations == 1
    assert math.isfinite(res.rows[0].prices[0])


def test_dt_sweep_validation():
    scen = benchmark_scenario(1, nx=10, nt=4)
    with pytest.raises(ValidationError, match="dt_values"):
        dt_sensitivity_sweep(scen, [])
    with pytest.raises(ValidationError, match="dt_values"):
        dt_sensitivity_sweep(scen, [0.01, -0.01])
    with pytest.raises(ValidationError, match="probes"):
        dt_sensitivity_sweep(scen, [0.01], probes=[(0.0, 30.0)])
    with pytest.raises(ValidationError, match="probes"):
        dt_sensitivity_sweep(scen, [0.01], probes=[(30.0, math.nan)])
    # intervals are finite numbers, parsed as the containers parse them
    for bad in (True, "0.5", [True], ["0.004"], [[0.01]], None, math.nan, [math.inf], [0.004, math.nan]):
        with pytest.raises(ValidationError, match="dt_values"):
            dt_sensitivity_sweep(scen, bad)


@pytest.mark.parametrize("probe", [(1e6, 30.0), "below S_max"])
def test_dt_sweep_rejects_a_probe_on_the_dirichlet_ring(monkeypatch, probe):
    """The source is never evaluated on the ring, so a probe that snaps there
    is an error, found before any solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(diagnostics, "solve_nonlinear", no_solve)
    scen = benchmark_scenario(1, nx=20, nt=4)
    if probe == "below S_max":
        probe = (0.99 * scen.grid.spot_axis()[-1], 30.0)
    with pytest.raises(ValidationError, match="probes: .* snaps to the Dirichlet ring"):
        dt_sensitivity_sweep(scen, [0.01], probes=[(30.0, 30.0), probe])
    # the nearest interior nodes are accepted
    assert probe_nodes(scen, [(scen.grid.spot_axis()[19], 30.0)]) == [(19, 10)]


def test_dt_sweep_source_uses_the_grid_stencil():
    """A sweep row's G at its probe is the cost term of that row's solve,
    assembled with the stencil the solve used: the grid's."""
    scen = with_stencil(benchmark_scenario(1, nx=16, nt=16), "central")
    res = dt_sensitivity_sweep(scen, [scen.dt_tc, 0.004])
    ((i, j),) = res.probe_nodes
    for row in res.rows:
        scen_d = scen.with_dt(row.dt)
        assert row.g_values == (assemble_G(solve_nonlinear(scen_d).surface.values, scen_d)[i, j],)


def test_every_surface_routine_reads_the_stencil_from_the_grid():
    """The cost term, the scan and the source bound difference a surface
    with its grid's stencil, so forward and central grids give different numbers."""
    forward = benchmark_scenario(1, nx=16, nt=16)
    central = with_stencil(forward, "central")
    u = solve_nonlinear(central).surface.values
    assert not np.array_equal(assemble_G(u, forward), assemble_G(u, central))
    eig_f, eig_c = (scan_surface(u, scen).eigenvalues for scen in (forward, central))
    assert not np.allclose(eig_f, eig_c, equal_nan=True)
    assert perron_bound(forward).value != perron_bound(central).value


# ---------------------------------------------------------------------------
# source-term bound on the benchmark surface
# ---------------------------------------------------------------------------


def test_perron_bound_zero_cost_is_exactly_zero():
    scen = benchmark_scenario(1).with_cost(ConstantCost(c0=0.0))
    bound = perron_bound(scen)
    assert bound.value == 0.0
    assert bound.tau == 1.0


def test_perron_bound_pinned_value_and_linearity():
    scen = benchmark_scenario(1)
    b_hi = perron_bound(scen.with_cost(ConstantCost(c0=0.01)))
    b_lo = perron_bound(scen.with_cost(ConstantCost(c0=0.005)))
    assert b_hi.value == pytest.approx(1.087220760007995, rel=1e-12)
    assert b_hi.value == pytest.approx(2.0 * b_lo.value, rel=1e-10)
    assert b_hi.node == b_lo.node


def test_perron_bound_peaks_near_the_threshold():
    scen = benchmark_scenario(1).with_cost(ConstantCost(c0=0.005))
    bound = perron_bound(scen)
    center = int(round((math.log(scen.payoff.X) - scen.grid.a) / scen.grid.dx))
    i, j = bound.node
    # the cost term concentrates along the payoff edge {S1 = X} u {S2 = X}
    assert min(abs(i - center), abs(j - center)) <= 3
    s = scen.grid.spot_axis()
    assert bound.spots == (s[i], s[j])


def test_perron_bound_exponential_scales_linearly_in_level():
    scen = benchmark_scenario(1)
    b1 = perron_bound(scen.with_cost(ExponentialCost(c0=0.005, k=1.0)))
    b2 = perron_bound(scen.with_cost(ExponentialCost(c0=0.010, k=1.0)))
    assert b2.value == pytest.approx(2.0 * b1.value, rel=1e-10)
    # decay can only lower the bound relative to the constant model
    bc = perron_bound(scen.with_cost(ConstantCost(c0=0.005)))
    assert b1.value <= bc.value + 1e-15


def test_perron_bound_needs_positive_tau():
    scen = benchmark_scenario(1)
    with pytest.raises(ValidationError, match="tau"):
        perron_bound(scen, tau=0.0)
    with pytest.raises(ValidationError, match="tau"):
        perron_bound(scen, tau=-1.0)


def test_perron_bound_grows_toward_expiry():
    """The benchmark surface steepens as tau shrinks, so the bound blows up."""
    scen = benchmark_scenario(1, nx=40, nt=4).with_cost(ConstantCost(c0=0.005))
    values = [perron_bound(scen, tau=t).value for t in (1.0, 0.25, 0.05)]
    assert values[0] < values[1] < values[2]
