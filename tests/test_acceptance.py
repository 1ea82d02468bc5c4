"""Acceptance suite: ten numbered criteria, one printed PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they are
produced (without ``-s`` pytest shows them only for failing criteria).

Two criteria fail by design of the current scheme and are asserted honestly
rather than loosened:

* criterion 5 - the fixed-point residuals decrease strictly but do not reach
  the stated absolute levels at the stated iteration counts on the default
  101x101x100 discretization; the printed line carries the measured values.
* criterion 7 - the converged cost field peaks a few cells inside the
  in-the-money diagonal rather than on the at-the-money node itself; the
  corner condition passes, the argmax condition does not.

Everything here runs on the shipped benchmark configs (configs/testing1..3)
and the oracle helpers in tests/oracles.py.  Budget a few minutes: the slow
pieces are three converged solves shared through a session fixture, a
10^7-sample Monte Carlo check, and a 100-point rebalancing sweep.  Every
test here carries the ``slow`` marker, so ``pytest -m "not slow"`` runs the
module tests alone.
"""

import math
import time

import numpy as np
import pytest

from nlbs import (
    BestCashOrNothing,
    BoundaryData,
    ConstantCost,
    DyfInputs,
    ExponentialCost,
    GridSpec,
    MarketParams,
    Scenario,
    assemble_G,
    bivariate_cdf,
    dt_sensitivity_sweep,
    dyf_matrix,
    error_vs_analytic,
    expected_cost,
    leland_number,
    perron_bound,
    solve_nonlinear,
)
from nlbs.adi_solver import _StageOperator, _tridiag_solve

import oracles
from conftest import benchmark_scenario

pytestmark = pytest.mark.slow


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def converged_runs():
    """Fully converged solves of the three benchmark configs (default grids).

    Benchmark 1 needs 32 fixed-point sweeps at tol 1e-6, within the default
    cap of nt + 2 = 102; the records themselves are what criteria 5 and 7
    inspect.
    """
    runs = {}
    for n in (1, 2, 3):
        scen = benchmark_scenario(n)
        runs[n] = (scen, solve_nonlinear(scen))
    return runs


# ---------------------------------------------------------------------------
# criterion 1: frictionless solve against the closed form
# ---------------------------------------------------------------------------


def test_criterion_01_zero_cost_benchmark():
    scen = benchmark_scenario(1).with_cost(ConstantCost(c0=0.0))
    t0 = time.perf_counter()
    res = solve_nonlinear(scen)
    elapsed = time.perf_counter() - t0
    rep = error_vs_analytic(res.surface.values, scen, band=2)

    fine = benchmark_scenario(1, nx=200, nt=200).with_cost(ConstantCost(c0=0.0))
    rep_fine = error_vs_analytic(solve_nonlinear(fine).surface.values, fine, band=2)

    ok = rep.max_rel <= 0.05 and rep_fine.max_rel < rep.max_rel and elapsed <= 60.0
    _report(
        1,
        ok,
        f"zero-cost error {rep.max_rel:.4%} (gate 5%), halved steps {rep_fine.max_rel:.4%}, "
        f"solve {elapsed:.1f}s (gate 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: expected-cost closed form vs quadrature and Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_02_expected_cost_closed_form():
    rng = np.random.default_rng(20_260_815)
    draws = np.abs(rng.standard_normal(10_000_000))  # common random numbers
    worst_quad = worst_mc = 0.0
    for _ in range(100):
        c0 = rng.uniform(1e-4, 0.05)
        k = rng.uniform(0.05, 5.0)
        theta = rng.uniform(0.01, 4.0)
        dt = rng.uniform(1e-4, 0.01)
        cost = ExponentialCost(c0=c0, k=k)
        ours = expected_cost(cost, theta, dt)
        quad = oracles.expected_cost_quad(cost.value, theta, dt)
        mc = oracles.expected_cost_mc(cost.value, theta, dt, draws)
        worst_quad = max(worst_quad, abs(ours - quad) / abs(quad))
        worst_mc = max(worst_mc, abs(ours - mc) / abs(mc))

    worst_k0 = 0.0
    for _ in range(20):
        c0 = rng.uniform(1e-4, 0.05)
        theta = rng.uniform(0.01, 4.0)
        dt = rng.uniform(1e-4, 0.01)
        ours = expected_cost(ExponentialCost(c0=c0, k=0.0), theta, dt)
        ref = c0 * math.sqrt(2.0 * theta / math.pi)
        worst_k0 = max(worst_k0, abs(ours - ref) / ref)

    ok = worst_quad <= 1e-8 and worst_mc <= 1e-2 and worst_k0 <= 1e-12
    _report(
        2,
        ok,
        f"vs quadrature {worst_quad:.2e} (gate 1e-8), vs 1e7-sample MC {worst_mc:.2e} "
        f"(gate 1e-2), k=0 degeneration {worst_k0:.2e} (gate 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 3: operator derivative vs entrywise finite differences
# ---------------------------------------------------------------------------


def test_criterion_03_operator_derivative_matches_finite_differences():
    rng = np.random.default_rng(303)
    worst_exact = worst_agg = 0.0
    for _ in range(50):
        market = MarketParams(
            sigmas=tuple(rng.uniform(0.1, 0.5, size=2)),
            rho=rng.uniform(-0.8, 0.8),
            r=0.05,
            T=1.0,
        )
        spots = rng.uniform(5.0, 50.0, size=2)
        b = rng.normal(0.0, 0.5, size=(2, 2))
        b = (b + b.T) / 2.0 + 1.5 * np.eye(2)
        dt = rng.uniform(5e-4, 0.01)
        c0 = rng.uniform(1e-3, 0.02)
        inputs = DyfInputs(hessian=b, spots=spots, market=market, dt=dt, cost=ConstantCost(c0=c0))
        ref = oracles.fd_hessian_derivative(
            b,
            spots,
            market.sigmas,
            np.asarray(market.rho),
            lambda x: np.full_like(np.asarray(x, dtype=float), c0),
            dt,
        )
        scale = np.abs(ref).max()
        worst_exact = max(worst_exact, np.abs(dyf_matrix(inputs) - ref).max() / scale)
        worst_agg = max(worst_agg, np.abs(oracles.dyf_aggregate(inputs) - ref).max() / scale)

    # The aggregate variant applies the summed sensitivities to the whole
    # anticommutator; its gap against finite differences is reported here on
    # purpose instead of being hidden by a looser tolerance.
    ok = worst_exact <= 1e-5 and worst_agg > 1e-5
    _report(
        3,
        ok,
        f"exact form {worst_exact:.2e} (gate 1e-5); aggregate form deviates by "
        f"{worst_agg:.2e} - documented row-structure deviation, kept visible",
    )


# ---------------------------------------------------------------------------
# criterion 4: one-asset reduction reproduces the classical classification
# ---------------------------------------------------------------------------


def test_criterion_04_single_asset_sign_matches_leland_classification():
    rng = np.random.default_rng(404)
    disagreements = 0
    n_well = n_ill = 0
    for _ in range(1000):
        sigma = rng.uniform(0.05, 0.6)
        c0 = rng.uniform(1e-4, 0.05)
        dt = rng.uniform(1e-4, 0.02)
        v = rng.uniform(0.01, 5.0)
        s = rng.uniform(1.0, 100.0)
        market = MarketParams(sigmas=(sigma,), rho=[[1.0]], r=0.03, T=1.0)
        inputs = DyfInputs(
            hessian=np.array([[v]]),
            spots=np.array([s]),
            market=market,
            dt=dt,
            cost=ConstantCost(c0=c0),
        )
        d = dyf_matrix(inputs)[0, 0]
        le = leland_number(sigma, 2.0 * c0, dt)
        n_well += le.well_posed
        n_ill += not le.well_posed
        disagreements += (d < 0.0) != le.well_posed
    ok = disagreements == 0 and n_well > 100 and n_ill > 100
    _report(
        4,
        ok,
        f"{disagreements} sign disagreements in 1000 draws "
        f"({n_well} well-posed, {n_ill} ill-posed)",
    )


# ---------------------------------------------------------------------------
# criterion 5: fixed-point residual histories on the three benchmarks
# ---------------------------------------------------------------------------


def test_criterion_05_fixed_point_residual_gates(converged_runs):
    decreasing = True
    for n in (1, 2, 3):
        recs = [r for r in converged_runs[n][1].records if r.n >= 3]
        for norm in ("d1", "d2", "dinf"):
            seq = [getattr(r, norm) for r in recs]
            decreasing &= all(a > b for a, b in zip(seq, seq[1:]))

    dinf = {n: {r.n: r.dinf for r in converged_runs[n][1].records} for n in (1, 2, 3)}
    g1 = dinf[1].get(10, math.inf)
    g2 = dinf[2].get(2, math.inf)
    g3 = dinf[3].get(5, math.inf)
    gates_ok = g1 < 1e-4 and g2 < 1e-4 and g3 < 1e-3

    ok = decreasing and gates_ok
    _report(
        5,
        ok,
        f"residuals strictly decreasing from sweep 3: {decreasing}; absolute gates "
        f"bench1 n=10 {g1:.2e} (gate 1e-4), bench2 n=2 {g2:.2e} (gate 1e-4), "
        f"bench3 n=5 {g3:.2e} (gate 1e-3) - levels not reached on this "
        f"discretization, kept as an honest failure",
    )


# ---------------------------------------------------------------------------
# criterion 6: cost term vs rebalancing interval
# ---------------------------------------------------------------------------


def test_criterion_06_rebalancing_interval_sweep():
    scen = benchmark_scenario(1).with_grid(GridSpec(a=1.0, b=81.0, nx=40, nt=40, coord="price"))
    dts = np.logspace(math.log10(7.6e-5), math.log10(0.007), 100)
    # the lagged source iteration stops exactly by nt + 2 sweeps, the default
    # cap, so the smallest intervals settle too
    res = dt_sensitivity_sweep(scen, dts.tolist())
    g = [row.g_values[0] for row in res.rows]
    strictly_decreasing = all(a > b for a, b in zip(g, g[1:]))
    ratio = g[0] / g[-1]
    ok = strictly_decreasing and ratio >= 5.0
    _report(
        6,
        ok,
        f"at-the-money cost term falls monotonically over 100 intervals: "
        f"{strictly_decreasing}; smallest/largest-interval ratio {ratio:.1f} (gate 5)",
    )


# ---------------------------------------------------------------------------
# criterion 7: geometry of the converged cost field
# ---------------------------------------------------------------------------


def test_criterion_07_cost_field_geometry(converged_runs):
    scen, res = converged_runs[1]
    g = assemble_G(res.surface.values, scen)
    grid = scen.grid
    wi, wj = np.unravel_index(int(np.argmax(g)), g.shape)
    center = round((math.log(scen.payoff.X) - grid.a) / grid.dx)
    cheb = max(abs(wi - center), abs(wj - center))
    corners = max(g[0, 0], g[0, -1], g[-1, 0], g[-1, -1])
    corners_ok = corners <= 0.01 * g.max()
    ok = cheb <= 3 and corners_ok
    s = grid.spot_axis()
    _report(
        7,
        ok,
        f"cost field peaks at node ({wi},{wj}) = spots ({s[wi]:.1f},{s[wj]:.1f}), "
        f"{cheb} cells from the at-the-money node (gate 3) - peak sits inside the "
        f"in-the-money diagonal, kept as an honest failure; corner level "
        f"{corners / g.max():.1e} of max (gate 1e-2): {corners_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 8: linear-algebra building blocks vs dense oracles
# ---------------------------------------------------------------------------


def test_criterion_08_linear_algebra_oracles():
    rng = np.random.default_rng(808)

    worst_tri = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 60))  # grid lines have at least 3 interior nodes
        lower = rng.normal(size=n - 1)
        upper = rng.normal(size=n - 1)
        diag = np.abs(rng.normal(size=n)) + np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0]) + 1.0
        rhs = rng.normal(size=(n, 1))
        ref = oracles.dense_tridiagonal_solve(lower, diag, upper, rhs)  # before rhs is solved in place
        x = _tridiag_solve(lower, diag, upper, rhs)
        worst_tri = max(worst_tri, np.abs(x - ref).max())

    worst_bvn = 0.0
    for _ in range(1000):
        h, k = rng.uniform(-4.0, 4.0, size=2)
        corr = rng.uniform(-0.99, 0.99)
        worst_bvn = max(worst_bvn, abs(bivariate_cdf(h, k, corr) - oracles.bvn_dblquad(h, k, corr)))

    scen = benchmark_scenario(1, nx=20, nt=10)
    grid = scen.grid
    dtau = scen.market.T / grid.nt
    worst_stage = 0.0
    boundary = BoundaryData(scen)
    for axis in (0, 1):
        op = _StageOperator(scen, boundary, axis, np.empty((2, 19, 19)))
        for _ in range(5):
            u = rng.normal(size=(21, 21))
            ring = rng.normal(size=(21, 21))
            g = np.zeros((21, 21))
            g[1:-1, 1:-1] = rng.normal(size=(19, 19))
            ours = op.apply(u, (ring[:, [0, -1]], ring[[0, -1], :].T), g, out=np.empty((21, 21)))
            ref = oracles.dense_half_step(
                u, ring, axis, scen.market.sigmas, float(scen.market.rho[0, 1]),
                scen.market.r, grid.a, grid.b, "log", dtau, g=g,
            )
            worst_stage = max(worst_stage, np.abs(ours - ref).max())

    ok = worst_tri <= 1e-10 and worst_bvn <= 1e-7 and worst_stage <= 1e-10
    _report(
        8,
        ok,
        f"tridiagonal vs dense {worst_tri:.2e} (gate 1e-10), joint normal CDF vs "
        f"quadrature {worst_bvn:.2e} (gate 1e-7), half-steps vs dense operator "
        f"{worst_stage:.2e} (gate 1e-10)",
    )


# ---------------------------------------------------------------------------
# criterion 9: pure-discount identity of the time stepping
# ---------------------------------------------------------------------------


def test_criterion_09_discount_identity():
    worst = 0.0
    for n in (1, 2, 3):
        base = benchmark_scenario(n)
        grid = base.grid
        flat_payoff = BestCashOrNothing(K=base.payoff.K, X=0.5 * math.exp(grid.a))
        scen = Scenario(
            market=base.market,
            cost=ConstantCost(c0=0.0),
            payoff=flat_payoff,
            dt_tc=base.dt_tc,
            grid=grid,
        )
        res = solve_nonlinear(scen)
        dtau = base.market.T / grid.nt
        target = base.payoff.K / (1.0 + 0.5 * base.market.r * dtau) ** (2 * grid.nt)
        worst = max(worst, np.abs(res.surface.values - target).max() / target)
    ok = worst <= 1e-12
    _report(
        9,
        ok,
        f"constant payoff reproduces the per-half-step discount on all three "
        f"benchmarks to {worst:.2e} (gate 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 10: source-term bound on the closed-form surface
# ---------------------------------------------------------------------------


def test_criterion_10_source_term_bound():
    scen = benchmark_scenario(1)
    zero = perron_bound(scen.with_cost(ConstantCost(c0=0.0)))
    zero_ok = zero.value == 0.0

    levels = np.linspace(0.001, 0.01, 10)
    bounds = [perron_bound(scen.with_cost(ConstantCost(c0=float(c)))) for c in levels]
    slopes = np.array([b.value for b in bounds]) / levels
    lin_err = np.abs(slopes / slopes[0] - 1.0).max()
    lin_ok = lin_err <= 1e-10

    center = round((math.log(scen.payoff.X) - scen.grid.a) / scen.grid.dx)
    i, j = bounds[0].node
    dist = min(abs(i - center), abs(j - center))
    near_ok = dist <= 3

    ok = zero_ok and lin_ok and near_ok
    _report(
        10,
        ok,
        f"zero cost gives exactly {zero.value}; linearity in the cost level to "
        f"{lin_err:.2e} (gate 1e-10); peak {dist} cells off the threshold locus (gate 3)",
    )
