"""Well-posedness diagnostics: the matrix derivative of the nonlinear
operator against finite differences of the operator itself, the classical
single-asset threshold, and whole-surface scans."""

import math

import numpy as np
import pytest

from nlbs import (
    ConstantCost,
    CostDerivativeError,
    DegenerateThetaError,
    DyfInputs,
    ExponentialCost,
    GridSpec,
    MarketParams,
    SampledCost,
    ValidationError,
    cbest_price,
    cost_integrals,
    dyf_matrix,
    leland_number,
    scan_surface,
)
from nlbs import ellipticity
from nlbs.cost_engine import _EXPONENTIAL_CLOSED_FORM_MAX_A as CLOSED_FORM_MAX_A
from nlbs.cost_engine import _grid_theta

import oracles
from conftest import benchmark_scenario


# ---------------------------------------------------------------------------
# classical single-asset threshold
# ---------------------------------------------------------------------------


def test_leland_number_pinned_example():
    le = leland_number(0.30, 0.005, 1.0 / 261.0)
    assert le.value == pytest.approx(0.21483699284957808, abs=1e-16)
    assert le.well_posed

    hot = leland_number(0.30, 0.05, 1.0 / 261.0)
    assert hot.value > 2.0 and not hot.well_posed


def test_leland_number_scaling():
    base = leland_number(0.2, 0.01, 0.004).value
    assert leland_number(0.2, 0.02, 0.004).value == pytest.approx(2.0 * base)
    assert leland_number(0.4, 0.01, 0.004).value == pytest.approx(base / 2.0)
    assert leland_number(0.2, 0.01, 0.016).value == pytest.approx(base / 2.0)


def test_leland_number_validation():
    with pytest.raises(ValidationError, match="sigma"):
        leland_number(0.0, 0.01, 0.004)
    with pytest.raises(ValidationError, match="c0"):
        leland_number(0.2, -0.01, 0.004)
    with pytest.raises(ValidationError, match="dt"):
        leland_number(0.2, 0.01, -0.004)


# ---------------------------------------------------------------------------
# sensitivity integrals
# ---------------------------------------------------------------------------


def test_cost_integrals_constant_closed_form():
    for h in [0.0, 0.1, 3.0]:
        i1, i2 = cost_integrals(ConstantCost(c0=0.012), h)
        assert i1 == 0.006 and i2 == 0.0


def check_exponential_integrals(a, rel, c0=0.005, k=1.3):
    i1, i2 = cost_integrals(ExponentialCost(c0=c0, k=k), a / k)
    ref1, ref2 = oracles.cost_integrals_mp(c0, k, a / k)
    assert i1 == pytest.approx(ref1, rel=rel), a
    assert i2 == pytest.approx(ref2, rel=rel), a


def test_cost_integrals_exponential_at_zero_scale():
    """a = k h = 0: I1 = c0/2 and I2 = -k c0 sqrt(pi)/4."""
    c0, k = 0.005, 1.3
    i1, i2 = cost_integrals(ExponentialCost(c0=c0, k=k), 0.0)
    assert i1 == c0 / 2.0
    assert i2 == pytest.approx(-k * c0 * math.sqrt(math.pi) / 4.0, rel=1e-15)


def test_cost_integrals_exponential_closed_form():
    """The closed forms against 30-digit quadrature, from a = 1e-8 through
    the benchmark range (a <= 0.05) up to the cutoff a = 20."""
    rng = np.random.default_rng(606)
    workload = np.exp(rng.uniform(math.log(1e-8), math.log(0.05), size=10))
    upper = rng.uniform(0.05, CLOSED_FORM_MAX_A, size=10)
    for a in [1e-8, *workload, 0.05, *upper, CLOSED_FORM_MAX_A]:
        check_exponential_integrals(float(a), rel=1e-11)


def test_cost_integrals_exponential_series_past_the_cutoff():
    """The asymptotic series against 30-digit quadrature, log-spaced over a in [20, 1e5]."""
    for a in np.geomspace(math.nextafter(CLOSED_FORM_MAX_A, math.inf), 1e5, 25):
        check_exponential_integrals(float(a), rel=1e-14)


def test_cost_integrals_exponential_branches_agree_at_the_cutoff():
    cost = ExponentialCost(c0=0.005, k=1.0)
    closed = cost_integrals(cost, CLOSED_FORM_MAX_A)
    series = cost_integrals(cost, math.nextafter(CLOSED_FORM_MAX_A, math.inf))
    np.testing.assert_allclose(closed, series, rtol=1e-11)


def test_cost_integrals_sampled_requires_derivative_samples():
    no_dc = SampledCost(x=[0.0, 1.0], c=[0.01, 0.005], c_lower=0.0, c_upper=0.01)
    with pytest.raises(CostDerivativeError):
        cost_integrals(no_dc, 0.5)
    with_dc = SampledCost(
        x=[0.0, 10.0], c=[0.01, 0.01], c_lower=0.0, c_upper=0.01, dc=[0.0, 0.0]
    )
    i1, i2 = cost_integrals(with_dc, 0.5)
    assert i1 == pytest.approx(0.005, rel=1e-9)  # constant table
    assert i2 == pytest.approx(0.0, abs=1e-12)


def test_cost_integrals_validation():
    with pytest.raises(ValidationError, match="h"):
        cost_integrals(ConstantCost(c0=0.01), -1.0)


# ---------------------------------------------------------------------------
# matrix derivative at a point
# ---------------------------------------------------------------------------


def single_asset_inputs(sigma, c0, dt, v, s=20.0, r=0.05):
    market = MarketParams(sigmas=(sigma,), rho=[[1.0]], r=r, T=1.0)
    return DyfInputs(
        hessian=np.array([[v]]),
        spots=np.array([s]),
        market=market,
        dt=dt,
        cost=ConstantCost(c0=c0),
    )


def test_single_asset_sign_matches_leland_threshold():
    """For one asset under constant cost, the derivative changes sign exactly
    at Leland number 1 (round-trip cost = twice the per-trade level)."""
    rng = np.random.default_rng(365)
    flips = 0
    for _ in range(300):
        sigma = rng.uniform(0.05, 0.6)
        c0 = rng.uniform(0.0, 0.05)
        dt = rng.uniform(1e-5, 0.02)
        v = rng.uniform(1e-3, 5.0)
        d = dyf_matrix(single_asset_inputs(sigma, c0, dt, v))
        le = leland_number(sigma, 2.0 * c0, dt)
        assert (d[0, 0] < 0.0) == le.well_posed
        flips += not le.well_posed
    assert 0 < flips < 300  # both classes actually exercised


def test_single_asset_derivative_closed_form():
    """d = sigma^2 s^2 (Le - 1)/2 with the round-trip Leland number."""
    rng = np.random.default_rng(17)
    for _ in range(20):
        sigma = rng.uniform(0.1, 0.5)
        c0 = rng.uniform(0.0, 0.03)
        dt = rng.uniform(1e-4, 0.01)
        v = rng.uniform(0.01, 2.0)
        s = rng.uniform(5.0, 40.0)
        d = dyf_matrix(single_asset_inputs(sigma, c0, dt, v, s=s))
        le = leland_number(sigma, 2.0 * c0, dt).value
        assert d[0, 0] == pytest.approx(sigma**2 * s**2 * (le - 1.0) / 2.0, rel=1e-12)
        # the summed-sensitivity variant coincides for a single asset
        d_aggregate = oracles.dyf_aggregate(single_asset_inputs(sigma, c0, dt, v, s=s))
        np.testing.assert_allclose(d, d_aggregate, rtol=1e-14)


def well_conditioned_state(rng):
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
    return market, spots, b, dt, c0


def test_exact_form_matches_finite_differences():
    rng = np.random.default_rng(50_001)
    for _ in range(10):
        market, spots, b, dt, c0 = well_conditioned_state(rng)
        inputs = DyfInputs(hessian=b, spots=spots, market=market, dt=dt, cost=ConstantCost(c0=c0))
        d = dyf_matrix(inputs)
        ref = oracles.fd_hessian_derivative(
            b,
            spots,
            market.sigmas,
            np.asarray(market.rho),
            lambda x: np.full_like(np.asarray(x, dtype=float), c0),
            dt,
        )
        scale = np.abs(ref).max()
        assert np.abs(d - ref).max() <= 1e-5 * scale


def test_exact_form_matches_finite_differences_under_exponential_cost():
    """Criterion 3's 50 draws with C(x) = c0 e^{-kx}; k h spans both sides of
    the closed-form cutoff, so both branches of cost_integrals are checked."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        market, spots, b, dt, c0 = well_conditioned_state(rng)
        k = rng.uniform(0.1, 8.0)
        cost = ExponentialCost(c0=c0, k=k)
        inputs = DyfInputs(hessian=b, spots=spots, market=market, dt=dt, cost=cost)
        ref = oracles.fd_hessian_derivative(
            b,
            spots,
            market.sigmas,
            np.asarray(market.rho),
            lambda x, c0=c0, k=k: c0 * np.exp(-k * np.asarray(x, dtype=float)),
            dt,
        )
        worst = max(worst, np.abs(dyf_matrix(inputs) - ref).max() / np.abs(ref).max())
    assert worst <= 1e-5


@pytest.mark.parametrize("k", [1.0, 3000.0])
def test_scan_surface_exponential_matches_the_quadrature_path(monkeypatch, k):
    """The closed-form scan against the same scan with quadrature (I1, I2).

    Config 1 has k = 1; k = 3000 puts part of the surface past the cutoff."""
    scen = scan_scenario().with_cost(ExponentialCost(c0=0.005, k=k))
    u = analytic_surface(scen)
    rep = scan_surface(u, scen)
    monkeypatch.setattr(ellipticity, "cost_integrals", oracles.cost_integrals_quad)
    ref = scan_surface(u, scen)
    assert rep.n_checked == ref.n_checked > 0
    np.testing.assert_array_equal(np.isnan(rep.eigenvalues), np.isnan(ref.eigenvalues))
    tol = ellipticity.EIG_TOL
    np.testing.assert_array_equal(rep.eigenvalues <= tol, ref.eigenvalues <= tol)
    np.testing.assert_allclose(rep.eigenvalues, ref.eigenvalues, rtol=1e-10)
    assert (rep.satisfied, rep.worst_node) == (ref.satisfied, ref.worst_node)


def test_aggregate_form_divergence_is_systematic():
    """The summed-sensitivity variant deviates from the literal derivative
    whenever the per-asset sensitivities differ; the exact form does not."""
    rng = np.random.default_rng(7)
    market, spots, b, dt, c0 = well_conditioned_state(rng)
    spots = np.array([8.0, 45.0])  # force asymmetric sensitivities
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
    err_exact = np.abs(dyf_matrix(inputs) - ref).max() / scale
    err_agg = np.abs(oracles.dyf_aggregate(inputs) - ref).max() / scale
    assert err_exact < 1e-5
    assert err_agg > 10.0 * max(err_exact, 1e-9)


def test_aggregate_doubles_the_cost_part_in_symmetric_configurations():
    """With equal sensitivities the aggregate form applies g1 + g2 = 2g to
    the anticommutator where the literal derivative applies g once."""
    market = MarketParams(sigmas=(0.25, 0.25), rho=0.4, r=0.03, T=1.0)
    b = np.array([[0.8, 0.2], [0.2, 0.8]])
    spots = np.array([20.0, 20.0])
    inputs = DyfInputs(hessian=b, spots=spots, market=market, dt=0.004, cost=ConstantCost(c0=0.01))
    a = market.diffusion_matrix(spots)
    cost_agg = oracles.dyf_aggregate(inputs) + a / 2.0
    cost_exact = dyf_matrix(inputs) + a / 2.0
    np.testing.assert_allclose(cost_agg, 2.0 * cost_exact, rtol=1e-13)


def test_derivative_is_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(2):
        market, spots, b, dt, c0 = well_conditioned_state(rng)
        inputs = DyfInputs(hessian=b, spots=spots, market=market, dt=dt, cost=ConstantCost(c0=c0))
        d = dyf_matrix(inputs)
        np.testing.assert_allclose(d, d.T, rtol=1e-12)


def test_degenerate_theta_raises():
    market = MarketParams(sigmas=(0.3, 0.2), rho=0.0, r=0.05, T=1.0)
    zero = DyfInputs(
        hessian=np.zeros((2, 2)),
        spots=np.array([30.0, 30.0]),
        market=market,
        dt=0.004,
        cost=ConstantCost(c0=0.01),
    )
    with pytest.raises(DegenerateThetaError, match="asset 0"):
        dyf_matrix(zero)
    # only the second asset's variance vanishes (rho = 0 decouples them)
    partial = DyfInputs(
        hessian=np.array([[1.0, 0.0], [0.0, 0.0]]),
        spots=np.array([30.0, 30.0]),
        market=market,
        dt=0.004,
        cost=ConstantCost(c0=0.01),
    )
    with pytest.raises(DegenerateThetaError, match="asset 1"):
        dyf_matrix(partial)


def test_zero_cost_reduces_to_pure_diffusion():
    rng = np.random.default_rng(23)
    market, spots, b, dt, _ = well_conditioned_state(rng)
    inputs = DyfInputs(hessian=b, spots=spots, market=market, dt=dt, cost=ConstantCost(c0=0.0))
    a = market.diffusion_matrix(spots)
    np.testing.assert_allclose(dyf_matrix(inputs), -a / 2.0, atol=1e-14)
    assert np.linalg.eigvalsh(dyf_matrix(inputs))[-1] < 0.0


def test_dyf_inputs_validation():
    market = MarketParams(sigmas=(0.3, 0.2), rho=0.1, r=0.05, T=1.0)
    ok = dict(
        hessian=np.eye(2), spots=np.array([10.0, 10.0]), market=market, dt=0.004,
        cost=ConstantCost(c0=0.01),
    )
    DyfInputs(**ok)  # sanity
    with pytest.raises(ValidationError, match="hessian"):
        DyfInputs(**{**ok, "hessian": np.array([[1.0, 0.5], [0.2, 1.0]])})
    with pytest.raises(ValidationError, match="hessian"):
        DyfInputs(**{**ok, "hessian": np.eye(3)})
    with pytest.raises(ValidationError, match="spots"):
        DyfInputs(**{**ok, "spots": np.array([10.0, -1.0])})
    with pytest.raises(ValidationError, match="spots"):
        DyfInputs(**{**ok, "spots": np.array([10.0])})
    with pytest.raises(ValidationError, match="dt"):
        DyfInputs(**{**ok, "dt": 0.0})


def test_dyf_matrix_rejects_unknown_form():
    """The exact derivative is the only one, with a fixed Theta floor."""
    inputs = single_asset_inputs(0.3, 0.01, 0.004, 1.0)
    for name, value in [("form", "hybrid"), ("form", "aggregate"), ("theta_floor", 0.0)]:
        with pytest.raises(TypeError, match=name):
            dyf_matrix(inputs, **{name: value})


# ---------------------------------------------------------------------------
# surface scans
# ---------------------------------------------------------------------------


def analytic_surface(scen, tau=1.0):
    s = scen.grid.spot_axis()
    return cbest_price(s[:, None], s[None, :], tau, scen)


def scan_scenario(nx=20):
    scen = benchmark_scenario(1)
    return scen.with_grid(GridSpec(a=scen.grid.a, b=scen.grid.b, nx=nx, nt=10))


def test_scan_surface_report_structure():
    scen = scan_scenario()
    u = analytic_surface(scen)
    report = scan_surface(u, scen)
    n = scen.grid.nx
    assert report.eigenvalues.shape == (n - 1, n - 1)
    assert report.n_checked + report.degenerate_count == (n - 1) ** 2
    assert report.n_checked > 0
    assert 0.0 <= report.fraction_satisfied <= 1.0
    assert report.satisfied == (report.fraction_satisfied == 1.0)
    wi, wj = report.worst_node
    assert 1 <= wi <= n - 1 and 1 <= wj <= n - 1
    interior_spots = scen.grid.spot_axis()[1:-1]
    assert report.worst_spots[0] == pytest.approx(interior_spots[wi - 1])
    assert report.worst_spots[1] == pytest.approx(interior_spots[wj - 1])
    assert report.to_json_dict()["form"] == "exact"
    # the reported maximum is indeed the max over non-degenerate nodes
    finite = report.eigenvalues[~np.isnan(report.eigenvalues)]
    assert report.max_eigenvalue == pytest.approx(finite.max())


# the smaller Theta above which a node is cross-checked: 100 x THETA_FLOOR, so
# dyf_matrix's own Theta = diag(B A B), a different rounding, stays off the floor
CROSS_CHECK_THETA_CUT = 1e-12
SCAN_COSTS = {
    "constant": ConstantCost(c0=0.005),
    "exponential": ExponentialCost(c0=0.005, k=1.0),  # config 1's cost
    "sampled": SampledCost(
        x=[0.0, 0.5, 1.0, 2.0], c=[0.004, 0.003, 0.002, 0.001], c_lower=0.0, c_upper=0.004,
        dc=[-0.002, -0.002, -0.0015, -0.001],
    ),
}


@pytest.mark.parametrize("cost", sorted(SCAN_COSTS))
def test_scan_surface_cross_checks_single_point_api(cost):
    """Rebuild the Hessian by hand at every checked node whose smaller Theta
    is above the cut and compare the scanned eigenvalue with the top
    eigenvalue of the single-point derivative (110 of 130 nodes per cost)."""
    scen = scan_scenario().with_cost(SCAN_COSTS[cost])
    u = analytic_surface(scen)
    report = scan_surface(u, scen)
    grid = scen.grid
    dx = grid.dx
    ax = grid.axis()
    kept = _grid_theta(u, scen)[0].min(axis=0) > CROSS_CHECK_THETA_CUT
    assert kept.sum() == 110 and report.n_checked == 130
    for i, j in np.argwhere(kept) + 1:
        ux = (u[i + 1, j] - u[i, j]) / dx
        uy = (u[i, j + 1] - u[i, j]) / dx
        uxx = (u[i + 1, j] - 2 * u[i, j] + u[i - 1, j]) / dx**2
        uyy = (u[i, j + 1] - 2 * u[i, j] + u[i, j - 1]) / dx**2
        uxy = (u[i + 1, j + 1] + u[i - 1, j - 1] - u[i + 1, j - 1] - u[i - 1, j + 1]) / (
            4 * dx**2
        )
        s1, s2 = math.exp(ax[i]), math.exp(ax[j])
        b = np.array(
            [
                [(uxx - ux) / s1**2, uxy / (s1 * s2)],
                [uxy / (s1 * s2), (uyy - uy) / s2**2],
            ]
        )
        inputs = DyfInputs(
            hessian=b, spots=np.array([s1, s2]), market=scen.market, dt=scen.dt_tc,
            cost=scen.cost,
        )
        ref = float(np.linalg.eigvalsh(dyf_matrix(inputs))[-1])
        assert report.eigenvalues[i - 1, j - 1] == pytest.approx(ref, rel=1e-10), (i, j)


def test_scan_surface_zero_cost_always_well_posed():
    scen = scan_scenario().with_cost(ConstantCost(c0=0.0))
    report = scan_surface(analytic_surface(scen), scen)
    assert report.satisfied
    assert report.max_eigenvalue < 0.0
    assert report.fraction_satisfied == 1.0


def test_scan_surface_large_cost_breaks_well_posedness():
    scen = scan_scenario().with_cost(ConstantCost(c0=0.5))
    report = scan_surface(analytic_surface(scen), scen)
    assert not report.satisfied
    assert report.max_eigenvalue > 0.0
    assert report.fraction_satisfied < 1.0


def test_scan_surface_flat_surface_is_all_degenerate():
    scen = scan_scenario()
    n = scen.grid.nx
    report = scan_surface(np.ones((n + 1, n + 1)), scen)
    assert report.n_checked == 0
    assert report.degenerate_count == (n - 1) ** 2
    assert report.satisfied  # vacuously
    assert math.isnan(report.max_eigenvalue)
    assert report.worst_node is None and report.worst_spots is None


def test_scan_surface_shape_validation():
    scen = scan_scenario()
    with pytest.raises(ValidationError, match="surface"):
        scan_surface(np.ones((5, 5)), scen)
    with pytest.raises(TypeError, match="form"):
        scan_surface(analytic_surface(scen), scen, form="exact")


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"theta_floor": -1.0}, "theta_floor"),
        ({"theta_floor": math.nan}, "theta_floor"),
        ({"theta_floor": math.inf}, "theta_floor"),
        ({"eig_tol": math.nan}, "eig_tol"),
        ({"eig_tol": -math.inf}, "eig_tol"),
    ],
)
def test_scan_surface_rejects_a_negative_or_non_finite_threshold(kwargs, field):
    """The scan has no settings: its thresholds are module constants, so a
    caller cannot pass one, valid or not, and get a different verdict."""
    scen = benchmark_scenario(1, nx=10, nt=2)
    with pytest.raises(TypeError, match=field):
        scan_surface(np.ones((11, 11)), scen, **kwargs)


def test_scan_report_serialization(tmp_path):
    scen = scan_scenario(nx=10)
    report = scan_surface(analytic_surface(scen), scen)
    blob = report.to_json_dict()
    assert set(blob) == {
        "satisfied",
        "max_eigenvalue",
        "worst_node",
        "worst_spots",
        "fraction_satisfied",
        "n_checked",
        "degenerate_count",
        "eig_tol",
        "theta_floor",
        "form",
    }
    assert isinstance(blob["satisfied"], bool)
    assert (blob["eig_tol"], blob["theta_floor"], blob["form"]) == (1e-10, 1e-14, "exact")

    path = tmp_path / "nodes.csv"
    report.write_nodes_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,S1,S2,max_eigenvalue,degenerate,satisfied"
    assert len(lines) == 1 + (scen.grid.nx - 1) ** 2
