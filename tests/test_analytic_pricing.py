"""Closed-form pricing tests: normal CDFs against independent oracles, the
two-asset digital against inclusion-exclusion and Monte Carlo."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from nlbs import (
    ValidationError,
    bivariate_cdf,
    cbest_intermediates,
    cbest_price,
    univariate_cdf,
)
from nlbs.analytic_pricing import _bvn_upper

import oracles
from conftest import benchmark_scenario


# ---------------------------------------------------------------------------
# univariate CDF
# ---------------------------------------------------------------------------


def test_univariate_cdf_against_mpmath():
    rng = np.random.default_rng(314)
    xs = np.concatenate([rng.normal(0.0, 3.0, size=40), [-8.0, 0.0, 8.0, 37.0, -37.0]])
    for x in xs:
        assert univariate_cdf(x) == pytest.approx(oracles.phi_mp(float(x)), abs=1e-15)


def test_univariate_cdf_vectorized():
    x = np.array([-1.0, 0.0, 1.0])
    v = univariate_cdf(x)
    assert v.shape == (3,)
    assert v[1] == pytest.approx(0.5)
    np.testing.assert_allclose(v + univariate_cdf(-x), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# bivariate CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", [1, 2, 3])
def test_bvn_upper_matches_the_two_temporary_expression(case):
    """The one-buffer integrand repeats the old expression's operations in
    the same order, so every value is the same float.  Configs 1-3 give the
    closed form |rho1|, |rho2| in {0, 0.632, 0.643, 0.866, 0.924}, all on the
    Drezner-Wesolowsky branch."""
    scen = benchmark_scenario(case)
    inter = cbest_intermediates(scen.payoff.X, scen.payoff.X, scen.market.T, scen.market, scen.payoff)
    rng = np.random.default_rng(case)
    h, k = rng.normal(0.0, 2.5, size=(2, 100_000))
    grid = np.linspace(-6.0, 6.0, 41)
    h2, k2 = np.meshgrid(grid, grid, indexing="ij")
    for corr in (inter.rho1, -inter.rho1, inter.rho2, -inter.rho2):
        assert abs(corr) < 0.925
        np.testing.assert_array_equal(_bvn_upper(h, k, corr), oracles.bvn_upper_two_temporaries(h, k, corr))
        np.testing.assert_array_equal(_bvn_upper(h2, k2, corr), oracles.bvn_upper_two_temporaries(h2, k2, corr))


def test_bivariate_cdf_against_quadrature_oracle():
    """Random (a, b, corr) triples against direct 2-D quadrature of the density."""
    rng = np.random.default_rng(2718)
    for _ in range(60):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        corr = rng.uniform(-0.99, 0.99)
        ours = bivariate_cdf(a, b, corr)
        ref = oracles.bvn_dblquad(a, b, corr)
        assert ours == pytest.approx(ref, abs=2e-10)


def test_bivariate_cdf_against_conditional_oracle_high_correlation():
    """The near-singular branch (|corr| >= 0.925), against the 1-D reduction."""
    rng = np.random.default_rng(99)
    for _ in range(200):
        a = rng.uniform(-4.0, 4.0)
        b = rng.uniform(-4.0, 4.0)
        corr = rng.choice([-1.0, 1.0]) * rng.uniform(0.925, 0.999999)
        ours = bivariate_cdf(a, b, corr)
        ref = oracles.bvn_conditional(a, b, corr)
        assert ours == pytest.approx(ref, abs=5e-11)


def test_bivariate_cdf_against_scipy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(-3.5, 3.5, size=2)
        corr = rng.uniform(-0.999, 0.999)
        ref = multivariate_normal.cdf([a, b], mean=[0.0, 0.0], cov=[[1.0, corr], [corr, 1.0]])
        assert bivariate_cdf(a, b, corr) == pytest.approx(ref, abs=5e-9)


def test_bivariate_cdf_identities():
    rng = np.random.default_rng(12)
    for _ in range(40):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        corr = rng.uniform(-0.98, 0.98)
        m = bivariate_cdf(a, b, corr)
        # symmetry in the arguments
        assert m == pytest.approx(bivariate_cdf(b, a, corr), abs=1e-14)
        # marginals: one argument at its limit
        assert bivariate_cdf(a, 40.0, corr) == pytest.approx(univariate_cdf(a), abs=1e-14)
        # independence
        assert bivariate_cdf(a, b, 0.0) == pytest.approx(
            univariate_cdf(a) * univariate_cdf(b), abs=1e-14
        )
        # inclusion-exclusion with the survival box
        surv = 1.0 - univariate_cdf(a) - univariate_cdf(b) + m
        assert surv == pytest.approx(bivariate_cdf(-a, -b, corr), abs=1e-14)
        assert 0.0 <= m <= 1.0


def test_bivariate_cdf_infinity_sentinels():
    assert bivariate_cdf(np.inf, 0.7, 0.5) == pytest.approx(univariate_cdf(0.7), abs=1e-15)
    assert bivariate_cdf(-0.3, np.inf, -0.2) == pytest.approx(univariate_cdf(-0.3), abs=1e-15)
    assert bivariate_cdf(np.inf, np.inf, 0.5) == 1.0
    assert bivariate_cdf(-np.inf, 2.0, 0.5) == 0.0
    assert bivariate_cdf(np.inf, -np.inf, 0.5) == 0.0
    mixed = bivariate_cdf(np.array([np.inf, -np.inf, 0.0]), np.array([1.0, 1.0, 1.0]), 0.3)
    assert mixed.shape == (3,)
    assert mixed[0] == pytest.approx(univariate_cdf(1.0))
    assert mixed[1] == 0.0


def test_bivariate_cdf_rejects_degenerate_inputs():
    with pytest.raises(ValidationError, match="corr"):
        bivariate_cdf(0.0, 0.0, 1.0)
    with pytest.raises(ValidationError, match="corr"):
        bivariate_cdf(0.0, 0.0, -1.0000001)
    with pytest.raises(ValidationError, match="NaN"):
        bivariate_cdf(np.nan, 0.0, 0.5)


def test_bivariate_cdf_scalar_in_scalar_out():
    out = bivariate_cdf(0.1, 0.2, 0.3)
    assert isinstance(out, float)
    arr = bivariate_cdf(np.array([0.1]), 0.2, 0.3)
    assert isinstance(arr, np.ndarray) and arr.shape == (1,)


# ---------------------------------------------------------------------------
# closed-form intermediates (pinned values)
# ---------------------------------------------------------------------------


def test_intermediates_pinned_benchmark1():
    scen = benchmark_scenario(1)
    inter = cbest_intermediates(30.0, 30.0, 1.0, scen.market, scen.payoff)
    assert inter.sigma_comb == pytest.approx(0.25980762113533157, abs=1e-16)
    assert inter.rho1 == pytest.approx(0.8660254037844386, abs=1e-15)
    assert inter.rho2 == pytest.approx(0.0, abs=1e-15)
    assert float(inter.y) == pytest.approx(-0.1299038105676658, abs=1e-15)
    assert float(inter.z1) == pytest.approx(0.11666666666666668, abs=1e-15)
    assert float(inter.z2) == pytest.approx(0.45833333333333337, abs=1e-15)


def test_intermediates_pinned_benchmark2_and_3():
    scen2 = benchmark_scenario(2)
    i2 = cbest_intermediates(40.0, 40.0, 1.0, scen2.market, scen2.payoff)
    assert i2.sigma_comb == pytest.approx(0.12449899597988734, abs=1e-16)
    assert i2.rho1 == pytest.approx(0.642575463121999, abs=1e-15)
    assert i2.rho2 == pytest.approx(0.9237022282378736, abs=1e-15)

    scen3 = benchmark_scenario(3)
    i3 = cbest_intermediates(15.0, 15.0, 1.0, scen3.market, scen3.payoff)
    assert i3.sigma_comb == pytest.approx(0.2529822128134704, abs=1e-16)
    assert i3.rho1 == pytest.approx(0.6324555320336758, abs=1e-15)
    assert i3.rho2 == i3.rho1  # equal vols


def test_intermediates_validation():
    scen = benchmark_scenario(1)
    with pytest.raises(ValidationError, match="tau"):
        cbest_intermediates(30.0, 30.0, 0.0, scen.market, scen.payoff)
    with pytest.raises(ValidationError, match="s1"):
        cbest_intermediates(-1.0, 30.0, 1.0, scen.market, scen.payoff)


def test_intermediates_identical_dynamics_degenerate_ratio():
    """sigma_comb = 0 freezes the performance ratio at its spot ordering."""
    scen = benchmark_scenario(1)
    market = type(scen.market)(sigmas=(0.2, 0.2), rho=1.0, r=0.05, T=1.0)
    inter = cbest_intermediates(31.0, 30.0, 1.0, market, scen.payoff)
    assert inter.sigma_comb == 0.0
    assert np.isposinf(inter.y)
    assert inter.rho1 == 0.0 and inter.rho2 == 0.0
    flipped = cbest_intermediates(29.0, 30.0, 1.0, market, scen.payoff)
    assert np.isneginf(flipped.y)


# ---------------------------------------------------------------------------
# closed-form price
# ---------------------------------------------------------------------------


def test_price_matches_inclusion_exclusion():
    """Independent derivation: P(max >= X) = P1 + P2 - P12 on standardized
    log-returns, joint CDF with the asset correlation."""
    rng = np.random.default_rng(777)
    for case in (1, 2, 3):
        scen = benchmark_scenario(case)
        sig1, sig2 = scen.market.sigmas
        rho = float(scen.market.rho[0, 1])
        r = scen.market.r
        x = scen.payoff.X
        for _ in range(40):
            s1 = x * rng.uniform(0.4, 2.5)
            s2 = x * rng.uniform(0.4, 2.5)
            tau = rng.uniform(0.05, 2.0)
            rt = np.sqrt(tau)
            d1 = (np.log(s1 / x) + (r - sig1**2 / 2) * tau) / (sig1 * rt)
            d2 = (np.log(s2 / x) + (r - sig2**2 / 2) * tau) / (sig2 * rt)
            ref = (
                scen.payoff.K
                * np.exp(-r * tau)
                * (
                    univariate_cdf(d1)
                    + univariate_cdf(d2)
                    - bivariate_cdf(d1, d2, rho)
                )
            )
            ours = cbest_price(s1, s2, tau, scen)
            assert ours == pytest.approx(ref, abs=1e-11 * scen.payoff.K)


def test_price_pinned_at_the_money():
    scen1 = benchmark_scenario(1)
    assert cbest_price(30.0, 30.0, 1.0, scen1) == pytest.approx(
        3.5932283284459556, abs=1e-13
    )
    scen3 = benchmark_scenario(3)
    assert cbest_price(15.0, 15.0, 1.0, scen3) == pytest.approx(
        4.634031080134903, abs=1e-13
    )


def test_price_against_monte_carlo():
    rng = np.random.default_rng(1234)
    scen = benchmark_scenario(1)
    for s1, s2, tau in [(30.0, 30.0, 1.0), (24.0, 33.0, 0.5), (45.0, 20.0, 1.0)]:
        mean, sem = oracles.cbest_mc(
            s1,
            s2,
            tau,
            scen.payoff.K,
            scen.payoff.X,
            scen.market.sigmas,
            float(scen.market.rho[0, 1]),
            scen.market.r,
            400_000,
            rng,
        )
        assert abs(cbest_price(s1, s2, tau, scen) - mean) < 4.0 * sem


def test_price_at_expiry_is_the_payoff():
    scen = benchmark_scenario(1)
    assert cbest_price(31.0, 1.0, 0.0, scen) == 5.0
    assert cbest_price(29.0, 29.0, 0.0, scen) == 0.0
    s = np.array([10.0, 30.0, 50.0])
    np.testing.assert_array_equal(cbest_price(s, s, 0.0, scen), [0.0, 5.0, 5.0])


def test_price_deep_in_the_money_discounts_the_cash():
    """Threshold far below both spots: the digital pays almost surely."""
    scen = benchmark_scenario(1)
    payoff = type(scen.payoff)(K=5.0, X=0.01)
    deep = type(scen)(
        market=scen.market, cost=scen.cost, payoff=payoff, dt_tc=scen.dt_tc
    )
    price = cbest_price(30.0, 30.0, 1.0, deep)
    assert price == pytest.approx(5.0 * np.exp(-0.08), rel=1e-12)


def test_price_bounds_and_monotonicity():
    scen = benchmark_scenario(1)
    disc = 5.0 * np.exp(-0.08)
    s = np.linspace(10.0, 60.0, 41)
    prices = cbest_price(s, 12.0, 1.0, scen)
    assert np.all(prices >= 0.0) and np.all(prices <= disc + 1e-12)
    assert np.all(np.diff(prices) > 0.0)  # increasing in either spot


def test_price_vectorization_matches_scalar_calls():
    scen = benchmark_scenario(2)
    s1 = np.array([30.0, 40.0, 55.0])
    s2 = np.array([44.0, 40.0, 21.0])
    vec = cbest_price(s1, s2, 0.7, scen)
    for i in range(3):
        assert vec[i] == pytest.approx(cbest_price(s1[i], s2[i], 0.7, scen), abs=1e-15)
    # broadcasting scalar against array
    col = cbest_price(s1[:, None], 40.0, 0.7, scen)
    assert col.shape == (3, 1)


def test_price_rejects_negative_tau():
    scen = benchmark_scenario(1)
    with pytest.raises(ValidationError, match="tau"):
        cbest_price(30.0, 30.0, -0.5, scen)


# ---------------------------------------------------------------------------
# legacy formula variant (kept in the oracles; the package dropped it)
# ---------------------------------------------------------------------------


def test_legacy_formula_degenerates_on_low_vol_benchmarks():
    """The legacy parametrization puts sigma - rho over sigma_comb; for the
    first two benchmark parameter sets that leaves [-1, 1] and the bivariate
    CDF refuses the correlation."""
    for case in (1, 2):
        scen = benchmark_scenario(case)
        x = scen.payoff.X
        with pytest.raises(ValidationError, match="corr"):
            oracles.cbest_legacy_price(x, x, 1.0, scen, bivariate_cdf)


def test_legacy_formula_value_where_it_is_defined():
    scen = benchmark_scenario(3)
    legacy = oracles.cbest_legacy_price(15.0, 15.0, 1.0, scen, bivariate_cdf)
    assert legacy == pytest.approx(2.9307385587940984, abs=1e-13)
    # visibly different from the risk-neutral price
    standard = cbest_price(15.0, 15.0, 1.0, scen)
    assert abs(legacy - standard) > 1.0


def test_legacy_intermediates_pinned_correlations():
    scen = benchmark_scenario(1)
    inter = oracles.cbest_legacy_intermediates(30.0, 30.0, 1.0, scen.market, scen.payoff)
    assert abs(inter.rho2) == pytest.approx(1.3471506281091268, abs=1e-15)
    scen2 = benchmark_scenario(2)
    i2 = oracles.cbest_legacy_intermediates(40.0, 40.0, 1.0, scen2.market, scen2.payoff)
    assert i2.rho1 == pytest.approx(2.8112676511587456, abs=1e-14)
    assert i2.rho2 > 1.0  # both correlations leave [-1, 1]
