"""Closed-form pricing tests: the bivariate normal CDF against independent
oracles, the two-asset digital against the two-term route, Monte Carlo and
the closed forms at perfect correlation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from nlbs import (
    ValidationError,
    bivariate_cdf,
    cbest_price,
)

import oracles
from conftest import benchmark_scenario


# ---------------------------------------------------------------------------
# bivariate CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("corr", [0.0, 0.5, -0.5, 0.9, -0.95, 0.999, -0.999, 0.999999, -0.999999])
def test_bivariate_cdf_against_mpmath(corr):
    """Against 30-digit quadrature, to 1e-15 abs: zero arguments (h = 0,
    k = 0, h = k = 0) take the limits of the ratio k/h, a tiny argument's
    product with another underflows to zero but keeps its sign, and the
    correlations reach 1 - 1e-6."""
    args = (0.0, -1e-200, 0.4, -1.9, 3.5, -5.0)
    for h, k in itertools.product(args, args):
        assert abs(bivariate_cdf(h, k, corr) - oracles.bvn_mp(h, k, corr)) <= 1e-15, (h, k)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    a=st.floats(-40.0, 40.0),
    b=st.floats(-40.0, 40.0),
    corr=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_bivariate_cdf_within_the_frechet_bounds(a, b, corr):
    """max(0, Phi(a) + Phi(b) - 1) <= M <= min(Phi(a), Phi(b)).  The upper
    bound and zero hold exactly; the sum Phi(a) + Phi(b) is rounded once, so
    the lower bound holds to one ulp of 1."""
    m = bivariate_cdf(a, b, corr)
    pa, pb = ndtr(a), ndtr(b)
    assert 0.0 <= m <= min(pa, pb)
    assert m >= pa + pb - 1.0 - math.ulp(1.0)


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
    """Correlations near +-1 (|corr| >= 0.925), against the 1-D reduction."""
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
        assert bivariate_cdf(a, 40.0, corr) == pytest.approx(ndtr(a), abs=1e-14)
        # independence
        assert bivariate_cdf(a, b, 0.0) == pytest.approx(
            ndtr(a) * ndtr(b), abs=1e-14
        )
        # inclusion-exclusion with the survival box
        surv = 1.0 - ndtr(a) - ndtr(b) + m
        assert surv == pytest.approx(bivariate_cdf(-a, -b, corr), abs=1e-14)
        assert 0.0 <= m <= 1.0


def test_bivariate_cdf_infinity_sentinels():
    assert bivariate_cdf(np.inf, 0.7, 0.5) == pytest.approx(ndtr(0.7), abs=1e-15)
    assert bivariate_cdf(-0.3, np.inf, -0.2) == pytest.approx(ndtr(-0.3), abs=1e-15)
    assert bivariate_cdf(np.inf, np.inf, 0.5) == 1.0
    assert bivariate_cdf(-np.inf, 2.0, 0.5) == 0.0
    assert bivariate_cdf(np.inf, -np.inf, 0.5) == 0.0
    mixed = bivariate_cdf(np.array([np.inf, -np.inf, 0.0]), np.array([1.0, 1.0, 1.0]), 0.3)
    assert mixed.shape == (3,)
    assert mixed[0] == pytest.approx(ndtr(1.0))
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
# two-term intermediates (pinned values; tests/oracles.py)
# ---------------------------------------------------------------------------


def test_intermediates_pinned_benchmark1():
    scen = benchmark_scenario(1)
    inter = oracles.cbest_intermediates(30.0, 30.0, 1.0, scen.market, scen.payoff)
    assert inter.sigma_comb == pytest.approx(0.25980762113533157, abs=1e-16)
    assert inter.rho1 == pytest.approx(0.8660254037844386, abs=1e-15)
    assert inter.rho2 == pytest.approx(0.0, abs=1e-15)
    assert float(inter.y) == pytest.approx(-0.1299038105676658, abs=1e-15)
    assert float(inter.z1) == pytest.approx(0.11666666666666668, abs=1e-15)
    assert float(inter.z2) == pytest.approx(0.45833333333333337, abs=1e-15)


def test_intermediates_pinned_benchmark2_and_3():
    scen2 = benchmark_scenario(2)
    i2 = oracles.cbest_intermediates(40.0, 40.0, 1.0, scen2.market, scen2.payoff)
    assert i2.sigma_comb == pytest.approx(0.12449899597988734, abs=1e-16)
    assert i2.rho1 == pytest.approx(0.642575463121999, abs=1e-15)
    assert i2.rho2 == pytest.approx(0.9237022282378736, abs=1e-15)

    scen3 = benchmark_scenario(3)
    i3 = oracles.cbest_intermediates(15.0, 15.0, 1.0, scen3.market, scen3.payoff)
    assert i3.sigma_comb == pytest.approx(0.2529822128134704, abs=1e-16)
    assert i3.rho1 == pytest.approx(0.6324555320336758, abs=1e-15)
    assert i3.rho2 == i3.rho1  # equal vols


# ---------------------------------------------------------------------------
# closed-form price
# ---------------------------------------------------------------------------


def test_price_matches_inclusion_exclusion():
    """The package's inclusion-exclusion price, Phi(z1) + Phi(z2) - M(z1, z2;
    rho), against the two-term route of tests/oracles.py: P(S1 >= X, S1 >=
    S2) + P(S2 >= X, S2 > S1), with the ratio deviate and its own
    correlations rho1, rho2 and bivariate CDFs."""
    rng = np.random.default_rng(777)
    for case in (1, 2, 3):
        scen = benchmark_scenario(case)
        x = scen.payoff.X
        for _ in range(40):
            s1 = x * rng.uniform(0.4, 2.5)
            s2 = x * rng.uniform(0.4, 2.5)
            tau = rng.uniform(0.05, 2.0)
            ref = oracles.cbest_two_term_price(s1, s2, tau, scen)
            ours = cbest_price(s1, s2, tau, scen)
            assert ours == pytest.approx(ref, abs=1e-11 * scen.payoff.K)


@pytest.mark.parametrize("sigmas", [(0.2, 0.2), (0.3, 0.15)], ids=["equal-vols", "unequal-vols"])
@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_price_at_perfect_correlation(sigmas, rho):
    """One standard normal Z moves both assets, S1 through Z and S2 through
    rho Z.  At rho = 1 the best of the two finishes above X iff
    Z >= min(-z1, -z2), so the price is K e^{-r tau} Phi(max(z1, z2)); at
    rho = -1 the events {Z >= -z1} and {Z <= z2} are tails on opposite
    sides, so it is K e^{-r tau} min(1, Phi(z1) + Phi(z2)).  Equal
    volatilities at rho = 1 freeze the ratio S1/S2."""
    base = benchmark_scenario(1)
    market = type(base.market)(sigmas=sigmas, rho=rho, r=0.05, T=1.0)
    scen = type(base)(market=market, cost=base.cost, payoff=base.payoff, dt_tc=base.dt_tc)
    k, x = scen.payoff.K, scen.payoff.X
    for s1, s2, tau in [(31.0, 30.0, 1.0), (29.0, 30.0, 1.0), (24.0, 36.0, 0.5), (30.0, 30.0, 0.01), (18.0, 21.0, 2.0)]:
        z1, z2 = (
            (math.log(s / x) + (0.05 - sig * sig / 2.0) * tau) / (sig * math.sqrt(tau))
            for s, sig in ((s1, sigmas[0]), (s2, sigmas[1]))
        )
        p1, p2 = oracles.phi_mp(z1), oracles.phi_mp(z2)
        prob = max(p1, p2) if rho > 0.0 else min(1.0, p1 + p2)
        assert cbest_price(s1, s2, tau, scen) == pytest.approx(k * math.exp(-0.05 * tau) * prob, abs=1e-14)


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


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("field", ["s1", "s2"])
def test_price_rejects_a_non_positive_or_non_finite_spot(field, bad):
    """Before and at expiry, as a scalar and inside an array."""
    scen = benchmark_scenario(1)
    for spot in (bad, np.array([30.0, bad])):
        spots = {"s1": 30.0, "s2": 30.0, field: spot}
        for tau in (1.0, 0.0):
            with pytest.raises(ValidationError) as exc:
                cbest_price(spots["s1"], spots["s2"], tau, scen)
            assert exc.value.field == field


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
