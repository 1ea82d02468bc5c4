"""Cost-term tests: expected rebalancing cost and the sensitivity integrals
against quadrature, the per-asset variance proxy against a loop oracle, grid
assembly invariants."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlbs import (
    ConstantCost,
    ExponentialCost,
    GridSpec,
    MarketParams,
    SampledCost,
    Scenario,
    ValidationError,
    assemble_G,
    cost_integrals,
    expected_cost,
    exponential_decay_factor,
)
from nlbs.cost_engine import _grid_theta

import oracles
from conftest import benchmark_scenario, with_stencil


# ---------------------------------------------------------------------------
# expected cost
# ---------------------------------------------------------------------------


def test_constant_cost_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(30):
        c0 = rng.uniform(1e-4, 0.05)
        theta = rng.uniform(1e-6, 500.0)
        dt = rng.uniform(1e-5, 0.05)
        val = expected_cost(ConstantCost(c0=c0), theta, dt)
        assert val == pytest.approx(c0 * math.sqrt(2.0 * theta / math.pi), rel=1e-14)
        # independent of dt for a constant curve
        assert val == expected_cost(ConstantCost(c0=c0), theta, 10.0 * dt)


def test_expected_cost_against_quadrature_oracle():
    rng = np.random.default_rng(7_000)
    for _ in range(40):
        c0 = rng.uniform(1e-4, 0.02)
        k = rng.uniform(0.0, 5.0)
        theta = rng.uniform(1e-8, 400.0)
        dt = rng.uniform(1e-5, 0.02)
        cost = ExponentialCost(c0=c0, k=k)
        ours = expected_cost(cost, theta, dt)
        ref = oracles.expected_cost_quad(lambda x: c0 * np.exp(-k * x), theta, dt)
        assert ours == pytest.approx(ref, rel=1e-9)


def test_exponential_with_zero_decay_equals_constant():
    rng = np.random.default_rng(17)
    for _ in range(50):
        c0 = rng.uniform(1e-5, 0.1)
        theta = rng.uniform(0.0, 300.0)
        dt = rng.uniform(1e-5, 0.05)
        a = expected_cost(ExponentialCost(c0=c0, k=0.0), theta, dt)
        b = expected_cost(ConstantCost(c0=c0), theta, dt)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_expected_cost_monte_carlo_cross_check():
    draws = np.abs(np.random.default_rng(99).standard_normal(2_000_000))
    cost = ExponentialCost(c0=0.005, k=1.0)
    theta, dt = 40.0, 1.0 / 261.0
    mc = oracles.expected_cost_mc(lambda x: 0.005 * np.exp(-x), theta, dt, draws)
    assert expected_cost(cost, theta, dt) == pytest.approx(mc, rel=3e-3)


def test_decay_factor_limits_and_pinned_value():
    assert exponential_decay_factor(0.0) == 1.0
    assert float(exponential_decay_factor(1.0)) == pytest.approx(
        0.34432045758120156, abs=1e-16
    )
    q = np.linspace(0.0, 12.0, 200)
    j = exponential_decay_factor(q)
    assert np.all(np.diff(j) < 0.0)
    assert 0.0 < j[-1] < 0.02


def test_sampled_cost_matches_tabulated_closed_forms():
    # a flat table reproduces the constant-cost closed form ...
    flat = SampledCost(x=[0.0, 50.0], c=[0.01, 0.01], c_lower=0.01, c_upper=0.01)
    theta, dt = 25.0, 0.004
    assert expected_cost(flat, theta, dt) == pytest.approx(
        0.01 * math.sqrt(2.0 * theta / math.pi), rel=1e-9
    )
    # ... and a finely tabulated decay curve approaches the exponential one
    xs = np.linspace(0.0, 25.0, 6001)
    curve = SampledCost(x=xs, c=0.01 * np.exp(-xs), c_lower=0.0, c_upper=0.01)
    ref = expected_cost(ExponentialCost(c0=0.01, k=1.0), theta, dt)
    assert expected_cost(curve, theta, dt) == pytest.approx(ref, rel=1e-5)


def test_expected_cost_vectorization_and_edge_cases():
    cost = ExponentialCost(c0=0.01, k=1.0)
    theta = np.array([[0.0, 1.0], [4.0, 9.0]])
    out = expected_cost(cost, theta, 0.004)
    assert out.shape == (2, 2)
    assert out[0, 0] == 0.0
    for idx in [(0, 1), (1, 0), (1, 1)]:
        assert out[idx] == pytest.approx(expected_cost(cost, theta[idx], 0.004), rel=1e-15)
    scalar = expected_cost(cost, 1.0, 0.004)
    assert isinstance(scalar, float)
    # roundoff-sized negatives are clamped, genuine negatives rejected
    assert expected_cost(cost, -1e-13, 0.004) == 0.0
    with pytest.raises(ValidationError, match="theta"):
        expected_cost(cost, -1e-6, 0.004)
    with pytest.raises(ValidationError, match="theta"):  # a NaN hides no negative entry
        expected_cost(cost, [math.nan, -1.0], 0.004)
    with pytest.raises(ValidationError, match="dt"):
        expected_cost(cost, 1.0, 0.0)


GOLDEN_TABLE = ([0.0, 0.5, 1.0, 2.0], [0.004, 0.003, 0.002, 0.001], [-0.002, -0.002, -0.0015, -0.001])
SAMPLED_TABLES = {
    "golden": GOLDEN_TABLE,
    "first-sample-above-zero": ([0.3, 0.8, 1.5, 4.0], [0.006, 0.005, 0.0045, 0.002], [-0.003, -0.001, -0.0008, -0.0002]),
    "one-segment": ([0.2, 1.7], [0.01, 0.002], [-0.004, -0.001]),
}
# 19.3069... is where adaptive quadrature of the golden table missed its 1e-8 target
SAMPLED_SCALES = [1e-3, 0.1, 0.7, 3.0, 19.306977288832496, 50.0, 1e3]


@pytest.mark.parametrize("table", sorted(SAMPLED_TABLES))
def test_sampled_cost_integrals_match_30_digit_quadrature(table):
    """I1, I2 and the expected cost of a sampled cost, within 1e-14 relative
    of mpmath quadrature split at the samples."""
    x, c, dc = SAMPLED_TABLES[table]
    cost = SampledCost(x=x, c=c, c_lower=0.0, c_upper=max(c), dc=dc)
    dt = 0.004
    for h in SAMPLED_SCALES:
        i1, i2 = cost_integrals(cost, h)
        ref1, ref2 = oracles.sampled_integral_mp(x, c, h, 1), oracles.sampled_integral_mp(x, dc, h, 2)
        assert i1 == pytest.approx(ref1, rel=1e-14, abs=0.0), h
        assert i2 == pytest.approx(ref2, rel=1e-14, abs=0.0), h
        theta = h * h / (2.0 * dt)
        ref = 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(theta) * ref1
        assert expected_cost(cost, theta, dt) == pytest.approx(ref, rel=1e-14, abs=0.0), h
    stacked = expected_cost(cost, np.array(SAMPLED_SCALES) ** 2 / (2.0 * dt), dt)
    np.testing.assert_array_equal(stacked, [expected_cost(cost, h * h / (2.0 * dt), dt) for h in SAMPLED_SCALES])


@pytest.mark.parametrize("table", sorted(SAMPLED_TABLES))
def test_sampled_cost_integrals_at_zero_scale(table):
    """h = 0: I1 = C(0)/2 and I2 = C'(0) sqrt(pi)/4, also at h = 1e-160, where
    (x_j/h)^2 would overflow; Theta = 0 costs exactly nothing, with no 0/0 on
    the way (a RuntimeWarning fails the test)."""
    x, c, dc = SAMPLED_TABLES[table]
    cost = SampledCost(x=x, c=c, c_lower=0.0, c_upper=max(c), dc=dc)
    for h in (0.0, 1e-160):
        i1, i2 = cost_integrals(cost, h)
        assert i1 == c[0] / 2.0
        assert i2 == pytest.approx(dc[0] * math.sqrt(math.pi) / 4.0, rel=1e-15)
    assert expected_cost(cost, 0.0, 0.004) == 0.0
    np.testing.assert_array_equal(expected_cost(cost, np.zeros((2, 3)), 0.004), np.zeros((2, 3)))


def test_sampled_cost_far_tail_keeps_its_digits():
    """A table that is zero up to x1 = 1: I1 is (sqrt(pi)/4) beta h [erfc(1/h)
    - erfc(2/h)], down to 1e-178 at h = 0.05, and keeps its relative digits."""
    cost = SampledCost(x=[0.0, 1.0, 2.0], c=[0.0, 0.0, 0.01], c_lower=0.0, c_upper=0.01, dc=[0.0, 0.0, 0.0])
    for h in (0.05, 0.1, 0.3):
        ref = math.sqrt(math.pi) / 4.0 * 0.01 * h * (math.erfc(1.0 / h) - math.erfc(2.0 / h))
        assert cost_integrals(cost, h)[0] == pytest.approx(ref, rel=1e-14, abs=0.0), h


# ---------------------------------------------------------------------------
# per-asset variance proxy Theta
# ---------------------------------------------------------------------------


def random_market(rng):
    from nlbs import MarketParams

    return MarketParams(
        sigmas=tuple(rng.uniform(0.05, 0.6, size=2)),
        rho=rng.uniform(-0.9, 0.9),
        r=rng.uniform(0.0, 0.1),
        T=1.0,
    )


def test_theta_log_coords_agrees_with_hessian_route():
    """Log-coordinate route vs converting the derivatives to a price Hessian."""
    rng = np.random.default_rng(4242)
    for _ in range(60):
        market = random_market(rng)
        x = rng.uniform(-0.5, 4.0, size=2)
        u2 = rng.normal(size=(2, 2))
        u2 = (u2 + u2.T) / 2.0
        grad = rng.normal(size=2)
        spots = np.exp(x)
        b = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                val = u2[i, j] - (grad[i] if i == j else 0.0)
                b[i, j] = val / (spots[i] * spots[j])
        ours = oracles.theta_log_coords(u2, grad, x, market)
        ref = oracles.theta_double_sum(b, spots, market.sigmas, np.asarray(market.rho))
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-18)


def test_theta_log_coords_validation():
    scen = benchmark_scenario(1)
    ok2 = np.zeros((2, 2))
    with pytest.raises(ValidationError, match="second"):
        oracles.theta_log_coords(np.zeros(2), np.zeros(2), np.zeros(2), scen.market)
    with pytest.raises(ValidationError, match="grad"):
        oracles.theta_log_coords(ok2, np.zeros(3), np.zeros(2), scen.market)
    with pytest.raises(ValidationError, match="x"):
        oracles.theta_log_coords(ok2, np.zeros(2), np.zeros(3), scen.market)


# ---------------------------------------------------------------------------
# grid assembly
# ---------------------------------------------------------------------------


def small_scenario(nx=8, coord="log"):
    scen = benchmark_scenario(1)
    if coord == "log":
        g = GridSpec(a=scen.grid.a, b=scen.grid.b, nx=nx, nt=4, coord="log")
    else:
        g = GridSpec(a=5.0, b=60.0, nx=nx, nt=4, coord="price")
    return scen.with_grid(g)


def bumpy_surface(scen, rng):
    ax = scen.grid.axis()
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    coefs = rng.normal(size=5)
    return (
        coefs[0] * np.sin(xx) * np.cos(yy)
        + coefs[1] * xx * yy / 10.0
        + coefs[2] * np.cos(2 * xx)
        + coefs[3] * yy**2 / 20.0
        + coefs[4]
    )


def test_assemble_g_zero_cost_is_zero():
    scen = small_scenario().with_cost(ConstantCost(c0=0.0))
    u = bumpy_surface(scen, np.random.default_rng(1))
    np.testing.assert_array_equal(assemble_G(u, scen), np.zeros_like(u))


def test_assemble_g_boundary_ring_is_zero():
    scen = small_scenario()
    u = bumpy_surface(scen, np.random.default_rng(2))
    g = assemble_G(u, scen)
    assert np.all(g[0, :] == 0.0) and np.all(g[-1, :] == 0.0)
    assert np.all(g[:, 0] == 0.0) and np.all(g[:, -1] == 0.0)
    assert np.any(g[1:-1, 1:-1] != 0.0)
    assert np.all(g >= 0.0)  # spots and expected costs are nonnegative


def test_assemble_g_linear_in_constant_cost_level():
    scen = small_scenario()
    u = bumpy_surface(scen, np.random.default_rng(3))
    g1 = assemble_G(u, scen.with_cost(ConstantCost(c0=0.004)))
    g2 = assemble_G(u, scen.with_cost(ConstantCost(c0=0.008)))
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-14)


def test_assemble_g_prefactor_normalizations():
    """Constant cost: the per-interval expected cost does not depend on dt,
    so G scales as 1/sqrt(dt)."""
    scen = small_scenario().with_cost(ConstantCost(c0=0.004))
    u = bumpy_surface(scen, np.random.default_rng(4))
    g_daily = assemble_G(u, scen)
    for dt in (scen.dt_tc / 4.0, scen.dt_tc * 9.0):
        g = assemble_G(u, scen.with_dt(dt))
        np.testing.assert_allclose(g * math.sqrt(dt), g_daily * math.sqrt(scen.dt_tc), rtol=1e-14)


def test_assemble_g_log_grid_against_manual_node_composition():
    """Recompute one interior node by hand: finite differences, the
    log-coordinate Theta route, the closed-form expected cost."""
    scen = small_scenario(nx=6)
    rng = np.random.default_rng(5)
    u = bumpy_surface(scen, rng)
    g = assemble_G(u, scen)
    ax = scen.grid.axis()
    dx = scen.grid.dx
    for i, j in [(2, 3), (3, 2), (1, 1), (5, 5)]:
        ux = (u[i + 1, j] - u[i, j]) / dx
        uy = (u[i, j + 1] - u[i, j]) / dx
        uxx = (u[i + 1, j] - 2 * u[i, j] + u[i - 1, j]) / dx**2
        uyy = (u[i, j + 1] - 2 * u[i, j] + u[i, j - 1]) / dx**2
        uxy = (u[i + 1, j + 1] + u[i - 1, j - 1] - u[i + 1, j - 1] - u[i - 1, j + 1]) / (
            4 * dx**2
        )
        theta = oracles.theta_log_coords(
            np.array([[uxx, uxy], [uxy, uyy]]),
            np.array([ux, uy]),
            np.array([ax[i], ax[j]]),
            scen.market,
        )
        s1, s2 = math.exp(ax[i]), math.exp(ax[j])
        e1 = expected_cost(scen.cost, theta[0], scen.dt_tc)
        e2 = expected_cost(scen.cost, theta[1], scen.dt_tc)
        manual = (s1 * e1 + s2 * e2) / math.sqrt(scen.dt_tc)
        assert g[i, j] == pytest.approx(manual, rel=1e-12)


def test_assemble_g_price_grid_against_oracle_theta():
    scen = small_scenario(nx=6, coord="price")
    rng = np.random.default_rng(6)
    u = bumpy_surface(scen, rng)
    g = assemble_G(u, scen)
    ax = scen.grid.axis()
    dx = scen.grid.dx
    rho = np.asarray(scen.market.rho)
    c0, k = scen.cost.c0, scen.cost.k
    for i, j in [(1, 4), (3, 3), (5, 2)]:
        uxx = (u[i + 1, j] - 2 * u[i, j] + u[i - 1, j]) / dx**2
        uyy = (u[i, j + 1] - 2 * u[i, j] + u[i, j - 1]) / dx**2
        uxy = (u[i + 1, j + 1] + u[i - 1, j - 1] - u[i + 1, j - 1] - u[i - 1, j + 1]) / (
            4 * dx**2
        )
        b = np.array([[uxx, uxy], [uxy, uyy]])
        spots = np.array([ax[i], ax[j]])
        theta = oracles.theta_double_sum(b, spots, scen.market.sigmas, rho)
        manual = sum(
            spots[m]
            * oracles.expected_cost_quad(
                lambda x: c0 * np.exp(-k * x), max(theta[m], 0.0), scen.dt_tc
            )
            for m in range(2)
        ) / math.sqrt(scen.dt_tc)
        assert g[i, j] == pytest.approx(manual, rel=1e-9)


def test_assemble_g_checks_shape():
    scen = small_scenario()
    u = bumpy_surface(scen, np.random.default_rng(7))
    with pytest.raises(ValidationError, match="surface"):
        assemble_G(u[:-1, :], scen)


def test_assemble_g_rejects_unknown_flags():
    """An unknown stencil is rejected where it is set, on the grid, so no
    surface is ever differenced with it."""
    scen = small_scenario()
    with pytest.raises(ValidationError, match="solver.first_derivative"):
        with_stencil(scen, "upwind")


def test_assemble_g_first_derivative_variants_differ_but_agree_on_symmetric_data():
    scen = small_scenario()
    rng = np.random.default_rng(9)
    u = bumpy_surface(scen, rng)
    g_f = assemble_G(u, with_stencil(scen, "forward"))
    g_c = assemble_G(u, with_stencil(scen, "central"))
    assert not np.allclose(g_f, g_c)
    # on an axis-constant surface the first derivatives vanish either way
    flat = np.full_like(u, 3.0)
    np.testing.assert_array_equal(
        assemble_G(flat, with_stencil(scen, "forward")),
        assemble_G(flat, with_stencil(scen, "central")),
    )


# ---------------------------------------------------------------------------
# Theta as a sum of squares, one expected-cost pass per assembly
# ---------------------------------------------------------------------------


def with_rho(scen, rho):
    m = scen.market
    return dataclasses.replace(scen, market=MarketParams(sigmas=m.sigmas, rho=rho, r=m.r, T=m.T))


@pytest.mark.parametrize("coord", ["log", "price"])
@pytest.mark.parametrize("first", ["forward", "central"])
@pytest.mark.parametrize("rho", [-1.0, -0.3, 0.0, 0.7, 1.0])
def test_grid_theta_matches_the_per_node_routes(coord, first, rho):
    """The grid's sum of squares against oracles.theta_log_coords (log grid) and
    oracles.theta_double_sum (price grid) at random interior nodes."""
    scen = with_rho(small_scenario(nx=10, coord=coord), rho)
    rng = np.random.default_rng(31)
    u = bumpy_surface(scen, rng)
    theta, _ = _grid_theta(u, with_stencil(scen, first))
    ax, dx = scen.grid.axis(), scen.grid.dx
    scale = np.abs(theta).max()
    for i, j in rng.integers(1, 10, size=(12, 2)):
        uxx = (u[i + 1, j] - 2 * u[i, j] + u[i - 1, j]) / dx**2
        uyy = (u[i, j + 1] - 2 * u[i, j] + u[i, j - 1]) / dx**2
        uxy = (u[i + 1, j + 1] + u[i - 1, j - 1] - u[i + 1, j - 1] - u[i - 1, j + 1]) / (4 * dx**2)
        second = np.array([[uxx, uxy], [uxy, uyy]])
        if coord == "log":
            if first == "forward":
                grad = np.array([u[i + 1, j] - u[i, j], u[i, j + 1] - u[i, j]]) / dx
            else:
                grad = np.array([u[i + 1, j] - u[i - 1, j], u[i, j + 1] - u[i, j - 1]]) / (2 * dx)
            ref = oracles.theta_log_coords(second, grad, np.array([ax[i], ax[j]]), scen.market)
        else:
            spots = np.array([ax[i], ax[j]])
            ref = oracles.theta_double_sum(second, spots, scen.market.sigmas, np.asarray(scen.market.rho))
        np.testing.assert_allclose(theta[:, i - 1, j - 1], ref, rtol=1e-10, atol=1e-13 * scale)


@pytest.mark.parametrize("rho", [-1.0, 1.0, 1.0 + 1e-13])
def test_grid_theta_stays_nonnegative_where_the_expanded_form_cancels_below_zero(rho):
    """Theta >= 0 with no clamp: u = a S1^2 - 2 a rho (sigma_1/sigma_2) S1 S2
    makes Theta_1 vanish on the diagonal S1 = S2 of a price grid, where the
    expanded form B11^2 A11 + 2 B11 B12 A12 + B12^2 A22 rounds below zero
    (and |rho| may exceed 1 by the roundoff MarketParams accepts)."""
    scen = with_rho(small_scenario(nx=12, coord="price"), rho)
    sig1, sig2 = scen.market.sigmas
    s = scen.grid.axis()
    s1, s2 = np.meshgrid(s, s, indexing="ij")
    expanded_negative = 0
    for a in np.linspace(0.1, 3.0, 30):
        u = a * s1**2 - 2.0 * a * rho * sig1 / sig2 * s1 * s2
        theta, _ = _grid_theta(u, scen)
        assert theta.min() >= 0.0
        dx = scen.grid.dx
        uxx = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / dx**2
        uxy = (u[2:, 2:] + u[:-2, :-2] - u[2:, :-2] - u[:-2, 2:]) / (4.0 * dx * dx)
        i, j = s1[1:-1, 1:-1], s2[1:-1, 1:-1]
        a11, a12, a22 = (sig1 * i) ** 2, sig1 * sig2 * rho * i * j, (sig2 * j) ** 2
        expanded_negative += int((uxx * uxx * a11 + 2.0 * uxx * uxy * a12 + uxy * uxy * a22 < 0.0).sum())
    assert expanded_negative > 0


@pytest.mark.parametrize("config", [1, 2, 3])
def test_assemble_g_matches_the_expanded_forms_on_picard_blocks(config):
    """Every level of a converged fixed-point block, both stencils, within
    rtol 1e-12 of the five-array expanded quadratic forms."""
    from nlbs import solve_nonlinear

    scen = benchmark_scenario(config, nx=24, nt=16)
    block = solve_nonlinear(scen).block
    for first in ("forward", "central"):
        for level in block:
            np.testing.assert_allclose(
                assemble_G(level, with_stencil(scen, first)),
                oracles.assemble_g_expanded(level, scen, first),
                rtol=1e-12,
                atol=0.0,
            )


def test_exponential_expected_cost_matches_quadrature_for_q_up_to_20():
    """q = k sqrt(dt Theta) over [0, 20], where 1 - sqrt(pi) z erfcx(z) cancels most."""
    dt = 0.004
    for c0, k in ((0.005, 1.0), (0.001, 0.5), (0.02, 4.0)):
        cost = ExponentialCost(c0=c0, k=k)
        qs = np.linspace(0.0, 20.0, 41)
        thetas = (qs / k) ** 2 / dt
        stacked = expected_cost(cost, np.stack([thetas, thetas[::-1]]), dt)
        for q, theta, value in zip(qs, thetas, stacked[0]):
            ref = oracles.expected_cost_quad(cost.value, theta, dt)
            assert value == pytest.approx(ref, rel=1e-9, abs=0.0), q
        np.testing.assert_array_equal(stacked[1], stacked[0][::-1])


# ---------------------------------------------------------------------------
# what the package imports
# ---------------------------------------------------------------------------


def test_quadrature_and_ndimage_load_only_when_used():
    """Neither scipy.integrate nor scipy.ndimage loads, with the package and
    its CLI, or after a sampled-cost expected cost and sensitivity integrals:
    every cost model has closed forms.  The values match the in-process ones
    bit for bit."""
    src = Path(__file__).resolve().parents[1] / "src"
    x, c, dc = GOLDEN_TABLE
    script = (
        "import sys, json\n"
        "import nlbs, nlbs.cli\n"
        f"cost = nlbs.SampledCost(x={x}, c={c}, c_lower=0.0, c_upper=0.004, dc={dc})\n"
        "values = [nlbs.expected_cost(cost, 0.7, 0.004), *nlbs.cost_integrals(cost, 0.7)]\n"
        "loaded = sorted(m for m in ('scipy.integrate', 'scipy.ndimage') if m in sys.modules)\n"
        "print(json.dumps([loaded, [v.hex() for v in values]]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    loaded, values = json.loads(proc.stdout)
    assert loaded == []
    cost = SampledCost(x=x, c=c, c_lower=0.0, c_upper=0.004, dc=dc)
    assert [float.fromhex(v) for v in values] == [expected_cost(cost, 0.7, 0.004), *cost_integrals(cost, 0.7)]
