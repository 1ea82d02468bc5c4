"""Cost-term tests: expected rebalancing cost against quadrature, the
per-asset variance proxy against a loop oracle, grid assembly invariants."""

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
    QuadratureError,
    SampledCost,
    Scenario,
    SolverFlags,
    Surface,
    ValidationError,
    assemble_G,
    expected_cost,
    exponential_decay_factor,
    theta_from_hessian,
    theta_log_coords,
)

import oracles
from conftest import benchmark_scenario


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


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
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


def test_quadrature_error_is_a_runtime_error():
    assert issubclass(QuadratureError, RuntimeError)


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


def test_theta_from_hessian_against_double_sum_oracle():
    rng = np.random.default_rng(808)
    for _ in range(60):
        market = random_market(rng)
        spots = rng.uniform(0.5, 60.0, size=2)
        b = rng.normal(size=(2, 2))
        b = (b + b.T) / 2.0
        ours = theta_from_hessian(b, spots, market)
        ref = oracles.theta_double_sum(b, spots, market.sigmas, np.asarray(market.rho))
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-15)
        assert np.all(ours >= 0.0)


def test_theta_from_hessian_validation():
    scen = benchmark_scenario(1)
    with pytest.raises(ValidationError, match="hessian"):
        theta_from_hessian(np.zeros((3, 3)), np.array([30.0, 30.0]), scen.market)
    with pytest.raises(ValidationError, match="symmetric"):
        theta_from_hessian(np.array([[1.0, 2.0], [0.5, 1.0]]), np.array([30.0, 30.0]), scen.market)


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
        ours = theta_log_coords(u2, grad, x, market)
        ref = theta_from_hessian(b, spots, market)
        np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-18)


def test_theta_log_coords_validation():
    scen = benchmark_scenario(1)
    ok2 = np.zeros((2, 2))
    with pytest.raises(ValidationError, match="second"):
        theta_log_coords(np.zeros(2), np.zeros(2), np.zeros(2), scen.market)
    with pytest.raises(ValidationError, match="grad"):
        theta_log_coords(ok2, np.zeros(3), np.zeros(2), scen.market)
    with pytest.raises(ValidationError, match="x"):
        theta_log_coords(ok2, np.zeros(2), np.zeros(3), scen.market)


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
        theta = theta_log_coords(
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


def test_assemble_g_accepts_surface_objects_and_checks_shape():
    scen = small_scenario()
    u = bumpy_surface(scen, np.random.default_rng(7))
    wrapped = Surface(values=u, time_index=0, iterate_index=1)
    np.testing.assert_array_equal(assemble_G(wrapped, scen), assemble_G(u, scen))
    with pytest.raises(ValidationError, match="surface"):
        assemble_G(u[:-1, :], scen)


def test_assemble_g_rejects_unknown_flags():
    scen = small_scenario()
    u = bumpy_surface(scen, np.random.default_rng(8))
    with pytest.raises(ValidationError, match="first_derivative"):
        assemble_G(u, scen, flags=SolverFlags(first_derivative="upwind"))


def test_assemble_g_first_derivative_variants_differ_but_agree_on_symmetric_data():
    scen = small_scenario()
    rng = np.random.default_rng(9)
    u = bumpy_surface(scen, rng)
    g_f = assemble_G(u, scen, flags=SolverFlags(first_derivative="forward"))
    g_c = assemble_G(u, scen, flags=SolverFlags(first_derivative="central"))
    assert not np.allclose(g_f, g_c)
    # on an axis-constant surface the first derivatives vanish either way
    flat = np.full_like(u, 3.0)
    np.testing.assert_array_equal(
        assemble_G(flat, scen, flags=SolverFlags(first_derivative="forward")),
        assemble_G(flat, scen, flags=SolverFlags(first_derivative="central")),
    )


# ---------------------------------------------------------------------------
# what the package imports
# ---------------------------------------------------------------------------


def test_quadrature_and_ndimage_load_only_when_used():
    """Importing the package and its CLI leaves scipy.integrate and
    scipy.ndimage unloaded; the first sampled-cost expected cost loads the
    quadrature and matches the in-process value."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys, json\n"
        "import nlbs, nlbs.cli\n"
        "before = sorted(m for m in ('scipy.integrate', 'scipy.ndimage') if m in sys.modules)\n"
        "cost = nlbs.SampledCost(x=[0.0, 0.5, 1.0, 2.0], c=[0.004, 0.003, 0.002, 0.001], c_lower=0.0, c_upper=0.004)\n"
        "value = nlbs.expected_cost(cost, 0.7, 0.004)\n"
        "print(json.dumps([before, 'scipy.integrate' in sys.modules, value.hex()]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    before, loaded, value = json.loads(proc.stdout)
    assert before == []
    assert loaded
    cost = SampledCost(x=[0.0, 0.5, 1.0, 2.0], c=[0.004, 0.003, 0.002, 0.001], c_lower=0.0, c_upper=0.004)
    assert float.fromhex(value) == expected_cost(cost, 0.7, 0.004)
