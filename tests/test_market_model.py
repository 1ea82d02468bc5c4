"""Validation-layer tests: market parameters, cost models, payoff, configs."""

import numpy as np
import pytest

from nlbs import (
    BestCashOrNothing,
    ConstantCost,
    CostDerivativeError,
    ExponentialCost,
    GridSpec,
    MarketParams,
    SampledCost,
    Scenario,
    ValidationError,
    validate,
)

from conftest import benchmark_scenario, load_config


def make_market(**kw):
    base = dict(sigmas=(0.3, 0.15), rho=0.5, r=0.08, T=1.0)
    base.update(kw)
    return MarketParams(**base)


# ---------------------------------------------------------------------------
# MarketParams
# ---------------------------------------------------------------------------


def test_scalar_rho_expands_to_matrix():
    m = make_market(rho=0.5)
    np.testing.assert_allclose(m.rho, [[1.0, 0.5], [0.5, 1.0]])
    assert m.n_assets == 2


def test_matrix_rho_accepted():
    m = make_market(rho=[[1.0, -0.3], [-0.3, 1.0]])
    assert m.rho[0, 1] == -0.3


def test_rho_matrix_is_readonly():
    m = make_market()
    with pytest.raises(ValueError):
        m.rho[0, 1] = 0.9


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(sigmas=(0.3, -0.15)), "sigmas"),
        (dict(sigmas=(0.3, 0.0)), "sigmas"),
        (dict(sigmas=()), "sigmas"),
        (dict(rho=[[1.0, 0.5], [0.4, 1.0]]), "rho"),
        (dict(rho=[[1.0, 1.2], [1.2, 1.0]]), "rho"),
        (dict(rho=[[0.9, 0.5], [0.5, 1.0]]), "rho"),
        (dict(rho=[[1.0, np.nan], [np.nan, 1.0]]), "rho"),
        (dict(rho=np.ones((3, 3))), "rho"),
        (dict(r=-0.01), "r"),
        (dict(r=np.inf), "r"),
        (dict(T=0.0), "T"),
        (dict(T=-1.0), "T"),
    ],
)
def test_market_validation_errors(kw, field):
    """MarketParams names the failing field by its config key, market.<field>."""
    with pytest.raises(ValidationError) as exc:
        make_market(**kw)
    assert exc.value.field == f"market.{field}"


def test_scalar_rho_needs_two_assets():
    with pytest.raises(ValidationError, match="scalar correlation"):
        MarketParams(sigmas=(0.2, 0.2, 0.2), rho=0.5, r=0.0, T=1.0)


def test_validation_error_str_carries_field():
    err = ValidationError("market.r", "bad value")
    assert err.field == "market.r"
    assert str(err) == "market.r: bad value"


def test_diffusion_matrix_against_explicit_loop():
    """A[i,j] = sigma_i sigma_j rho_ij S_i S_j, element by element."""
    rng = np.random.default_rng(42)
    for _ in range(50):
        sig = rng.uniform(0.05, 0.6, size=2)
        rho = rng.uniform(-0.95, 0.95)
        m = MarketParams(sigmas=tuple(sig), rho=rho, r=0.05, T=1.0)
        spots = rng.uniform(1.0, 80.0, size=2)
        a = m.diffusion_matrix(spots)
        expected = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                rij = 1.0 if i == j else rho
                expected[i, j] = sig[i] * sig[j] * rij * spots[i] * spots[j]
        np.testing.assert_allclose(a, expected, rtol=1e-14)
        # symmetric, positive diagonal
        assert a[0, 1] == a[1, 0]
        assert a[0, 0] > 0 and a[1, 1] > 0
    # a (..., n) stack of spots gives the stack of matrices, each as from its own call
    stack = rng.uniform(1.0, 80.0, size=(3, 4, 2))
    a = m.diffusion_matrix(stack)
    assert a.shape == (3, 4, 2, 2)
    for idx in np.ndindex(3, 4):
        np.testing.assert_array_equal(a[idx], m.diffusion_matrix(stack[idx]))


def test_diffusion_matrix_rejects_wrong_spot_count():
    m = make_market()
    with pytest.raises(ValidationError, match="spots"):
        m.diffusion_matrix(np.array([30.0, 30.0, 30.0]))


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


def test_constant_cost_basics():
    c = ConstantCost(c0=0.005)
    x = np.linspace(0.0, 10.0, 7)
    np.testing.assert_array_equal(c.value(x), np.full(7, 0.005))
    np.testing.assert_array_equal(c.derivative(x), np.zeros(7))
    assert c.bounds() == (0.005, 0.005)


def test_constant_cost_rejects_negative():
    with pytest.raises(ValidationError) as exc:
        ConstantCost(c0=-1e-9)
    assert exc.value.field == "cost.C0"


def test_exponential_cost_value_and_derivative():
    rng = np.random.default_rng(7)
    for _ in range(25):
        c0 = rng.uniform(1e-4, 0.05)
        k = rng.uniform(0.0, 3.0)
        cost = ExponentialCost(c0=c0, k=k)
        x = rng.uniform(0.0, 5.0, size=11)
        np.testing.assert_allclose(cost.value(x), c0 * np.exp(-k * x), rtol=1e-15)
        np.testing.assert_allclose(cost.derivative(x), -k * c0 * np.exp(-k * x), rtol=1e-15)


def test_exponential_cost_bounds():
    assert ExponentialCost(c0=0.01, k=1.0).bounds() == (0.0, 0.01)
    assert ExponentialCost(c0=0.01, k=0.0).bounds() == (0.01, 0.01)


def test_exponential_cost_validation():
    with pytest.raises(ValidationError, match="cost.C0"):
        ExponentialCost(c0=-0.1, k=1.0)
    with pytest.raises(ValidationError, match="cost.k"):
        ExponentialCost(c0=0.1, k=-1.0)


def test_sampled_cost_interpolates_and_extrapolates_flat():
    xs = np.array([0.0, 1.0, 2.0, 4.0])
    cs = np.array([0.010, 0.006, 0.004, 0.003])
    cost = SampledCost(x=xs, c=cs, c_lower=0.0, c_upper=0.010)
    np.testing.assert_allclose(cost.value(xs), cs)
    assert cost.value(0.5) == pytest.approx(0.008)
    assert cost.value(3.0) == pytest.approx(0.0035)
    # flat beyond the table on both sides
    assert cost.value(100.0) == 0.003
    assert cost.value(np.array([5.0, 50.0])).tolist() == [0.003, 0.003]
    assert cost.bounds() == (0.0, 0.010)


def test_sampled_cost_derivative_requires_samples():
    cost = SampledCost(x=[0.0, 1.0], c=[0.01, 0.005], c_lower=0.0, c_upper=0.01)
    with pytest.raises(CostDerivativeError) as exc:
        cost.derivative(0.5)
    assert exc.value.field == "cost.dc"
    assert isinstance(exc.value, ValidationError)

    with_dc = SampledCost(
        x=[0.0, 1.0], c=[0.01, 0.005], c_lower=0.0, c_upper=0.01, dc=[-0.005, -0.005]
    )
    assert with_dc.derivative(0.25) == pytest.approx(-0.005)


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(x=[0.0], c=[0.01]), "cost.x"),
        (dict(x=[1.0, 1.0], c=[0.01, 0.01]), "cost.x"),
        (dict(x=[-1.0, 1.0], c=[0.01, 0.01]), "cost.x"),
        (dict(x=[0.0, 1.0], c=[0.01, 0.005, 0.001]), "cost.c"),
        (dict(x=[0.0, 1.0], c=[0.02, 0.005]), "cost.c"),  # above c_upper
        (dict(x=[0.0, 1.0], c=[0.01, 0.005], c_lower=0.02), "cost.c_lower"),
        (dict(x=[0.0, 1.0], c=[0.01, 0.005], dc=[-1.0]), "cost.dc"),
        (dict(x=[0.0, 1.0], c=[0.01, 0.005], dc=[np.nan, 0.0]), "cost.dc"),
    ],
)
def test_sampled_cost_validation(kw, field):
    base = dict(c_lower=0.0, c_upper=0.01)
    base.update(kw)
    with pytest.raises(ValidationError) as exc:
        SampledCost(**base)
    assert exc.value.field == field


# ---------------------------------------------------------------------------
# payoff
# ---------------------------------------------------------------------------


def test_payoff_threshold_is_inclusive():
    p = BestCashOrNothing(K=5.0, X=30.0)
    assert p.value(30.0, 1.0) == 5.0
    assert p.value(1.0, 30.0) == 5.0
    assert p.value(29.999999, 29.999999) == 0.0
    assert p.value(1e6, 1e-6) == 5.0


def test_payoff_vectorized_grid():
    p = BestCashOrNothing(K=2.0, X=10.0)
    s = np.array([1.0, 10.0, 20.0])
    vals = p.value(s[:, None], s[None, :])
    expected = np.array([[0.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
    np.testing.assert_array_equal(vals, expected)


def test_payoff_validation():
    with pytest.raises(ValidationError, match="payoff.K"):
        BestCashOrNothing(K=0.0, X=30.0)
    with pytest.raises(ValidationError, match="payoff.X"):
        BestCashOrNothing(K=5.0, X=-30.0)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------


def test_scenario_gets_default_grid():
    scen = benchmark_scenario(1)
    g = scen.grid
    assert g is not None
    assert g.coord == "log" and g.nx == 100 and g.nt == 100
    # centered on ln(X), half-width 3 sigma_max sqrt(T) + 1
    assert g.a == pytest.approx(np.log(30.0) - (3 * 0.3 + 1.0))
    assert g.b == pytest.approx(np.log(30.0) + (3 * 0.3 + 1.0))


def test_scenario_with_helpers_return_modified_copies():
    scen = benchmark_scenario(1)
    s2 = scen.with_dt(0.001)
    assert s2.dt_tc == 0.001 and scen.dt_tc != 0.001
    assert s2.market is scen.market

    s3 = scen.with_cost(ConstantCost(c0=0.0))
    assert isinstance(s3.cost, ConstantCost) and isinstance(scen.cost, ExponentialCost)

    g = GridSpec(a=scen.grid.a, b=scen.grid.b, nx=20, nt=10)
    s4 = scen.with_grid(g)
    assert s4.grid.nx == 20 and scen.grid.nx == 100


def test_scenario_type_checks():
    m = make_market()
    cost = ConstantCost(c0=0.01)
    pay = BestCashOrNothing(K=5.0, X=30.0)
    with pytest.raises(ValidationError, match="market"):
        Scenario(market="not a market", cost=cost, payoff=pay, dt_tc=0.01)
    with pytest.raises(ValidationError, match="cost"):
        Scenario(market=m, cost=lambda x: x, payoff=pay, dt_tc=0.01)
    with pytest.raises(ValidationError, match="payoff"):
        Scenario(market=m, cost=cost, payoff=None, dt_tc=0.01)
    with pytest.raises(ValidationError, match="dt_tc"):
        Scenario(market=m, cost=cost, payoff=pay, dt_tc=0.0)
    with pytest.raises(ValidationError, match="grid"):
        Scenario(market=m, cost=cost, payoff=pay, dt_tc=0.01, grid="fine")


def test_scenario_requires_two_assets():
    m3 = MarketParams(sigmas=(0.2, 0.2, 0.2), rho=np.eye(3), r=0.05, T=1.0)
    with pytest.raises(ValidationError, match="two-asset"):
        Scenario(
            market=m3,
            cost=ConstantCost(c0=0.0),
            payoff=BestCashOrNothing(K=1.0, X=1.0),
            dt_tc=0.01,
        )


# ---------------------------------------------------------------------------
# validate() on raw configs
# ---------------------------------------------------------------------------


def test_validate_roundtrip_from_shipped_config():
    cfg = load_config(1)
    scen = validate(cfg)
    assert scen.market.sigmas == (0.3, 0.15)
    assert scen.market.rho[0, 1] == 0.5
    assert isinstance(scen.cost, ExponentialCost)
    assert scen.cost.c0 == 0.005 and scen.cost.k == 1.0
    assert scen.payoff.K == 5.0 and scen.payoff.X == 30.0
    assert scen.dt_tc == pytest.approx(1.0 / 261.0)


def test_validate_c0_alias():
    cfg = load_config(1)
    cfg["cost"] = {"type": "constant", "c0": 0.01}
    assert validate(cfg).cost.c0 == 0.01
    cfg["cost"] = {"type": "constant", "C0": 0.02}
    assert validate(cfg).cost.c0 == 0.02


def test_validate_payoff_type_spellings():
    cfg = load_config(1)
    cfg["payoff"] = {"type": "best-cash-or-nothing", "K": 5.0, "X": 30.0}
    assert validate(cfg).payoff.K == 5.0
    cfg["payoff"] = {"K": 5.0, "X": 30.0}  # type defaults
    assert validate(cfg).payoff.X == 30.0
    cfg["payoff"] = {"type": "vanilla_call", "K": 5.0, "X": 30.0}
    with pytest.raises(ValidationError, match="payoff.type"):
        validate(cfg)


def test_validate_grid_section():
    cfg = load_config(3)
    cfg["grid"] = {"a": 1.0, "b": 4.0, "nx": 24, "nt": 12}
    scen = validate(cfg)
    assert (scen.grid.a, scen.grid.b, scen.grid.nx, scen.grid.nt) == (1.0, 4.0, 24, 12)
    assert scen.grid.coord == "log"


def test_validate_sampled_cost_section():
    cfg = load_config(1)
    cfg["cost"] = {
        "type": "sampled",
        "x": [0.0, 1.0, 2.0],
        "c": [0.01, 0.006, 0.004],
        "c_upper": 0.01,
    }
    scen = validate(cfg)
    assert isinstance(scen.cost, SampledCost)
    assert scen.cost.c_lower == 0.0


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda c: c.pop("market"), "market"),
        (lambda c: c.pop("cost"), "cost"),
        (lambda c: c.pop("payoff"), "payoff"),
        (lambda c: c.pop("dt_tc"), "dt_tc"),
        (lambda c: c["market"].pop("sigmas"), "market.sigmas"),
        (lambda c: c["market"].pop("T"), "market.T"),
        (lambda c: c["cost"].pop("C0"), "cost.C0"),
        (lambda c: c["cost"].pop("k"), "cost.k"),
        (lambda c: c["cost"].update(type="quadratic"), "cost.type"),
        (lambda c: c["payoff"].pop("X"), "payoff.X"),
        (lambda c: c.update(market=7), "market"),
        (lambda c: c.update(grid="fine"), "grid"),
        (lambda c: c["cost"].update(c0=0.5), "cost.c0"),
        (lambda c: c.update(cost={"type": "constant", "C0": 0.01, "c0": 0.5}), "cost.c0"),
    ],
)
def test_validate_reports_the_failing_field(mutate, field):
    cfg = load_config(1)
    mutate(cfg)
    with pytest.raises(ValidationError) as exc:
        validate(cfg)
    assert exc.value.field == field


# valid keywords for each container, then each numeric field with the config key it is named by
_VALID = {
    MarketParams: dict(sigmas=(0.3, 0.15), rho=0.5, r=0.08, T=1.0),
    ConstantCost: dict(c0=0.005),
    ExponentialCost: dict(c0=0.005, k=1.0),
    SampledCost: dict(x=[0.0, 1.0], c=[0.01, 0.005], c_lower=0.0, c_upper=0.01, dc=[-0.005, -0.005]),
    BestCashOrNothing: dict(K=5.0, X=30.0),
    GridSpec: dict(a=1.5, b=5.3, nx=10, nt=4),
    Scenario: dict(
        market=make_market(), cost=ConstantCost(c0=0.0), payoff=BestCashOrNothing(K=5.0, X=30.0), dt_tc=0.01
    ),
}
_NUMERIC_FIELDS = [
    (MarketParams, "sigmas", "market.sigmas"),
    (MarketParams, "rho", "market.rho"),
    (MarketParams, "r", "market.r"),
    (MarketParams, "T", "market.T"),
    (ConstantCost, "c0", "cost.C0"),
    (ExponentialCost, "c0", "cost.C0"),
    (ExponentialCost, "k", "cost.k"),
    (SampledCost, "x", "cost.x"),
    (SampledCost, "c", "cost.c"),
    (SampledCost, "c_lower", "cost.c_lower"),
    (SampledCost, "c_upper", "cost.c_upper"),
    (SampledCost, "dc", "cost.dc"),
    (BestCashOrNothing, "K", "payoff.K"),
    (BestCashOrNothing, "X", "payoff.X"),
    (GridSpec, "a", "grid.a"),
    (GridSpec, "b", "grid.b"),
    (GridSpec, "nx", "grid.nx"),
    (GridSpec, "nt", "grid.nt"),
    (Scenario, "dt_tc", "dt_tc"),
]


@pytest.mark.parametrize(
    "bad", [True, "5", None, "x", [True, 1.0]], ids=["bool", "numeric_string", "null", "string", "bool_in_list"]
)
@pytest.mark.parametrize(
    "container,name,field", _NUMERIC_FIELDS, ids=[f"{c.__name__}.{name}" for c, name, _ in _NUMERIC_FIELDS]
)
def test_every_numeric_field_rejects_a_non_number(container, name, field, bad):
    """Each container parses its own numeric fields, naming the config key;
    a null ``dc`` is the one null that means something (no derivative)."""
    if (name, bad) == ("dc", None):
        assert container(**{**_VALID[container], name: bad}).dc is None
        return
    with pytest.raises(ValidationError) as exc:
        container(**{**_VALID[container], name: bad})
    assert exc.value.field == field


def test_validate_rejects_non_mapping():
    with pytest.raises(ValidationError, match="scenario"):
        validate([1, 2, 3])
