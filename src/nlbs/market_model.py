"""Market parameters, transaction-cost models, payoffs, grids, and scenarios.

Everything downstream (closed-form pricing, the cost term, the Jacobian
classifier, the ADI solver, the CLI) consumes the validated containers defined
here.  Validation happens eagerly in ``__post_init__``: each container parses
its own numeric fields and checks their ranges, and every error names the
offending field by its config key (``market.sigmas``, ``cost.C0``,
``grid.a``, ``dt_tc``), so a bad config fails loudly at construction time
instead of producing NaNs three modules later.  :func:`validate` only checks
which keys each config section holds and builds the containers from them.

This module holds the package's one number parser: :func:`_numbers` (a
number, or lists of numbers where the field is a list; strings, booleans and
nulls are rejected; optionally of one exact shape), :func:`_bounded` (also
finite and above a bound) and :func:`_integer` (a whole number at least a
bound).  The containers, every public entry point that takes a number
(``leland_number``'s ``sigma``, ``cost_integrals``'s ``h``, a solve's ``tol``,
a surface's shape, ...) and the command line's ``solver`` and ``output``
keys all parse with them, each naming its own field.

All containers are frozen dataclasses; array-valued fields are stored as
read-only ``numpy`` arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Any, Literal, Mapping, Union

import numpy as np

__all__ = [
    "ValidationError",
    "CostDerivativeError",
    "MarketParams",
    "ConstantCost",
    "ExponentialCost",
    "SampledCost",
    "CostModel",
    "BestCashOrNothing",
    "GridSpec",
    "default_grid",
    "Scenario",
    "validate",
]


class ValidationError(ValueError):
    """Input rejected by a container; carries the offending field name."""

    def __init__(self, field_name: str, message: str) -> None:
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


class CostDerivativeError(ValidationError):
    """A cost model without derivative data was asked for its derivative."""


def _holds_bool(value: Any) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, (bool, np.bool_))


def _numbers(
    value: Any, qualified: str, ndims: tuple[int, ...] | None = (0,), shape: tuple[int, ...] | None = None
) -> Any:
    """``value`` as floats: a number (ndim 0) or nested lists of numbers.

    Strings, booleans (also inside a list), nulls and ragged lists are
    rejected, as is an array whose number of dimensions is not in ``ndims``
    (any number when ``ndims`` is None) or, when ``shape`` is given, whose
    shape is not ``shape``.  A float array comes back as it is, not copied.
    """
    if isinstance(value, float) and (ndims is None or 0 in ndims) and shape is None:
        return float(value)  # the per-node scalars stay out of numpy
    try:
        arr = np.asarray(value)
    except ValueError:
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValidationError(qualified, f"expected numbers, got {value!r}")
    if shape is not None:
        if arr.shape != shape:
            raise ValidationError(qualified, f"expected shape {shape}, got {arr.shape}")
    elif ndims is not None and arr.ndim not in ndims:
        want = " or ".join({0: "a number", 1: "a list of numbers", 2: "a matrix of numbers"}[d] for d in ndims)
        raise ValidationError(qualified, f"expected {want}, got {value!r}")
    return float(arr) if arr.ndim == 0 else arr.astype(float, copy=False)


def _bounded(
    value: Any, qualified: str, low: float, *, strict: bool = True, ndims: tuple[int, ...] | None = (0,)
) -> Any:
    """:func:`_numbers` of ``value``, every entry finite and above ``low``
    (at least ``low`` when not ``strict``); an empty list is rejected."""
    x = _numbers(value, qualified, ndims)
    if isinstance(x, float):
        ok = math.isfinite(x) and (x > low if strict else x >= low)
    else:
        ok = x.size > 0 and bool(np.isfinite(x).all()) and bool((x > low if strict else x >= low).all())
    if not ok:
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ValidationError(qualified, f"expected finite numbers{bound}, got {value!r}")
    return x


def _integer(value: Any, qualified: str, low: int) -> int:
    """:func:`_numbers` of ``value``, a whole number at least ``low``."""
    x = _numbers(value, qualified)
    if not (x.is_integer() and x >= low):
        raise ValidationError(qualified, f"expected an integer >= {low}, got {value!r}")
    return int(x)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# market
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketParams:
    """Risk-neutral market description for N lognormal assets.

    Attributes
    ----------
    sigmas:
        Per-asset volatilities, all strictly positive.
    rho:
        Correlation matrix.  A scalar is accepted for the two-asset case and
        expanded to ``[[1, rho], [rho, 1]]``.  Must be symmetric with unit
        diagonal and positive semidefinite (eigenvalue tolerance 1e-10).
    r:
        Risk-free rate (continuously compounded), nonnegative.
    T:
        Maturity in years, strictly positive.
    """

    sigmas: tuple[float, ...]
    rho: Any  # scalar or (N, N) array-like; normalized to ndarray below
    r: float
    T: float

    def __post_init__(self) -> None:
        sigmas = tuple(_bounded(self.sigmas, "market.sigmas", 0.0, ndims=(1,)).tolist())
        rho = _bounded(self.rho, "market.rho", -math.inf, ndims=(0, 2))
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "r", _bounded(self.r, "market.r", 0.0, strict=False))
        object.__setattr__(self, "T", _bounded(self.T, "market.T", 0.0))

        n = len(sigmas)
        if np.ndim(rho) == 0:
            if n != 2:
                raise ValidationError("market.sigmas", f"a scalar correlation needs exactly 2 volatilities, got {n}")
            rho = np.array([[1.0, rho], [rho, 1.0]])
        if rho.shape != (n, n):
            raise ValidationError("market.rho", f"expected shape ({n}, {n}), got {rho.shape}")
        if not np.allclose(rho, rho.T, atol=1e-12):
            raise ValidationError("market.rho", "correlation matrix must be symmetric")
        if not np.allclose(np.diag(rho), 1.0, atol=1e-12):
            raise ValidationError("market.rho", "correlation matrix must have unit diagonal")
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise ValidationError("market.rho", "correlation entries must lie in [-1, 1]")
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValidationError("market.rho", "correlation matrix not positive semidefinite")
        object.__setattr__(self, "rho", _readonly(rho))

    @property
    def n_assets(self) -> int:
        return len(self.sigmas)

    def diffusion_matrix(self, spots: np.ndarray) -> np.ndarray:
        """Diffusion coefficient matrix A with A[i, j] = sigma_i sigma_j rho_ij S_i S_j.

        ``spots`` of shape (..., n) gives a stack of matrices of shape (..., n, n).
        """
        spots = np.asarray(spots, dtype=float)
        if spots.shape[-1:] != (self.n_assets,):
            raise ValidationError("spots", f"expected shape (..., {self.n_assets}), got {spots.shape}")
        v = np.asarray(self.sigmas) * spots
        return v[..., :, None] * v[..., None, :] * self.rho


# ---------------------------------------------------------------------------
# transaction-cost models
# ---------------------------------------------------------------------------
#
# A cost model maps traded volume x >= 0 to the per-unit transaction cost
# C(x) >= 0.  The engine only ever evaluates C (and, for Jacobian work, C')
# at nonnegative arguments.


@dataclass(frozen=True)
class ConstantCost:
    """Proportional cost: C(x) = c0 for all volumes."""

    c0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", _bounded(self.c0, "cost.C0", 0.0, strict=False))

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(x, dtype=float), self.c0)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds of C over x >= 0."""
        return (self.c0, self.c0)


@dataclass(frozen=True)
class ExponentialCost:
    """Volume-discounted cost: C(x) = c0 * exp(-k x), decreasing in volume."""

    c0: float
    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", _bounded(self.c0, "cost.C0", 0.0, strict=False))
        object.__setattr__(self, "k", _bounded(self.k, "cost.k", 0.0, strict=False))

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.c0 * np.exp(-self.k * np.asarray(x, dtype=float))

    def derivative(self, x: np.ndarray) -> np.ndarray:
        return -self.k * self.c0 * np.exp(-self.k * np.asarray(x, dtype=float))

    def bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds of C over x >= 0 (lower = infimum, not attained for k > 0)."""
        return (0.0 if self.k > 0.0 else self.c0, self.c0)


@dataclass(frozen=True)
class SampledCost:
    """Tabulated cost curve with linear interpolation and flat extrapolation.

    Attributes
    ----------
    x:
        Strictly increasing sample volumes (at least two, all >= 0).
    c:
        Cost values at the sample volumes, inside [c_lower, c_upper].
    c_lower, c_upper:
        A-priori bounds on the cost function (0 <= c_lower <= c_upper).
    dc:
        Optional tabulated derivative values at the sample volumes.  Required
        only for Jacobian/classification work; ``derivative`` raises a
        :class:`CostDerivativeError` when absent.
    """

    x: Any
    c: Any
    c_lower: float
    c_upper: float
    dc: Any = None

    def __post_init__(self) -> None:
        x = _bounded(self.x, "cost.x", 0.0, strict=False, ndims=(1,))
        c = _bounded(self.c, "cost.c", -math.inf, ndims=(1,))
        lo = _bounded(self.c_lower, "cost.c_lower", 0.0, strict=False)
        hi = _bounded(self.c_upper, "cost.c_upper", 0.0, strict=False)
        dc = None if self.dc is None else _bounded(self.dc, "cost.dc", -math.inf, ndims=(1,))
        if x.size < 2 or np.any(np.diff(x) <= 0.0):
            raise ValidationError("cost.x", "need at least two strictly increasing sample volumes")
        if c.shape != x.shape:
            raise ValidationError("cost.c", f"expected shape {x.shape}, got {c.shape}")
        if lo > hi:
            raise ValidationError("cost.c_lower", f"bounds must satisfy c_lower <= c_upper, got ({lo}, {hi})")
        if np.any(c < lo - 1e-15) or np.any(c > hi + 1e-15):
            raise ValidationError("cost.c", "sampled values must lie within [c_lower, c_upper]")
        if dc is not None:
            if dc.shape != x.shape:
                raise ValidationError("cost.dc", f"expected shape {x.shape}, got {dc.shape}")
            dc = _readonly(dc)
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "c", _readonly(c))
        object.__setattr__(self, "c_lower", lo)
        object.__setattr__(self, "c_upper", hi)
        object.__setattr__(self, "dc", dc)

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.x, self.c)

    def derivative(self, x: np.ndarray) -> np.ndarray:
        if self.dc is None:
            raise CostDerivativeError("cost.dc", "cost derivative required but no derivative samples were given")
        return np.interp(np.asarray(x, dtype=float), self.x, self.dc)

    def bounds(self) -> tuple[float, float]:
        return (self.c_lower, self.c_upper)


CostModel = Union[ConstantCost, ExponentialCost, SampledCost]


# ---------------------------------------------------------------------------
# payoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestCashOrNothing:
    """Digital on the best performer: pays K at maturity if max(S1, S2) >= X."""

    K: float
    X: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", _bounded(self.K, "payoff.K", 0.0))
        object.__setattr__(self, "X", _bounded(self.X, "payoff.X", 0.0))

    def value(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        return self.cell_average(np.asarray(s1, dtype=float) < self.X, np.asarray(s2, dtype=float) < self.X)

    def cell_average(self, below1: np.ndarray, below2: np.ndarray) -> np.ndarray:
        """Mean payoff over a cell with shares below1, below2 of assets 1, 2 below
        X (0 or 1 pointwise): K unless both spots are below X."""
        return self.K * (1.0 - below1 * below2)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Square spatial grid [a, b]^2 with nx cells per axis and nt time steps.

    ``coord="log"`` means the axis holds log prices (spots are exp(axis));
    ``coord="price"`` uses prices directly and then requires a > 0.
    ``first_derivative`` is the first-difference stencil of every routine
    that differences a surface on this grid (the scheme's drift, the
    hedge-variance term, the cost source and the ellipticity scan):
    one-sided ``"forward"`` differences (default) or ``"central"`` ones.
    The config sets it with the key ``solver.first_derivative``.
    """

    a: float
    b: float
    nx: int = 100
    nt: int = 100
    coord: Literal["log", "price"] = "log"
    first_derivative: Literal["forward", "central"] = "forward"

    def __post_init__(self) -> None:
        a = _bounded(self.a, "grid.a", -math.inf)
        b = _bounded(self.b, "grid.b", a)  # b > a
        nx, nt = _integer(self.nx, "grid.nx", 4), _integer(self.nt, "grid.nt", 1)
        if self.coord not in ("log", "price"):
            raise ValidationError("grid.coord", f"expected 'log' or 'price', got {self.coord!r}")
        if self.coord == "price" and a <= 0.0:
            raise ValidationError("grid.a", f"price-coordinate grids need a > 0, got {a}")
        if self.first_derivative not in ("forward", "central"):
            message = f"expected one of ('forward', 'central'), got {self.first_derivative!r}"
            raise ValidationError("solver.first_derivative", message)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "nt", nt)

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.nx

    def axis(self) -> np.ndarray:
        """The nx+1 node coordinates, computed once per grid; read-only."""
        return self._nodes

    def spot_axis(self) -> np.ndarray:
        """The node spots (exp of the axis on a log grid), computed once; read-only."""
        return self._spots

    @functools.cached_property
    def _nodes(self) -> np.ndarray:
        return _readonly(np.linspace(self.a, self.b, self.nx + 1))

    @functools.cached_property
    def _spots(self) -> np.ndarray:
        return _readonly(np.exp(self._nodes)) if self.coord == "log" else self._nodes


def default_grid(market: MarketParams, payoff: BestCashOrNothing, nx: int = 100, nt: int = 100) -> GridSpec:
    """Log-price grid centered on ln(X), reaching 3 sigma_max sqrt(T) + 1 out."""
    half = 3.0 * max(market.sigmas) * math.sqrt(market.T) + 1.0
    center = math.log(payoff.X)
    return GridSpec(a=center - half, b=center + half, nx=nx, nt=nt, coord="log")


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A complete pricing problem: market + cost model + payoff + grid.

    ``dt_tc`` is the rebalancing interval of the hedger (e.g. 1/261 for daily
    rebalancing), distinct from the PDE time step.  ``grid`` defaults to log
    coordinates spanning ln(X) +- (3 sigma_max sqrt(T) + 1) with 100 space
    cells and 100 time steps.
    """

    market: MarketParams
    cost: CostModel
    payoff: BestCashOrNothing
    dt_tc: float
    grid: GridSpec | None = None

    def __post_init__(self) -> None:
        dt = _bounded(self.dt_tc, "dt_tc", 0.0)
        if not isinstance(self.market, MarketParams):
            raise ValidationError("market", f"expected MarketParams, got {type(self.market).__name__}")
        if not isinstance(self.cost, (ConstantCost, ExponentialCost, SampledCost)):
            raise ValidationError("cost", f"unknown cost model type {type(self.cost).__name__}")
        if not isinstance(self.payoff, BestCashOrNothing):
            raise ValidationError("payoff", f"expected BestCashOrNothing, got {type(self.payoff).__name__}")
        if self.market.n_assets != 2:
            raise ValidationError("market.sigmas", "the pricing engine is two-asset; provide exactly 2 volatilities")
        object.__setattr__(self, "dt_tc", dt)

        grid = self.grid
        if grid is None:
            grid = default_grid(self.market, self.payoff)
        elif not isinstance(grid, GridSpec):
            raise ValidationError("grid", f"expected GridSpec, got {type(grid).__name__}")
        object.__setattr__(self, "grid", grid)

    def with_dt(self, dt_tc: float) -> "Scenario":
        """Copy of this scenario with a different rebalancing interval."""
        return replace(self, dt_tc=dt_tc)

    def with_cost(self, cost: CostModel) -> "Scenario":
        return replace(self, cost=cost)

    def with_grid(self, grid: GridSpec) -> "Scenario":
        return replace(self, grid=grid)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

# the keys each section may hold; a cost section holds its type's keys and "type"
_MARKET_KEYS = ("sigmas", "rho", "r", "T")
_PAYOFF_KEYS = ("type", "K", "X")
_GRID_KEYS = ("a", "b", "nx", "nt", "coord")
_COST_KEYS = {
    "constant": ("C0", "c0"),
    "exponential": ("C0", "c0", "k"),
    "sampled": ("x", "c", "c_lower", "c_upper", "dc"),
}


def _require(section: Mapping[str, Any], key: str, qualified: str) -> Any:
    value = section.get(key)
    if value is None:
        raise ValidationError(qualified, "missing required field")
    return value


def _known_keys(section: Mapping[str, Any], name: str, known: tuple[str, ...]) -> None:
    """Reject a key of config section ``name`` that is not in ``known``."""
    for key in section:
        if key not in known:
            raise ValidationError(f"{name}.{key}", f"unknown key; expected one of {known}")


def _build_cost(section: Mapping[str, Any]) -> CostModel:
    kind = str(section.get("type", "")).lower()
    if kind not in _COST_KEYS:
        raise ValidationError("cost.type", f"expected one of {sorted(_COST_KEYS)}, got {kind!r}")
    _known_keys(section, "cost", ("type",) + _COST_KEYS[kind])
    if kind == "sampled":
        return SampledCost(
            x=_require(section, "x", "cost.x"),
            c=_require(section, "c", "cost.c"),
            c_lower=section.get("c_lower", 0.0),
            c_upper=_require(section, "c_upper", "cost.c_upper"),
            dc=section.get("dc"),
        )
    if "C0" in section and "c0" in section:
        raise ValidationError("cost.c0", "the cost level is already given as cost.C0; give one of the two")
    c0 = _require(section, "C0" if "C0" in section else "c0", "cost.C0")
    if kind == "constant":
        return ConstantCost(c0=c0)
    return ExponentialCost(c0=c0, k=_require(section, "k", "cost.k"))


def validate(raw: Mapping[str, Any]) -> Scenario:
    """Build a validated :class:`Scenario` from raw config fields.

    ``raw`` is a mapping with sections ``market``, ``cost``, ``payoff``,
    ``dt_tc`` and optional ``grid`` (the JSON config layout used by the
    CLI).  A key that a section does not define, or a required key left out,
    is rejected, naming ``section.key``; the containers check every value.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError("scenario", f"expected a mapping, got {type(raw).__name__}")

    for section in ("market", "cost", "payoff"):
        if section not in raw:
            raise ValidationError(section, "missing required section")
        if not isinstance(raw[section], Mapping):
            raise ValidationError(section, f"expected a mapping, got {type(raw[section]).__name__}")
    if "dt_tc" not in raw:
        raise ValidationError("dt_tc", "missing required field")

    m = raw["market"]
    _known_keys(m, "market", _MARKET_KEYS)
    market = MarketParams(**{key: _require(m, key, f"market.{key}") for key in _MARKET_KEYS})
    cost = _build_cost(raw["cost"])

    p = raw["payoff"]
    _known_keys(p, "payoff", _PAYOFF_KEYS)
    kind = str(p.get("type", "best_cash_or_nothing")).lower()
    if kind not in ("best_cash_or_nothing", "best-cash-or-nothing"):
        raise ValidationError("payoff.type", f"unsupported payoff type {kind!r}")
    payoff = BestCashOrNothing(K=_require(p, "K", "payoff.K"), X=_require(p, "X", "payoff.X"))

    grid = None
    if raw.get("grid") is not None:
        g = raw["grid"]
        if not isinstance(g, Mapping):
            raise ValidationError("grid", f"expected a mapping, got {type(g).__name__}")
        _known_keys(g, "grid", _GRID_KEYS)
        grid = GridSpec(**{**g, "a": _require(g, "a", "grid.a"), "b": _require(g, "b", "grid.b")})
    return Scenario(market=market, cost=cost, payoff=payoff, dt_tc=raw["dt_tc"], grid=grid)
