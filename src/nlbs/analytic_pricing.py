"""Closed-form pricing for the two-asset cash-or-nothing best-of option.

Provides the univariate and bivariate normal CDFs and the closed-form price
of a digital option that pays ``K`` at maturity when ``max(S1, S2) >= X``.
The closed form is the risk-neutral benchmark the PDE engine is validated
against, so it is derived from first principles (joint lognormal law of the
two assets) rather than trusted from any single source:

    price = K e^{-r tau} [ M(z1, y; rho1) + M(z2, -y; rho2) ]

with d2-style deviates ``z_i = (ln(S_i/X) + (r - sigma_i^2/2) tau)/(sigma_i
sqrt(tau))``, the ratio deviate ``y = (ln(S1/S2) + (sigma_2^2 - sigma_1^2)
tau/2)/(sigma sqrt(tau))``, combined volatility ``sigma^2 = sigma_1^2 +
sigma_2^2 - 2 rho sigma_1 sigma_2`` and correlations ``rho1 = (sigma_1 - rho
sigma_2)/sigma``, ``rho2 = (sigma_2 - rho sigma_1)/sigma``.  The first term is
the probability that asset 1 finishes above X *and* above asset 2; the second
that asset 2 finishes above X and strictly above asset 1.  An equivalent
inclusion-exclusion identity,

    Phi(z1) + Phi(z2) - M(z1, z2; rho),

is used as an independent cross-check in the test suite.

An alternative legacy parametrization of the same payoff (deviates without
the risk-free drift, ratio deviate with +sigma^2 tau/2, correlations
``(sigma_i - rho)/sigma`` and negated in the CDF calls) circulates in some
derivations; it does not reproduce the risk-neutral price and can produce
|correlation| > 1.  The package does not implement it: ``tests/oracles.py``
keeps it, so that the test suite can show both defects.

The bivariate CDF is a port of the Drezner–Wesolowsky/Genz single-integral
algorithm with a 20-node Gauss–Legendre rule and the separate high-correlation
tail formulation, accurate to ~1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .market_model import (
    BestCashOrNothing,
    MarketParams,
    Scenario,
    ValidationError,
)

__all__ = [
    "univariate_cdf",
    "bivariate_cdf",
    "payoff",
    "CbestIntermediates",
    "cbest_intermediates",
    "cbest_price",
]

_TWO_PI = 2.0 * math.pi

# 20-node Gauss-Legendre rule on [-1, 1]; machine-accurate nodes/weights.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def univariate_cdf(x):
    """Standard normal CDF, vectorized (scipy.special.ndtr)."""
    return ndtr(x)


# ---------------------------------------------------------------------------
# bivariate normal CDF
# ---------------------------------------------------------------------------


def _bvn_upper(h, k, r):
    """P(X > h, Y > k) for standard bivariate normal with correlation r.

    Vectorized over h, k (same shape); r is a scalar with |r| < 1.
    Two branches:

    * |r| < 0.925: Drezner-Wesolowsky arcsine substitution reduces the
      probability to a single integral over the correlation path, handled by
      Gauss-Legendre quadrature plus the independent product term.
    * |r| >= 0.925: the integral is nearly singular, so integrate the
      complementary tail in the variable sqrt(1 - r^2) with an asymptotic
      expansion plus a Gauss-Legendre correction.
    """
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    hk = h * k

    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r)
        sn = np.sin(asr * (_GL_X + 1.0) / 2.0)  # (20,)
        # integrand over quadrature nodes, broadcast against grid of (h, k),
        # built in one buffer: the same operations in the same order
        ex = sn * hk[..., None]
        ex -= hs[..., None]
        ex /= 1.0 - sn * sn
        np.exp(ex, out=ex)
        bvn = ex @ _GL_W
        return bvn * asr / (2.0 * _TWO_PI) + ndtr(-h) * ndtr(-k)

    # high-correlation tail branch
    if r < 0.0:
        k = -k
        hk = -hk
    bvn = np.zeros_like(hk)
    if abs(r) < 1.0:
        a_s = (1.0 - r) * (1.0 + r)
        a = math.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -(bs / a_s + hk) / 2.0
        m1 = asr > -100.0
        bvn = np.where(
            m1,
            a
            * np.exp(np.maximum(asr, -745.0))
            * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_s * a_s / 5.0),
            0.0,
        )
        m2 = -hk < 100.0
        b = np.sqrt(bs)
        sp = math.sqrt(_TWO_PI) * ndtr(-b / a)
        bvn = bvn - np.where(
            m2,
            np.exp(np.maximum(-hk / 2.0, -745.0)) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0,
        )
        a = a / 2.0
        xs = (a * (_GL_X + 1.0)) ** 2  # (20,)
        rs = np.sqrt(1.0 - xs)
        asr1 = -(bs[..., None] / xs + hk[..., None]) / 2.0
        m3 = asr1 > -100.0
        sp1 = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
        ep = np.exp(-hk[..., None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
        terms = np.where(m3, np.exp(np.maximum(asr1, -745.0)) * (ep - sp1), 0.0)
        bvn = bvn + a * (terms @ _GL_W)
        bvn = -bvn / _TWO_PI
    if r > 0.0:
        return bvn + ndtr(-np.maximum(h, k))
    return -bvn + np.maximum(0.0, ndtr(-h) - ndtr(-k))


def bivariate_cdf(a, b, corr: float):
    """P(X <= a, Y <= b) for a standard bivariate normal with correlation corr.

    Vectorized over ``a`` and ``b`` (broadcast together); ``corr`` is a scalar
    with |corr| < 1.  ``+inf``/``-inf`` sentinels are resolved analytically
    (reduction to the univariate CDF / zero).  NaN arguments and degenerate
    correlations are rejected.
    """
    corr = float(corr)
    if not math.isfinite(corr) or abs(corr) >= 1.0:
        raise ValidationError("corr", f"degenerate correlation {corr}; need |corr| < 1")
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(np.isnan(a_arr)) or np.any(np.isnan(b_arr)):
        raise ValidationError("a", "bivariate_cdf arguments must not be NaN")

    out = np.empty(a_arr.shape, dtype=float)
    neg_inf = np.isneginf(a_arr) | np.isneginf(b_arr)
    a_inf = np.isposinf(a_arr)
    b_inf = np.isposinf(b_arr)
    core = ~(neg_inf | a_inf | b_inf)

    out[neg_inf] = 0.0
    # one argument at +inf: marginal of the other (two infs -> ndtr(inf) = 1)
    only_a = a_inf & ~neg_inf
    only_b = b_inf & ~neg_inf & ~a_inf
    out[only_a] = ndtr(b_arr[only_a])
    out[only_b] = ndtr(a_arr[only_b])
    if np.any(core):
        out[core] = _bvn_upper(-a_arr[core], -b_arr[core], corr)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def _bvn_closed(a, b, corr: float):
    """bivariate_cdf extended to corr = +-1 via the comonotone closed forms."""
    if corr >= 1.0 - 1e-12:
        return ndtr(np.minimum(a, b))
    if corr <= -1.0 + 1e-12:
        return np.maximum(0.0, ndtr(a) + ndtr(b) - 1.0)
    return bivariate_cdf(a, b, corr)


# ---------------------------------------------------------------------------
# payoff and closed-form price
# ---------------------------------------------------------------------------


def payoff(s1, s2, spec: BestCashOrNothing):
    """Terminal payoff: K if max(s1, s2) >= X else 0 (vectorized)."""
    return spec.value(s1, s2)


@dataclass(frozen=True)
class CbestIntermediates:
    """Deviates and correlations entering the closed-form best-of digital price.

    ``sigma_comb`` is the volatility of ln(S1/S2); ``y`` the deviate of the
    event {S1(T) >= S2(T)}; ``z1``/``z2`` the d2-style deviates of
    {S_i(T) >= X}; ``rho1``/``rho2`` the correlations used in the two
    bivariate-CDF terms.
    """

    sigma_comb: float
    y: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    rho1: float
    rho2: float


def _check_positive_spots(s1: np.ndarray, s2: np.ndarray) -> None:
    if np.any(~np.isfinite(s1)) or np.any(s1 <= 0.0):
        raise ValidationError("s1", "spot prices must be positive and finite")
    if np.any(~np.isfinite(s2)) or np.any(s2 <= 0.0):
        raise ValidationError("s2", "spot prices must be positive and finite")


def cbest_intermediates(
    s1,
    s2,
    tau: float,
    market: MarketParams,
    payoff_spec: BestCashOrNothing,
) -> CbestIntermediates:
    """Deviates/correlations of the closed form at time-to-maturity tau > 0."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    _check_positive_spots(s1, s2)
    tau = float(tau)
    if not math.isfinite(tau) or tau <= 0.0:
        raise ValidationError("tau", f"intermediates need positive time to maturity, got {tau}")
    if market.n_assets != 2:
        raise ValidationError("market.sigmas", "closed form is two-asset")

    sig1, sig2 = market.sigmas
    rho = float(market.rho[0, 1])
    x = payoff_spec.X
    rt = math.sqrt(tau)
    sigma_comb = math.sqrt(max(sig1 * sig1 + sig2 * sig2 - 2.0 * rho * sig1 * sig2, 0.0))

    z1 = (np.log(s1 / x) + (market.r - sig1 * sig1 / 2.0) * tau) / (sig1 * rt)
    z2 = (np.log(s2 / x) + (market.r - sig2 * sig2 / 2.0) * tau) / (sig2 * rt)
    if sigma_comb > 0.0:
        y = (np.log(s1 / s2) + (sig2 * sig2 - sig1 * sig1) * tau / 2.0) / (sigma_comb * rt)
        rho1 = (sig1 - rho * sig2) / sigma_comb
        rho2 = (sig2 - rho * sig1) / sigma_comb
    else:
        # identical dynamics: the ratio S1/S2 is frozen at its spot value
        y = np.where(s1 >= s2, np.inf, -np.inf)
        rho1 = rho2 = 0.0

    return CbestIntermediates(sigma_comb=sigma_comb, y=y, z1=z1, z2=z2, rho1=rho1, rho2=rho2)


def cbest_price(s1, s2, tau: float, scenario: Scenario):
    """Closed-form risk-neutral price of the best cash-or-nothing option.

    Vectorized over spots; ``tau`` (time to maturity) is a scalar.
    ``tau = 0`` returns the payoff.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0:
        raise ValidationError("tau", f"time to maturity must be nonnegative, got {tau}")
    scalar_in = s1.ndim == 0 and s2.ndim == 0
    if tau == 0.0:
        _check_positive_spots(s1, s2)
        out = scenario.payoff.value(s1, s2)
        return float(out) if scalar_in else out

    inter = cbest_intermediates(s1, s2, tau, scenario.market, scenario.payoff)
    disc = scenario.payoff.K * math.exp(-scenario.market.r * tau)
    # P(S1 >= X, S1 >= S2) + P(S2 >= X, S2 > S1)
    p = _bvn_closed(inter.z1, inter.y, inter.rho1) + _bvn_closed(inter.z2, -inter.y, inter.rho2)
    out = disc * p
    return float(out) if scalar_in else out
