"""Closed-form pricing for the two-asset cash-or-nothing best-of option.

Provides the bivariate normal CDF and the closed-form price of a digital
option that pays ``K`` at maturity when ``max(S1, S2) >= X``.  The closed
form is the risk-neutral benchmark the PDE engine is validated against.  Under the joint lognormal law of the two assets the option pays
unless both finish below X, so by inclusion-exclusion

    price = K e^{-r tau} [ Phi(z1) + Phi(z2) - M(z1, z2; rho) ]

with d2-style deviates ``z_i = (ln(S_i/X) + (r - sigma_i^2/2) tau)/(sigma_i
sqrt(tau))`` (the probability that asset i finishes above X is Phi(z_i)) and
``M`` the bivariate normal CDF at the asset correlation ``rho``.  At rho = 1
the identity gives Phi(max(z1, z2)), and at rho = -1 min(1, Phi(z1) +
Phi(z2)).  The test suite checks it against an independent two-term route
(the probabilities that each asset finishes above X and above the other).

An alternative legacy parametrization of the same payoff (deviates without
the risk-free drift, ratio deviate with +sigma^2 tau/2, correlations
``(sigma_i - rho)/sigma`` and negated in the CDF calls) circulates in some
derivations; it does not reproduce the risk-neutral price and can produce
|correlation| > 1.  The package does not implement it: ``tests/oracles.py``
keeps it, so that the test suite can show both defects.

The bivariate CDF is Owen's (1956) identity in his T function,

    M(h, k; rho) = [Phi(h) + Phi(k)]/2 - T(h, a_h) - T(k, a_k) - beta,

with ``a_h = (k/h - rho)/sqrt(1 - rho^2)``, ``a_k`` likewise, and ``beta =
1/2`` when exactly one of h, k is negative (0 otherwise); T is
``scipy.special.owens_t``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, owens_t

from .market_model import Scenario, ValidationError, _bounded, _numbers

__all__ = [
    "bivariate_cdf",
    "cbest_price",
]


# ---------------------------------------------------------------------------
# bivariate normal CDF
# ---------------------------------------------------------------------------


def _bvn_owen(h, k, corr: float):
    """P(X <= h, Y <= k) for finite h, k and |corr| < 1, by Owen's T.

    At h = 0 the ratio k/h takes its limit sign(k) inf (1 at h = k = 0), and
    the result is clipped into the Frechet bounds, which rounding in the
    identity can leave by an ulp.
    """
    s = math.sqrt((1.0 - corr) * (1.0 + corr))
    ph, pk = ndtr(h), ndtr(k)

    def t_term(u, v):
        limit = np.where(v == 0.0, 1.0, np.copysign(np.inf, v))
        with np.errstate(over="ignore"):  # a ratio past the float range is its infinite limit
            ratio = np.divide(v, u, out=limit, where=u != 0.0)
            return owens_t(u, (ratio - corr) / s)

    beta = 0.5 * ((h < 0.0) != (k < 0.0))
    m = 0.5 * (ph + pk) - t_term(h, k) - t_term(k, h) - beta
    return np.clip(m, np.maximum(ph + pk - 1.0, 0.0), np.minimum(ph, pk), out=m)


def bivariate_cdf(a, b, corr: float):
    """P(X <= a, Y <= b) for a standard bivariate normal with correlation corr.

    Vectorized over ``a`` and ``b`` (broadcast together); ``corr`` is a scalar
    with |corr| < 1.  ``+inf``/``-inf`` sentinels are resolved analytically
    (reduction to the univariate CDF / zero).  NaN arguments and degenerate
    correlations are rejected.
    """
    corr = _numbers(corr, "corr")
    if not abs(corr) < 1.0:  # also NaN
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
        out[core] = _bvn_owen(a_arr[core], b_arr[core], corr)
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
# closed-form price
# ---------------------------------------------------------------------------


def cbest_price(s1, s2, tau: float, scenario: Scenario):
    """Closed-form risk-neutral price of the best cash-or-nothing option.

    Vectorized over spots; ``tau`` (time to maturity) is a nonnegative scalar.
    ``tau = 0`` returns the payoff.
    """
    tau = _bounded(tau, "tau", 0.0, strict=False)
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    for name, s in (("s1", s1), ("s2", s2)):
        if np.any(~np.isfinite(s)) or np.any(s <= 0.0):
            raise ValidationError(name, "spot prices must be positive and finite")
    scalar_in = s1.ndim == 0 and s2.ndim == 0
    market, spec = scenario.market, scenario.payoff
    if tau == 0.0:
        out = spec.value(s1, s2)
        return float(out) if scalar_in else out

    sig1, sig2 = market.sigmas
    rt = math.sqrt(tau)
    z1 = (np.log(s1 / spec.X) + (market.r - sig1 * sig1 / 2.0) * tau) / (sig1 * rt)
    z2 = (np.log(s2 / spec.X) + (market.r - sig2 * sig2 / 2.0) * tau) / (sig2 * rt)
    # P(S1 >= X) + P(S2 >= X) - P(both >= X), the last by symmetry of the normal law
    p = ndtr(z1) + ndtr(z2) - _bvn_closed(z1, z2, float(market.rho[0, 1]))
    out = spec.K * math.exp(-market.r * tau) * p
    return float(out) if scalar_in else out
