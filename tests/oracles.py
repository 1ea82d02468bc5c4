"""Independent reference implementations used to freeze and check test values.

Nothing here imports from the package at module level, and almost every
function re-derives its quantity from scratch (dense linear algebra, adaptive
quadrature, Monte Carlo, mpmath) so agreement with the package is evidence,
not tautology.  Three sections are different on purpose: the legacy closed
form and the summed-sensitivity operator derivative are defective variants
the package does not implement, kept here so the tests can pin their
defects; the lagged march composes the package's half-steps to pin the
structure of its fixed-point loop, and the allocating stage reference
re-evaluates a half-step's right-hand side from its coefficients as
whole-array expressions, to pin the in-place one's rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import dblquad, quad
from scipy.special import erfcx


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def dense_tridiagonal_solve(lower, diag, upper, rhs):
    """Solve the tridiagonal system by materializing the dense matrix."""
    n = len(diag)
    m = np.zeros((n, n))
    m[np.arange(n), np.arange(n)] = diag
    m[np.arange(1, n), np.arange(n - 1)] = lower
    m[np.arange(n - 1), np.arange(1, n)] = upper
    return np.linalg.solve(m, rhs)


def thomas_factor_loop(lower, diag, upper):
    """Thomas forward elimination as the textbook row loop: the multipliers
    ``w`` and pivots ``piv``.  The package's LAPACK factor must reproduce
    them bit for bit on the scheme's matrices."""
    n = diag.shape[0]
    piv = np.empty(n)
    w = np.empty(n - 1)
    piv[0] = diag[0]
    for k in range(1, n):
        w[k - 1] = lower[k - 1] / piv[k - 1]
        piv[k] = diag[k] - w[k - 1] * upper[k - 1]
    return w, piv


def thomas_apply_loop(w, piv, upper, rhs):
    """Thomas substitution as the textbook row loop, given the factor.

    ``w`` holds the elimination multipliers and ``piv`` the pivots of
    :func:`thomas_factor_loop`; rhs is (n,) or (n, m).  The package's LAPACK
    substitution must reproduce this loop bit for bit.
    """
    n = piv.shape[0]
    y = np.array(rhs, dtype=float)
    for k in range(1, n):
        y[k] -= w[k - 1] * y[k - 1]
    y[n - 1] /= piv[n - 1]
    for k in range(n - 2, -1, -1):
        y[k] = (y[k] - upper[k] * y[k + 1]) / piv[k]
    return y


def dilate_loop(mask: np.ndarray, times: int) -> np.ndarray:
    """Chebyshev dilation as ``times`` single steps, each OR-ing the eight shifts.

    ``compared_nodes``'s closed-form band must equal this dilation of the
    terminal indicator's neighbor changes.
    """
    out = mask.copy()
    for _ in range(times):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        grown[1:, 1:] |= out[:-1, :-1]
        grown[:-1, :-1] |= out[1:, 1:]
        grown[1:, :-1] |= out[:-1, 1:]
        grown[:-1, 1:] |= out[1:, :-1]
        out = grown
    return out


def induced_norm(a: np.ndarray, p) -> float:
    """Induced matrix p-norm from the definition (p in {1, 2, inf})."""
    a = np.asarray(a, dtype=float)
    if p == 1:
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if p == np.inf or p == "inf":
        return float(np.max(np.sum(np.abs(a), axis=1)))
    return float(np.max(np.linalg.svd(a, compute_uv=False)))


# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------


def phi_mp(x: float) -> float:
    """Standard normal CDF at 50 decimal digits via mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.ncdf(x))


def bvn_mp(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) at 30 decimal digits by mpmath quadrature of

    Phi(h) Phi(k) + 1/(2 pi) int_0^{asin rho} exp(-(h^2 - 2hk sin t + k^2)/(2 cos^2 t)) dt,

    the density integrated along the correlation path in the variable
    r = sin t, whose integrand stays bounded as |rho| -> 1.
    """
    with mpmath.workdps(30):
        h, k = mpmath.mpf(h), mpmath.mpf(k)

        def integrand(t):
            return mpmath.exp(-(h * h - 2 * h * k * mpmath.sin(t) + k * k) / (2 * mpmath.cos(t) ** 2))

        path = mpmath.quad(integrand, [0, mpmath.asin(rho)])
        return float(mpmath.ncdf(h) * mpmath.ncdf(k) + path / (2 * mpmath.pi))


def bvn_dblquad(h: float, k: float, rho: float) -> float:
    """P(Z1 <= h, Z2 <= k) by 2-D quadrature of the bivariate density."""
    det = 1.0 - rho * rho

    def density(y, x):
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    lo = -8.5
    val, err = dblquad(density, lo, h, lo, k, epsabs=1e-12, epsrel=1e-10)
    if err > 1e-8:
        raise RuntimeError(f"bvn dblquad error {err:.3e}")
    return val


def bvn_conditional(h: float, k: float, rho: float) -> float:
    """Same probability via the 1-D conditional-probability reduction."""
    s = math.sqrt(1.0 - rho * rho)

    def integrand(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * phi_fast((k - rho * t) / s)

    val, err = quad(integrand, -8.5, h, epsabs=1e-13, epsrel=1e-11, limit=200)
    if err > 1e-9:
        raise RuntimeError(f"bvn conditional quad error {err:.3e}")
    return val


def phi_fast(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bvn_upper_two_temporaries(h, k, r: float):
    """P(X > h, Y > k) by the Drezner-Wesolowsky (1990) arcsine
    substitution, for |r| < 0.925: a 20-node Gauss-Legendre sum over the
    correlation path plus the independent product term."""
    from scipy.special import ndtr

    gl_x, gl_w = np.polynomial.legendre.leggauss(20)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    hk = h * k
    hs = (h * h + k * k) / 2.0
    asr = math.asin(r)
    sn = np.sin(asr * (gl_x + 1.0) / 2.0)
    ex = np.exp(
        (sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn)
    )
    bvn = ex @ gl_w
    return bvn * asr / (2.0 * (2.0 * math.pi)) + ndtr(-h) * ndtr(-k)


# ---------------------------------------------------------------------------
# expected rebalancing cost
# ---------------------------------------------------------------------------


def expected_cost_quad(cost_fn, theta: float, dt: float) -> float:
    """E[C(sqrt(dt)|phi|) |phi|], phi ~ N(0, theta), by adaptive quadrature.

    Parametrized with phi = sqrt(theta) z, z standard normal:
    2/sqrt(2 pi) * sqrt(theta) * int_0^inf C(sqrt(dt theta) z) z e^{-z^2/2} dz.
    """
    if theta == 0.0:
        return 0.0
    root = math.sqrt(theta)

    def integrand(z):
        return cost_fn(math.sqrt(dt) * root * z) * z * math.exp(-0.5 * z * z)

    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-11, limit=300)
    if err > 1e-9 * max(abs(val), 1.0):
        raise RuntimeError(f"expected-cost quad error {err:.3e}")
    return 2.0 / math.sqrt(2.0 * math.pi) * root * val


def cost_integrals_quad(cost, h: float) -> tuple[float, float]:
    """(I1, I2) sensitivity integrals of a cost model by adaptive quadrature.

    I1 = int_0^inf C(h y) y e^{-y^2} dy and I2 = int_0^inf C'(h y) y^2 e^{-y^2} dy,
    with the quadrature settings the package used before the exponential
    closed forms; drop-in for ``nlbs.ellipticity.cost_integrals``.
    """
    results = []
    for integrand in (
        lambda y: float(cost.value(h * y)) * y * math.exp(-y * y),
        lambda y: float(cost.derivative(h * y)) * y * y * math.exp(-y * y),
    ):
        val, err = quad(integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-10, limit=200)
        if err > 1e-8 * max(abs(val), 1.0):
            raise RuntimeError(f"sensitivity-integral quad error {err:.3e}")
        results.append(val)
    return results[0], results[1]


def cost_integrals_mp(c0: float, k: float, h: float, dps: int = 30) -> tuple[float, float]:
    """(I1, I2) for exponential cost C(x) = c0 e^{-kx} by mpmath quadrature at ``dps`` digits."""
    with mpmath.workdps(dps):
        c0, k, h = mpmath.mpf(c0), mpmath.mpf(k), mpmath.mpf(h)
        # the integrands decay on the scale 1/(1 + k h); split there
        nodes = [0, 1 / (1 + k * h), mpmath.inf]
        i1 = mpmath.quad(lambda y: c0 * mpmath.exp(-k * h * y - y * y) * y, nodes)
        i2 = mpmath.quad(lambda y: -k * c0 * mpmath.exp(-k * h * y - y * y) * y * y, nodes)
        return float(i1), float(i2)


def sampled_integral_mp(x, v, h: float, n: int, dps: int = 30) -> float:
    """int_0^inf L(h y) y^n e^{-y^2} dy by mpmath quadrature at ``dps`` digits,
    L the linear interpolant of samples ``v`` at knots ``x``, flat outside them.

    The integration interval is split at every knot below y = 40 (where the
    weight is e^{-1600}) and at y = 1, 2, 4, 8.
    """
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(t)) for t in x]
        vs = [mpmath.mpf(float(t)) for t in v]
        h = mpmath.mpf(h)

        def interp(t):
            if t <= xs[0]:
                return vs[0]
            for j in range(len(xs) - 1):
                if t <= xs[j + 1]:
                    return vs[j] + (vs[j + 1] - vs[j]) * (t - xs[j]) / (xs[j + 1] - xs[j])
            return vs[-1]

        splits = {mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(4), mpmath.mpf(8)}
        if h > 0:
            splits |= {t / h for t in xs if t / h < 40}
        nodes = sorted(splits) + [mpmath.inf]
        return float(mpmath.quad(lambda y: interp(h * y) * y**n * mpmath.exp(-y * y), nodes))


def expected_cost_mc(cost_fn, theta: float, dt: float, draws: np.ndarray) -> float:
    """Monte Carlo E[C(sqrt(dt)|phi|) |phi|] from standard half-normal draws."""
    phi = math.sqrt(theta) * draws
    return float(np.mean(cost_fn(math.sqrt(dt) * phi) * phi))


# ---------------------------------------------------------------------------
# the cost source as expanded quadratic forms
# ---------------------------------------------------------------------------


def assemble_g_expanded(u: np.ndarray, scenario, first: str = "forward") -> np.ndarray:
    """Exponential-cost G on a grid from five derivative arrays and the expanded forms.

    Theta_1 = e^{-2x_1} (c1^2 s1^2 + 2 c1 uxy s1 s2 rho + uxy^2 s2^2) with
    c1 = uxx - ux on a log grid, (B A B)_11 on a price grid (Theta_2 alike),
    clamped at zero; E = c0 sqrt(Theta) sqrt(2/pi) J(k sqrt(dt Theta)).
    """
    grid, dx, dt = scenario.grid, scenario.grid.dx, scenario.dt_tc
    (s1, s2), rho = scenario.market.sigmas, float(scenario.market.rho[0, 1])

    def along0(v):  # first and second differences along axis 0, interior rows
        d1 = (v[2:] - v[1:-1]) / dx if first == "forward" else (v[2:] - v[:-2]) / (2.0 * dx)
        return d1, (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)

    ux, uxx = along0(u[:, 1:-1])
    uy, uyy = (d.T for d in along0(u[1:-1, :].T))
    uxy = (u[2:, 2:] + u[:-2, :-2] - u[2:, :-2] - u[:-2, 2:]) / (4.0 * dx * dx)
    x = grid.axis()[1:-1]
    if grid.coord == "log":
        c1, c2, w1, w2 = uxx - ux, uyy - uy, np.exp(-2.0 * x)[:, None], np.exp(-2.0 * x)[None, :]
        t1 = w1 * (c1 * c1 * s1 * s1 + 2.0 * c1 * uxy * s1 * s2 * rho + uxy * uxy * s2 * s2)
        t2 = w2 * (uxy * uxy * s1 * s1 + 2.0 * c2 * uxy * s1 * s2 * rho + c2 * c2 * s2 * s2)
    else:
        a11, a22 = (s1 * x[:, None]) ** 2, (s2 * x[None, :]) ** 2
        a12 = s1 * s2 * rho * x[:, None] * x[None, :]
        t1 = uxx * uxx * a11 + 2.0 * uxx * uxy * a12 + uxy * uxy * a22
        t2 = uxy * uxy * a11 + 2.0 * uyy * uxy * a12 + uyy * uyy * a22
    c0, k = scenario.cost.c0, scenario.cost.k

    def cost(theta):
        theta = np.maximum(theta, 0.0)
        q = k * np.sqrt(dt * theta)
        decay = 1.0 - math.sqrt(math.pi / 2.0) * q * erfcx(q / math.sqrt(2.0))
        return c0 * np.sqrt(theta) * math.sqrt(2.0 / math.pi) * decay

    spots = grid.spot_axis()[1:-1]
    g = np.zeros_like(u)
    g[1:-1, 1:-1] = (spots[:, None] * cost(t1) + spots[None, :] * cost(t2)) / math.sqrt(dt)
    return g


# ---------------------------------------------------------------------------
# hedging-volume variance (double-sum and log-coordinate routes)
# ---------------------------------------------------------------------------


def theta_double_sum(hessian: np.ndarray, spots: np.ndarray, sigmas, rho: np.ndarray) -> np.ndarray:
    """Theta_i = (B A B)_ii with A_jk = sigma_j sigma_k rho_jk S_j S_k, by loops."""
    b = np.asarray(hessian, dtype=float)
    s = np.asarray(spots, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    n = len(s)
    a = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            a[j, k] = sig[j] * sig[k] * rho[j][k] * s[j] * s[k]
    theta = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                theta[i] += b[i, j] * a[j, k] * b[k, i]
    return theta


def theta_log_coords(second: np.ndarray, grad: np.ndarray, x: np.ndarray, market) -> np.ndarray:
    """Theta_i from log-coordinate derivatives of the value surface.

    ``second`` is the log-coordinate second-derivative matrix U_{x_i x_j},
    ``grad`` the gradient U_{x_i}, ``x`` the log-price point and ``market``
    an ``nlbs.MarketParams``.  Uses the chain-rule expansion

        Theta_i = e^{-2 x_i} [ sum_{j!=i} sum_{k!=i} U_{x_i x_j} U_{x_i x_k}
                                 sigma_j sigma_k rho_jk
                   + 2 sum_{j!=i} U_{x_i x_j} (U_{x_i x_i} - U_{x_i})
                                 sigma_i sigma_j rho_ij
                   + (U_{x_i x_i} - U_{x_i})^2 sigma_i^2 ],

    a route independent of ``nlbs.dyf_matrix``'s (B A B)_ii and of the package's
    grid sum of squares.  A wrongly shaped argument raises the package's
    ``ValidationError`` naming it.
    """
    from nlbs import ValidationError

    u2, g, x = (np.asarray(a, dtype=float) for a in (second, grad, x))
    n = market.n_assets
    for name, arr, shape in (("second", u2, (n, n)), ("grad", g, (n,)), ("x", x, (n,))):
        if arr.shape != shape:
            raise ValidationError(name, f"expected shape {shape}, got {arr.shape}")
    sig = np.asarray(market.sigmas)
    rho = market.rho
    theta = np.empty(n)
    for i in range(n):
        ci = u2[i, i] - g[i]
        cross = 0.0
        corr = 0.0
        for j in range(n):
            if j == i:
                continue
            corr += 2.0 * u2[i, j] * ci * sig[i] * sig[j] * rho[i, j]
            for k in range(n):
                if k == i:
                    continue
                cross += u2[i, j] * u2[i, k] * sig[j] * sig[k] * rho[j, k]
        theta[i] = math.exp(-2.0 * x[i]) * (cross + corr + ci * ci * sig[i] * sig[i])
    return np.maximum(theta, 0.0)


# ---------------------------------------------------------------------------
# nonlinear spatial operator and its Hessian derivative (finite differences)
# ---------------------------------------------------------------------------


def operator_f(hessian: np.ndarray, spots, sigmas, rho, cost_fn, dt: float) -> float:
    """F(B) = -1/2 tr(A B) + sum_i S_i/sqrt(dt) E[C(sqrt(dt)|phi_i|)|phi_i|]."""
    b = np.asarray(hessian, dtype=float)
    s = np.asarray(spots, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    n = len(s)
    a = np.array([[sig[j] * sig[k] * rho[j][k] * s[j] * s[k] for k in range(n)] for j in range(n)])
    val = -0.5 * float(np.sum(a * b))
    theta = theta_double_sum(b, s, sig, rho)
    for i in range(n):
        val += s[i] / math.sqrt(dt) * expected_cost_quad(cost_fn, max(theta[i], 0.0), dt)
    return val


def fd_hessian_derivative(
    hessian: np.ndarray, spots, sigmas, rho, cost_fn, dt: float, step: float = 1e-6
) -> np.ndarray:
    """Central finite differences of F in each Hessian entry (entries independent)."""
    b = np.asarray(hessian, dtype=float)
    n = b.shape[0]
    out = np.empty((n, n))
    for l in range(n):
        for m in range(n):
            h = step * max(1.0, abs(b[l, m]))
            bp = b.copy()
            bp[l, m] += h
            bm = b.copy()
            bm[l, m] -= h
            fp = operator_f(bp, spots, sigmas, rho, cost_fn, dt)
            fm = operator_f(bm, spots, sigmas, rho, cost_fn, dt)
            out[l, m] = (fp - fm) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# dense ADI half-step (independent coefficient derivation)
# ---------------------------------------------------------------------------


def dense_half_step(
    u: np.ndarray,
    ring_out: np.ndarray,
    axis: int,
    sigmas,
    rho: float,
    r: float,
    grid_a: float,
    grid_b: float,
    coord: str,
    dtau: float,
    g: np.ndarray | None = None,
    first_derivative: str = "forward",
) -> np.ndarray:
    """One implicit-explicit half-step assembled as dense matrices.

    Interior equation, written for axis=0 (implicit direction x):

        (I - dtau Mx) h = u + dtau (My + C) u - dtau g

    Mx: sA^2/4 second difference + (r - sA^2/2)/2 first difference - r/2
        (log coordinates; price coordinates use sA^2 s^2/4 and r s/2),
    My: same along the other axis with sB, no -r/2 term,
    C:  s1 s2 rho / 2 four-corner mixed difference.
    Boundary values of the output level come from ``ring_out``.
    """
    n1 = u.shape[0]
    n = n1 - 1
    dx = (grid_b - grid_a) / n
    ax = np.linspace(grid_a, grid_b, n1)
    sig_a, sig_b = (sigmas[0], sigmas[1]) if axis == 0 else (sigmas[1], sigmas[0])

    def dir_weights(sig, node_s):
        if coord == "log":
            diff = sig * sig / 4.0
            drift = (r - sig * sig / 2.0) / 2.0
        else:
            diff = sig * sig * node_s * node_s / 4.0
            drift = r * node_s / 2.0
        return diff, drift

    size = n1 * n1

    def idx(i, j):
        return i * n1 + j

    impl = np.eye(size)
    expl = np.zeros((size, size))
    interior = []
    for i in range(1, n):
        for j in range(1, n):
            p = idx(i, j)
            interior.append(p)
            node_a = ax[i] if axis == 0 else ax[j]
            node_b = ax[j] if axis == 0 else ax[i]
            diff_a, drift_a = dir_weights(sig_a, node_a)
            diff_b, drift_b = dir_weights(sig_b, node_b)
            ia = (1, 0) if axis == 0 else (0, 1)
            ib = (0, 1) if axis == 0 else (1, 0)
            up_a = idx(i + ia[0], j + ia[1])
            dn_a = idx(i - ia[0], j - ia[1])
            up_b = idx(i + ib[0], j + ib[1])
            dn_b = idx(i - ib[0], j - ib[1])
            # implicit direction: I - dtau Mx
            impl[p, p] += dtau * (2.0 * diff_a / (dx * dx) + r / 2.0)
            impl[p, up_a] -= dtau * diff_a / (dx * dx)
            impl[p, dn_a] -= dtau * diff_a / (dx * dx)
            if first_derivative == "forward":
                impl[p, up_a] -= dtau * drift_a / dx
                impl[p, p] += dtau * drift_a / dx
            else:
                impl[p, up_a] -= dtau * drift_a / (2.0 * dx)
                impl[p, dn_a] += dtau * drift_a / (2.0 * dx)
            # explicit direction: dtau My
            expl[p, up_b] += dtau * diff_b / (dx * dx)
            expl[p, dn_b] += dtau * diff_b / (dx * dx)
            expl[p, p] -= 2.0 * dtau * diff_b / (dx * dx)
            if first_derivative == "forward":
                expl[p, up_b] += dtau * drift_b / dx
                expl[p, p] -= dtau * drift_b / dx
            else:
                expl[p, up_b] += dtau * drift_b / (2.0 * dx)
                expl[p, dn_b] -= dtau * drift_b / (2.0 * dx)
            # mixed term
            s1n = math.exp(ax[i]) if coord == "log" else ax[i]
            s2n = math.exp(ax[j]) if coord == "log" else ax[j]
            mc = (
                sigmas[0] * sigmas[1] * rho / 2.0
                if coord == "log"
                else sigmas[0] * sigmas[1] * rho * s1n * s2n / 2.0
            )
            w = dtau * mc / (4.0 * dx * dx)
            expl[p, idx(i + 1, j + 1)] += w
            expl[p, idx(i - 1, j - 1)] += w
            expl[p, idx(i + 1, j - 1)] -= w
            expl[p, idx(i - 1, j + 1)] -= w

    rhs = u.ravel() + expl @ u.ravel()
    if g is not None:
        rhs = rhs - dtau * g.ravel()
    # Dirichlet rows: output = ring_out on the boundary
    out_flat = ring_out.ravel().astype(float).copy()
    mask = np.zeros(size, dtype=bool)
    mask[interior] = True
    rhs = np.where(mask, rhs, out_flat)
    for p in range(size):
        if not mask[p]:
            impl[p, :] = 0.0
            impl[p, p] = 1.0
    sol = np.linalg.solve(impl, rhs)
    return sol.reshape(n1, n1)


# ---------------------------------------------------------------------------
# lognormal Monte Carlo for the closed-form benchmark
# ---------------------------------------------------------------------------


def cbest_mc(
    s1: float,
    s2: float,
    tau: float,
    K: float,
    X: float,
    sigmas,
    rho: float,
    r: float,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Risk-neutral MC price of the best-of cash-or-nothing; returns (mean, sem)."""
    z1 = rng.standard_normal(n_paths)
    z2 = rho * z1 + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n_paths)
    sig1, sig2 = sigmas
    t1 = s1 * np.exp((r - 0.5 * sig1 * sig1) * tau + sig1 * math.sqrt(tau) * z1)
    t2 = s2 * np.exp((r - 0.5 * sig2 * sig2) * tau + sig2 * math.sqrt(tau) * z2)
    pay = np.where(np.maximum(t1, t2) >= X, K, 0.0) * math.exp(-r * tau)
    return float(np.mean(pay)), float(np.std(pay) / math.sqrt(n_paths))


# ---------------------------------------------------------------------------
# two-term closed form of the best-of digital
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Intermediates:
    """Deviates and correlations of a two-term closed form.

    ``sigma_comb`` is the volatility of ln(S1/S2); ``y`` the deviate of the
    event {S1(T) >= S2(T)}; ``z1``/``z2`` the deviates of {S_i(T) >= X};
    ``rho1``/``rho2`` the correlations of the two bivariate-CDF terms.
    """

    sigma_comb: float
    y: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    rho1: float
    rho2: float


def cbest_intermediates(s1, s2, tau: float, market, payoff) -> Intermediates:
    """Risk-neutral deviates of the two-term form, for sigma_comb > 0.

    ``z_i = (ln(S_i/X) + (r - sigma_i^2/2) tau)/(sigma_i sqrt(tau))``,
    ``y = (ln(S1/S2) + (sigma_2^2 - sigma_1^2) tau/2)/(sigma_comb sqrt(tau))``,
    ``rho1 = (sigma_1 - rho sigma_2)/sigma_comb`` and ``rho2`` likewise.
    """
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    sig1, sig2 = market.sigmas
    rho = float(market.rho[0, 1])
    x = payoff.X
    rt = math.sqrt(tau)
    sigma_comb = math.sqrt(sig1 * sig1 + sig2 * sig2 - 2.0 * rho * sig1 * sig2)
    z1 = (np.log(s1 / x) + (market.r - sig1 * sig1 / 2.0) * tau) / (sig1 * rt)
    z2 = (np.log(s2 / x) + (market.r - sig2 * sig2 / 2.0) * tau) / (sig2 * rt)
    y = (np.log(s1 / s2) + (sig2 * sig2 - sig1 * sig1) * tau / 2.0) / (sigma_comb * rt)
    rho1 = (sig1 - rho * sig2) / sigma_comb
    rho2 = (sig2 - rho * sig1) / sigma_comb
    return Intermediates(sigma_comb=sigma_comb, y=y, z1=z1, z2=z2, rho1=rho1, rho2=rho2)


def bvn_reference(h: float, k: float, rho: float) -> float:
    """P(X <= h, Y <= k): the Drezner-Wesolowsky sum for |rho| < 0.925, the
    conditional quadrature above that."""
    if abs(rho) < 0.925:
        return float(bvn_upper_two_temporaries(np.array(-h), np.array(-k), rho))
    return bvn_conditional(h, k, rho)


def cbest_two_term_price(s1: float, s2: float, tau: float, scenario) -> float:
    """Best-of digital price at scalar spots, tau > 0, as two terms:

    K e^{-r tau} [M(z1, y; rho1) + M(z2, -y; rho2)],

    the probabilities that asset 1 finishes above X and above asset 2, and
    that asset 2 finishes above X and above asset 1.
    """
    inter = cbest_intermediates(s1, s2, tau, scenario.market, scenario.payoff)
    disc = scenario.payoff.K * math.exp(-scenario.market.r * tau)
    y = float(inter.y)
    p = bvn_reference(float(inter.z1), y, inter.rho1) + bvn_reference(float(inter.z2), -y, inter.rho2)
    return disc * p


# ---------------------------------------------------------------------------
# legacy closed-form parametrization (not risk-neutral)
# ---------------------------------------------------------------------------


def cbest_legacy_intermediates(s1, s2, tau: float, market, payoff) -> Intermediates:
    """Deviates of the legacy formula: no risk-free drift, +sigma^2 tau/2 in
    the ratio deviate, correlations (sigma_i - rho)/sigma_comb."""
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    sig1, sig2 = market.sigmas
    rho = float(market.rho[0, 1])
    x = payoff.X
    rt = math.sqrt(tau)
    sigma_comb = math.sqrt(max(sig1 * sig1 + sig2 * sig2 - 2.0 * rho * sig1 * sig2, 0.0))
    z1 = (np.log(s1 / x) + sig1 * sig1 * tau / 2.0) / (sig1 * rt)
    z2 = (np.log(s2 / x) + sig2 * sig2 * tau / 2.0) / (sig2 * rt)
    if sigma_comb > 0.0:
        y = (np.log(s1 / s2) + sigma_comb * sigma_comb * tau / 2.0) / (sigma_comb * rt)
        rho1 = (sig1 - rho) / sigma_comb
        rho2 = (sig2 - rho) / sigma_comb
    else:
        y = np.where(s1 >= s2, np.inf, -np.inf)
        rho1 = rho2 = 0.0
    return Intermediates(sigma_comb=sigma_comb, y=y, z1=z1, z2=z2, rho1=rho1, rho2=rho2)


def cbest_legacy_price(s1, s2, tau: float, scenario, bivariate_cdf) -> float:
    """Legacy best-of digital price at scalar spots, tau > 0.

    ``bivariate_cdf(a, b, corr)`` is the bivariate normal CDF to evaluate it
    with; the legacy correlations enter it negated.
    """
    inter = cbest_legacy_intermediates(s1, s2, tau, scenario.market, scenario.payoff)
    disc = scenario.payoff.K * math.exp(-scenario.market.r * tau)
    p = bivariate_cdf(inter.y, inter.z1, -inter.rho1) + bivariate_cdf(-inter.y, inter.z2, -inter.rho2)
    return float(disc * p)


# ---------------------------------------------------------------------------
# summed-sensitivity operator derivative (not the derivative of F)
# ---------------------------------------------------------------------------


def dyf_aggregate(inputs) -> np.ndarray:
    """D = -A/2 + (sum_i g_i) (A B + B A) for ``nlbs.DyfInputs``.

    Applies every asset's sensitivity g_i to the whole anticommutator instead
    of to that asset's row and column; it coincides with the derivative of F
    for a single asset only.
    """
    from nlbs.ellipticity import _sensitivities

    a = inputs.market.diffusion_matrix(inputs.spots)
    b = inputs.hessian
    theta = theta_double_sum(b, inputs.spots, inputs.market.sigmas, inputs.market.rho)
    g = _sensitivities(inputs.cost, inputs.spots, theta, inputs.dt)
    return -a / 2.0 + g.sum() * (a @ b + b @ a)


# ---------------------------------------------------------------------------
# single lagged march (the limit of the fixed-point iteration)
# ---------------------------------------------------------------------------


def lagged_march(scenario) -> np.ndarray:
    """Terminal surface of one march whose step m -> m+1 takes its source
    term from level m of the same march, level 0 included.

    Built from the package's pieces (the boundary data's initial level,
    edges and half-steps, the source assembly), one level at a time.
    """
    from nlbs import BoundaryData, assemble_G

    boundary = BoundaryData(scenario)
    u = boundary.level0
    for m in range(scenario.grid.nt):
        g = assemble_G(u, scenario)
        half = boundary.half_step(0, u, boundary.edges(2 * m + 1), out=np.empty_like(u))
        u = boundary.half_step(1, half, boundary.edges(2 * m + 2), g, out=np.empty_like(u))
    return u


# ---------------------------------------------------------------------------
# allocating stage reference
# ---------------------------------------------------------------------------


def stage_apply_reference(boundary, axis, w, edges, g=None) -> np.ndarray:
    """One half-step of ``boundary`` along ``axis``, each term a fresh array.

    Reads the boundary data's coefficients (explicit weights, mixed
    coefficient, tridiagonal matrix and lift) and evaluates the right-hand
    side in the order (((w + up E) + mid w) + dn W) + dtau (coeff
    (((NE + SW) - SE) - NW) / (4 dx^2)), then - dtau g; the lines are solved
    by the Thomas row loops.  ``edges`` are (bottom/top, left/right) column
    pairs, as the package's boundary data holds them; corners come from
    left/right.
    """
    n, dx = boundary.grid.nx, boundary.grid.dx
    orient = (lambda a: a) if axis == 0 else np.transpose
    ex, im = boundary.axes[1 - axis], boundary.axes[axis]
    f = orient(w)[1:-1].T  # the explicit direction along axis 0
    explicit = f[1:-1] + ex._up * f[2:] + ex._mid * f[1:-1] + ex._dn * f[:-2]
    corners = w[2:, 2:] + w[:-2, :-2] - w[2:, :-2] - w[:-2, 2:]
    mix = boundary._mixed_coeff * (corners / (4.0 * dx * dx))
    rhs = explicit.T + boundary.dtau * orient(mix)
    if g is not None:
        rhs = rhs - boundary.dtau * orient(g)[1:-1, 1:-1]
    out = np.empty((n + 1, n + 1))
    bottom_top, left_right = edges
    out[:, [0, -1]] = bottom_top
    out[[0, -1], :] = left_right.T
    ends = edges[1 - axis]
    rhs[0] -= im._lift[0] * ends[1:-1, 0]
    rhs[-1] -= im._lift[1] * ends[1:-1, 1]
    lower, diag, upper = im._tridiag
    orient(out)[1:-1, 1:-1] = thomas_apply_loop(*thomas_factor_loop(lower, diag, upper), upper, rhs)
    return out
