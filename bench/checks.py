"""Output checks, made apart from the program under test.

Nothing here imports ``nlbs``.  Each check compares an output with a
computation of the benchmark's own (a closed form whose bivariate normal comes
from Owen's T function, a finite-difference derivative of the pricing
operator, the Leland number) or with a property the method must have
(bounds, sign of the cost term, monotonicity in the rebalancing interval,
first-order grid convergence).  Each returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.integrate import quad
from scipy.ndimage import binary_dilation
from scipy.special import ndtr, owens_t

from inputs import leland

# Roundoff allowed on the bounds and comparisons of price surfaces (absolute,
# in payoff units).  The largest breach measured on the shipped configs is the
# -4.4e-10 corner value of config 1.
ROUNDOFF = 1e-9
# Accepted error ratio per doubling of nx = nt (first order: 2).
REFINE_RATIO = (1.5, 2.5)
# Finite-difference check of the scan: step relative to the largest Hessian
# entry, accepted eigenvalue gap relative to the largest derivative entry, and
# the nodes it samples.  The derivative grows like 1/sqrt(Theta), so below
# FD_THETA_MIN a central difference at this step is itself off by up to 0.2
# of scale (measured on config 1); at or above it the largest gap measured
# was 5.5e-6.
FD_STEP = 1e-5
FD_TOL = 1e-4
FD_THETA_MIN = 1e-8
FD_SAMPLE = 32
LELAND_REL_TOL = 1e-5  # the CLI prints Le with 6 significant digits


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a numeric CSV file written by nlbs (empty cells: NaN)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    return header, data


def read_surface(path) -> np.ndarray:
    """The value column of a surface CSV (x1, x2, S1, S2, value) as a square array."""
    _, data = read_csv(path)
    n1 = math.isqrt(data.shape[0])
    if n1 * n1 != data.shape[0]:
        raise ValueError(f"{path}: {data.shape[0]} rows is not a square grid")
    return data[:, 4].reshape(n1, n1)


def grid_axis(grid: dict) -> np.ndarray:
    return np.linspace(grid["a"], grid["b"], grid["nx"] + 1)


# ---------------------------------------------------------------------------
# closed-form zero-cost price
# ---------------------------------------------------------------------------


def bvn_lower(h, k, rho: float) -> np.ndarray:
    """P(X < h, Y < k) for a standard bivariate normal, by Owen's T function."""
    h, k = np.broadcast_arrays(np.asarray(h, float), np.asarray(k, float))
    s = math.sqrt(1.0 - rho * rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ah = np.where(h != 0.0, (k - rho * h) / (h * s), 0.0)
        ak = np.where(k != 0.0, (h - rho * k) / (k * s), 0.0)
    hk = h * k
    beta = np.where((hk < 0.0) | ((hk == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    return 0.5 * ndtr(h) + 0.5 * ndtr(k) - owens_t(h, ah) - owens_t(k, ak) - beta


def closed_form(s1, s2, tau: float, cfg: dict) -> np.ndarray:
    """K e^{-r tau} P(max(S1, S2) >= X at maturity), zero transaction cost."""
    m, p = cfg["market"], cfg["payoff"]
    sig1, sig2 = m["sigmas"]
    r, x = m["r"], p["X"]
    z1 = (np.log(s1 / x) + (r - sig1 * sig1 / 2.0) * tau) / (sig1 * math.sqrt(tau))
    z2 = (np.log(s2 / x) + (r - sig2 * sig2 / 2.0) * tau) / (sig2 * math.sqrt(tau))
    return p["K"] * math.exp(-r * tau) * (1.0 - bvn_lower(-z1, -z2, m["rho"]))


def benchmark_error(surface: np.ndarray, cfg: dict, band: int = 2) -> float:
    """Peak-normalized max error against the closed form at tau = T.

    Leaves out the boundary ring and every node within ``band`` cells
    (Chebyshev distance) of a node whose payoff differs from a neighbour's.
    """
    spots = np.exp(grid_axis(cfg["grid"]))
    ana = closed_form(spots[:, None], spots[None, :], cfg["market"]["T"], cfg)
    pay = np.maximum(spots[:, None], spots[None, :]) >= cfg["payoff"]["X"]
    jump = np.zeros_like(pay)
    jump[:-1, :] |= pay[:-1, :] != pay[1:, :]
    jump[1:, :] |= pay[:-1, :] != pay[1:, :]
    jump[:, :-1] |= pay[:, :-1] != pay[:, 1:]
    jump[:, 1:] |= pay[:, :-1] != pay[:, 1:]
    keep = ~binary_dilation(jump, structure=np.ones((3, 3), bool), iterations=band)
    keep[0, :] = keep[-1, :] = keep[:, 0] = keep[:, -1] = False
    return float(np.abs(surface - ana)[keep].max() / ana[keep].max())


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _bounds(name: str, values: np.ndarray, upper: float) -> list[str]:
    if not np.all(np.isfinite(values)):
        return [f"{name}: non-finite values"]
    lo, hi = float(values.min()), float(values.max())
    if lo < -ROUNDOFF or hi > upper + ROUNDOFF:
        return [f"{name}: values span [{lo:.3e}, {hi:.6g}], outside [0, {upper:g}]"]
    return []


def check_price(surface: np.ndarray, cost_field: np.ndarray, zero_cost: np.ndarray, K: float) -> list[str]:
    """A costed surface: in [0, K], G >= 0 and zero on the ring, below zero cost."""
    problems = _bounds("surface", surface, K)
    if not np.all(np.isfinite(cost_field)) or cost_field.min() < 0.0:
        problems.append("cost_field: negative or non-finite values")
    ring = np.concatenate([cost_field[0], cost_field[-1], cost_field[:, 0], cost_field[:, -1]])
    if np.any(ring != 0.0):
        problems.append("cost_field: nonzero on the boundary ring")
    if surface.shape != zero_cost.shape:
        return problems + [f"surface shape {surface.shape} differs from zero-cost {zero_cost.shape}"]
    excess = float(np.max(surface - zero_cost))
    if not excess <= ROUNDOFF:
        problems.append(f"surface exceeds the zero-cost surface by {excess:.3e}")
    return problems


def check_refine(surfaces: list[np.ndarray], reported: list[float], cfgs: list[dict]) -> list[str]:
    """A zero-cost ladder: bounds, the reported error, first-order convergence."""
    problems: list[str] = []
    errors = []
    for surface, rep, cfg in zip(surfaces, reported, cfgs):
        n = cfg["grid"]["nx"]
        problems += _bounds(f"nx={n} surface", surface, cfg["payoff"]["K"])
        err = benchmark_error(surface, cfg)
        errors.append(err)
        if not abs(rep - err) <= 1e-8 * err:
            problems.append(f"nx={n}: reported error {rep!r} differs from closed-form error {err!r}")
    for k in range(1, len(cfgs) - 1):
        if cfgs[k]["grid"]["nx"] < 100:
            continue
        ratio = errors[k] / errors[k + 1]
        if not REFINE_RATIO[0] <= ratio <= REFINE_RATIO[1]:
            problems.append(
                f"error ratio {ratio:.3f} from nx={cfgs[k]['grid']['nx']} to "
                f"{cfgs[k + 1]['grid']['nx']} is outside {REFINE_RATIO}"
            )
    return problems


def _cost_fn(cost: dict):
    if cost["type"] == "exponential":
        c0, k = cost["C0"], cost["k"]
        return lambda x: c0 * math.exp(-k * x)
    if cost["type"] == "constant":
        return lambda x: cost["C0"]
    raise ValueError(f"no reference for cost type {cost['type']!r}")


def _expected_cost(cost_fn, theta: float, dt: float) -> float:
    """E[C(sqrt(dt)|phi|) |phi|] for phi ~ N(0, theta), by quadrature."""
    if theta <= 0.0:
        return 0.0
    root = math.sqrt(theta)
    val, _ = quad(
        lambda z: cost_fn(math.sqrt(dt) * root * z) * z * math.exp(-0.5 * z * z),
        0.0,
        np.inf,
        epsabs=1e-15,
        epsrel=1e-12,
        limit=300,
    )
    return 2.0 / math.sqrt(2.0 * math.pi) * root * val


def price_hessians(u: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, ...]:
    """Price-coordinate Hessians (b11, b12, b22) at the interior nodes of a log-grid surface.

    Central second differences, forward first differences and the
    four-corner mixed stencil: the stencils the scheme prices with.  Arrays
    are indexed [i - 1, j - 1] for grid node (i, j).
    """
    dx = axis[1] - axis[0]
    c = u[1:-1, 1:-1]
    ux = (u[2:, 1:-1] - c) / dx
    uy = (u[1:-1, 2:] - c) / dx
    uxx = (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / (dx * dx)
    uyy = (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / (dx * dx)
    uxy = (u[2:, 2:] + u[:-2, :-2] - u[2:, :-2] - u[:-2, 2:]) / (4.0 * dx * dx)
    s = np.exp(axis[1:-1])
    s1, s2 = s[:, None], s[None, :]
    return (uxx - ux) / (s1 * s1), uxy / (s1 * s2), (uyy - uy) / (s2 * s2)


def hedge_variances(b11, b12, b22, axis: np.ndarray, cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Theta_i = (B A B)_ii at the interior nodes, A_jk = sigma_j sigma_k rho_jk S_j S_k."""
    m = cfg["market"]
    sig1, sig2 = m["sigmas"]
    s = np.exp(axis[1:-1])
    a11 = (sig1 * s[:, None]) ** 2
    a22 = (sig2 * s[None, :]) ** 2
    a12 = m["rho"] * sig1 * sig2 * s[:, None] * s[None, :]
    theta1 = b11 * b11 * a11 + 2.0 * b11 * b12 * a12 + b12 * b12 * a22
    theta2 = b12 * b12 * a11 + 2.0 * b22 * b12 * a12 + b22 * b22 * a22
    return theta1, theta2


def fd_max_eigenvalue(b: np.ndarray, spots: np.ndarray, cfg: dict) -> tuple[float, float]:
    """Largest eigenvalue of the symmetrized finite-difference derivative dF/dB.

    F(B) = -tr(A B)/2 + sum_i S_i/sqrt(dt) E[C(sqrt(dt)|phi_i|)|phi_i|] with
    phi_i ~ N(0, (B A B)_ii); entries of B are perturbed one at a time.
    Returns the eigenvalue and the largest derivative entry (the scale).
    """
    m = cfg["market"]
    sig = np.asarray(m["sigmas"], float)
    rho = np.array([[1.0, m["rho"]], [m["rho"], 1.0]])
    a = rho * np.outer(sig * spots, sig * spots)
    dt = cfg["dt_tc"]
    cost_fn = _cost_fn(cfg["cost"])

    def f(bb: np.ndarray) -> float:
        theta = np.diag(bb @ a @ bb)
        val = -0.5 * float(np.sum(a * bb))
        for i in range(2):
            val += spots[i] / math.sqrt(dt) * _expected_cost(cost_fn, float(theta[i]), dt)
        return val

    h = FD_STEP * float(np.abs(b).max())
    d = np.empty((2, 2))
    for l in range(2):
        for k in range(2):
            bp, bm = b.copy(), b.copy()
            bp[l, k] += h
            bm[l, k] -= h
            d[l, k] = (f(bp) - f(bm)) / (2.0 * h)
    return float(np.linalg.eigvalsh((d + d.T) / 2.0)[-1]), float(np.abs(d).max())


def check_leland(
    stdout: str, report: dict, nodes: np.ndarray, surface: np.ndarray, cfg: dict, rng: np.random.Generator
) -> list[str]:
    """A leland scan: printed Le numbers, node accounting, sampled eigenvalues.

    ``nodes`` holds the rows of ellipticity_nodes.csv (i, j, S1, S2,
    max_eigenvalue, degenerate, satisfied).  ``rng`` draws FD_SAMPLE checked
    nodes whose smaller Theta is at least FD_THETA_MIN; their eigenvalues are
    compared with finite differences of the operator.
    """
    problems: list[str] = []
    printed = [float(v) for v in re.findall(r"Le=([^:]+):", stdout)]
    want = [leland(s, cfg["cost"]["C0"], cfg["dt_tc"]) for s in cfg["market"]["sigmas"]]
    if len(printed) != len(want) or any(abs(p - w) > LELAND_REL_TOL * w for p, w in zip(printed, want)):
        problems.append(f"printed Le {printed} differ from sqrt(2/pi) 2 C0/(sigma sqrt(dt)) = {want}")
    n = cfg["grid"]["nx"]
    if report["n_checked"] + report["degenerate_count"] != (n - 1) ** 2:
        problems.append(
            f"n_checked {report['n_checked']} + degenerate {report['degenerate_count']} != {(n - 1) ** 2}"
        )
    if nodes.shape[0] != (n - 1) ** 2 or int((nodes[:, 5] == 0).sum()) != report["n_checked"]:
        return problems + ["node CSV does not list every interior node with the reported checked count"]

    axis = grid_axis(cfg["grid"])
    b11, b12, b22 = price_hessians(surface, axis)
    theta = np.minimum(*hedge_variances(b11, b12, b22, axis, cfg))
    ii, jj = nodes[:, 0].astype(int), nodes[:, 1].astype(int)
    eligible = np.flatnonzero((nodes[:, 5] == 0) & (theta[ii - 1, jj - 1] >= FD_THETA_MIN))
    if eligible.size < FD_SAMPLE:
        return problems + [f"only {eligible.size} checked nodes with Theta >= {FD_THETA_MIN:g}"]
    for row in nodes[rng.choice(eligible, FD_SAMPLE, replace=False)]:
        i, j = int(row[0]), int(row[1])
        b = np.array([[b11[i - 1, j - 1], b12[i - 1, j - 1]], [b12[i - 1, j - 1], b22[i - 1, j - 1]]])
        eig, scale = fd_max_eigenvalue(b, np.exp(axis[[i, j]]), cfg)
        if not abs(row[4] - eig) <= FD_TOL * scale:
            problems.append(
                f"node ({i}, {j}): max eigenvalue {float(row[4])!r} vs finite differences {eig!r} "
                f"(scale {scale:.3e})"
            )
    return problems


def snap(spot: float, grid: dict) -> int:
    dx = (grid["b"] - grid["a"]) / grid["nx"]
    return int(min(max(round((math.log(spot) - grid["a"]) / dx), 0), grid["nx"]))


def check_sweep(
    header: list[str],
    rows: np.ndarray,
    probe_nodes: list,
    cfg: dict,
    zero_cost: np.ndarray,
) -> list[str]:
    """A dt sweep: all rows converged, prices in [0, K], below zero cost, non-decreasing in dt."""
    problems: list[str] = []
    out = cfg["output"]
    dts, probes = out["dt_values"], out["probes"]
    K = cfg["payoff"]["K"]
    if rows.shape[0] != len(dts) or not np.array_equal(rows[:, 0], np.asarray(dts)):
        return [f"sweep.csv rows do not match the {len(dts)} requested intervals"]
    if not np.all(rows[:, 1] == 1.0):
        late = rows[rows[:, 1] != 1.0, 0].tolist()
        problems.append(f"rows not converged at max_iter={cfg['solver']['max_iter']}: dt={late}")
    nodes = [(snap(s1, cfg["grid"]), snap(s2, cfg["grid"])) for s1, s2 in probes]
    if [tuple(n) for n in probe_nodes] != nodes:
        problems.append(f"probe nodes {probe_nodes} differ from the snapped probes {nodes}")
    for k, (i, j) in enumerate(nodes):
        col = header.index(f"price_{k + 1}")
        price = rows[:, col]
        problems += _bounds(f"probe {k + 1} prices", price, K)
        if np.any(np.diff(price) < -ROUNDOFF):
            problems.append(f"probe {k + 1}: price decreases as dt grows: {price.tolist()}")
        if np.any(price > zero_cost[i, j] + ROUNDOFF):
            problems.append(f"probe {k + 1}: price above the zero-cost price {zero_cost[i, j]!r}")
    return problems
