"""Scheme-level tests: tridiagonal solver and stage operators against dense
oracles, the boundary edge march, the time march, the fixed-point wrapper."""

import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv
from scipy.special import ndtr

from nlbs import (
    BestCashOrNothing,
    BoundaryData,
    ConstantCost,
    ConvergenceRecord,
    GridSpec,
    ValidationError,
    ZeroPivotError,
    assemble_G,
    default_grid,
    initial_condition,
    solve_nonlinear,
    sweep,
)
from nlbs.adi_solver import _Axis, _StageOperator, _tridiag_solve, _write_edges

import oracles
from conftest import benchmark_scenario, with_stencil


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_spec_accessors():
    g = GridSpec(a=0.0, b=2.0, nx=8, nt=5)
    assert g.dx == 0.25
    ax = g.axis()
    assert ax.shape == (9,) and ax[0] == 0.0 and ax[-1] == 2.0
    np.testing.assert_allclose(g.spot_axis(), np.exp(ax))
    price = GridSpec(a=1.0, b=9.0, nx=4, nt=1, coord="price")
    np.testing.assert_allclose(price.spot_axis(), price.axis())


def test_grid_axes_are_computed_once_and_read_only():
    g = GridSpec(a=0.0, b=2.0, nx=8, nt=5)
    assert g.axis() is g.axis() and g.spot_axis() is g.spot_axis()
    np.testing.assert_array_equal(g.axis(), np.linspace(0.0, 2.0, 9))
    np.testing.assert_array_equal(g.spot_axis(), np.exp(np.linspace(0.0, 2.0, 9)))
    price = GridSpec(a=1.0, b=9.0, nx=4, nt=1, coord="price")
    assert price.spot_axis() is price.axis()
    for arr in (g.axis(), g.spot_axis(), price.axis()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    # the cache is no field: equal grids stay equal and hash alike
    same = GridSpec(a=0.0, b=2.0, nx=8, nt=5)
    assert g == same and hash(g) == hash(same)


@pytest.mark.parametrize(
    "kw,field",
    [
        (dict(a=1.0, b=1.0), "grid.b"),
        (dict(a=1.0, b=0.0), "grid.b"),
        (dict(a=0.0, b=np.inf), "grid.b"),
        (dict(a=0.0, b=1.0, nx=3), "grid.nx"),
        (dict(a=0.0, b=1.0, nt=0), "grid.nt"),
        (dict(a=0.0, b=1.0, coord="spot"), "grid.coord"),
        (dict(a=-1.0, b=1.0, coord="price"), "grid.a"),
        (dict(a=1.0, b=2.0, nx=10.7, nt=3), "grid.nx"),
        (dict(a=1.0, b=2.0, nx=10, nt=3.9), "grid.nt"),
        (dict(a=1.0, b=2.0, nx=np.nan), "grid.nx"),
        (dict(a=1.0, b=2.0, nt="7"), "grid.nt"),
    ],
)
def test_grid_spec_validation(kw, field):
    with pytest.raises(ValidationError) as exc:
        GridSpec(**kw)
    assert exc.value.field == field


def test_default_grid_pinned_bounds():
    scen = benchmark_scenario(1)
    g = default_grid(scen.market, scen.payoff)
    assert g.a == pytest.approx(1.5011973816621555, abs=1e-15)
    assert g.b == pytest.approx(5.301197381662155, abs=1e-15)
    assert (g.nx, g.nt, g.coord) == (100, 100, "log")
    assert g.a + (g.b - g.a) / 2.0 == pytest.approx(math.log(30.0))


def test_grid_stencil_defaults_and_validation():
    """The first-difference stencil is a field of the grid: forward by
    default, central accepted, anything else rejected under its config key."""
    assert [f.name for f in fields(GridSpec)] == ["a", "b", "nx", "nt", "coord", "first_derivative"]
    assert GridSpec(a=1.0, b=2.0).first_derivative == "forward"
    assert GridSpec(a=1.0, b=2.0, first_derivative="central").first_derivative == "central"
    with pytest.raises(ValidationError, match="solver.first_derivative"):
        GridSpec(a=1.0, b=2.0, first_derivative="upwind")


# ---------------------------------------------------------------------------
# tridiagonal solver
# ---------------------------------------------------------------------------


def test_thomas_solve_against_dense_oracle():
    rng = np.random.default_rng(1729)
    for _ in range(60):
        n = rng.integers(3, 40)  # grid lines have at least 3 interior nodes
        lower = rng.normal(size=n - 1)
        upper = rng.normal(size=n - 1)
        diag = rng.normal(size=n)
        # make it strictly diagonally dominant
        diag += np.sign(diag) * (3.0 + np.abs(np.r_[lower, 0.0]) + np.abs(np.r_[0.0, upper]))
        rhs = rng.normal(size=(n, 1))
        ref = oracles.dense_tridiagonal_solve(lower, diag, upper, rhs)  # before rhs is solved in place
        ours = _tridiag_solve(lower, diag, upper, rhs)
        np.testing.assert_allclose(ours, ref, atol=1e-11)


def test_thomas_solve_matrix_rhs():
    rng = np.random.default_rng(4)
    n, m = 12, 5
    lower = rng.normal(size=n - 1)
    upper = rng.normal(size=n - 1)
    diag = 4.0 + np.abs(rng.normal(size=n))
    rhs = rng.normal(size=(n, m))
    out = _tridiag_solve(lower, diag, upper, rhs)
    assert out.shape == (n, m)
    for col in range(m):
        np.testing.assert_allclose(
            out[:, col], oracles.dense_tridiagonal_solve(lower, diag, upper, rhs[:, col]),
            atol=1e-11,
        )


def test_thomas_solve_zero_pivot():
    """Only a singular matrix stops the solve; ``dgtsv`` pivots past a zero diagonal."""
    with pytest.raises(ZeroPivotError, match="row 0"):
        _tridiag_solve(np.r_[0.0, 0.0], np.r_[0.0, 1.0, 1.0], np.r_[1.0, 1.0], np.ones((3, 1)))  # zero first column
    # elimination can also break down later: rows 0 and 1 are equal
    with pytest.raises(ZeroPivotError, match="row 1"):
        _tridiag_solve(np.r_[1.0, 0.0], np.r_[1.0, 1.0, 1.0], np.r_[1.0, 0.0], np.ones((3, 1)))
    # nonsingular: rows swap
    lower, diag, upper = np.r_[1.0, 1.0], np.r_[0.0, 1.0, 1.0], np.r_[1.0, 1.0]
    rhs = np.arange(1.0, 4.0)[:, None]
    ref = oracles.dense_tridiagonal_solve(lower, diag, upper, rhs)
    np.testing.assert_allclose(_tridiag_solve(lower, diag, upper, rhs), ref, atol=1e-15)


def assert_thomas_factor(lower, diag, upper):
    """``dgtsv`` interchanges no rows and eliminates to the Thomas loop's pivots, bit for bit.

    Without interchanges it zeroes each used subdiagonal entry, where an
    interchange would leave fill-in; the last one it leaves as it was.
    """
    du2, d, du, _, info = dgtsv(lower, diag, upper, np.zeros((diag.size, 1)))
    _, piv = oracles.thomas_factor_loop(lower, diag, upper)
    assert info == 0 and not du2[:-1].any() and du2[-1] == lower[-1]
    assert np.array_equal(d, piv) and np.array_equal(du, upper)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_thomas_apply_is_bit_identical_to_the_row_loop(layout):
    """Without row interchanges LAPACK's elimination and substitution repeat
    the loop's operations in its order; a Fortran-ordered rhs is solved in
    place, any other is left alone."""
    rng = np.random.default_rng(2718)
    for n in range(3, 61):
        lower = rng.normal(size=n - 1)
        upper = rng.normal(size=n - 1)
        diag = rng.normal(size=n)
        diag += np.sign(diag) * (3.0 + np.abs(np.r_[lower, 0.0]) + np.abs(np.r_[0.0, upper]))
        assert_thomas_factor(lower, diag, upper)
        rhs = np.asarray(rng.normal(size=(n, 7)), order=layout)
        kept = rhs.copy()
        expected = oracles.thomas_apply_loop(*oracles.thomas_factor_loop(lower, diag, upper), upper, rhs)
        out = _tridiag_solve(lower, diag, upper, rhs)
        assert np.array_equal(out, expected)
        if layout == "F":
            assert np.shares_memory(out, rhs)
        else:
            assert np.array_equal(rhs, kept)


def test_scheme_matrices_factor_without_row_interchanges():
    """On every direction's matrix over configs 1-3, both stencils, log and
    price grids, nx in {8, 16, 40, 100, 400} and nt in {1, 16, 100, 400},
    ``dgtsv`` interchanges no rows and its pivots are the Thomas loop's."""
    matrices = []
    for config in (1, 2, 3):
        scen = benchmark_scenario(config)
        g, market = scen.grid, scen.market
        for nx, nt, coord in itertools.product((8, 16, 40, 100, 400), (1, 16, 100, 400), ("log", "price")):
            a, b = (g.a, g.b) if coord == "log" else (math.exp(g.a), math.exp(g.b))
            for sigma, first in itertools.product(market.sigmas, ("forward", "central")):
                grid = GridSpec(a=a, b=b, nx=nx, nt=nt, coord=coord, first_derivative=first)
                matrices.append(_Axis(grid, market.r, sigma, market.T / nt)._tridiag)
    assert len(matrices) == 480
    for lower, diag, upper in matrices:
        assert_thomas_factor(lower, diag, upper)


# ---------------------------------------------------------------------------
# initial condition
# ---------------------------------------------------------------------------


def cell_lattice(grid, m):
    """Spots of an m-point midpoint lattice of each node's cell [x - dx/2, x + dx/2],
    uniform in the grid's coordinate, shape (nx+1, m)."""
    pts = grid.axis()[:, None] + ((np.arange(m) + 0.5) / m - 0.5) * grid.dx
    return np.exp(pts) if grid.coord == "log" else pts


# (coord, a, b, nx, X): ln X on a node, ln X inside a node's cell 0.35 dx
# off the node, and a price grid with X inside a node's cell
CELL_GRIDS = {
    "log_node": ("log", math.log(30.0) - 1.5, math.log(30.0) + 1.5, 12, 30.0),
    "log_off_node": ("log", math.log(30.0) - 1.5875, math.log(30.0) + 1.4125, 12, 30.0),
    "price": ("price", 5.0, 60.0, 12, 30.0),
}


@pytest.mark.parametrize("case", sorted(CELL_GRIDS))
def test_initial_condition_is_the_exact_cell_average(case):
    """Each node carries the payoff's mean over its cell; a midpoint lattice
    with m points per axis places each axis's jump to within 1/(2m) of the
    cell, so it agrees within K/m."""
    coord, a, b, nx, x = CELL_GRIDS[case]
    grid = GridSpec(a=a, b=b, nx=nx, nt=1, coord=coord)
    payoff = BestCashOrNothing(K=5.0, X=x)
    u0 = initial_condition(grid, payoff)
    m = 100
    spots = cell_lattice(grid, m)
    means = payoff.value(spots[:, None, :, None], spots[None, :, None, :]).mean(axis=(2, 3))
    np.testing.assert_allclose(u0, means, rtol=0, atol=payoff.K / m)
    # a cell wholly on one side of X carries the payoff exactly
    c = math.log(x) if coord == "log" else x
    lo, hi = grid.axis() - grid.dx / 2, grid.axis() + grid.dx / 2
    assert np.all(u0[np.ix_(hi <= c, hi <= c)] == 0.0)
    assert np.all(u0[lo >= c, :] == payoff.K) and np.all(u0[:, lo >= c] == payoff.K)
    # only the row and column of the one cell that X cuts are fractional
    frac = (u0 > 0) & (u0 < payoff.K)
    assert frac.sum() == 2 * int((lo < c).sum()) - 1


# ---------------------------------------------------------------------------
# stage operators
# ---------------------------------------------------------------------------


def ring_edges(ring):
    """The edges of a dense (nx+1, nx+1) ring, as the stage operators take them."""
    return ring[:, [0, -1]], ring[[0, -1], :].T


def stage(scen, axis):
    """The stage operator along ``axis`` of a solve's scheme, with scratch of its own."""
    n = scen.grid.nx
    return _StageOperator(BoundaryData(scen), axis, np.empty((2, n - 1, n - 1)))


def test_stage_discounts_a_constant_surface_exactly():
    """Flat input: all space derivatives vanish, each half-step is a pure
    division by 1 + r dtau / 2."""
    scen = benchmark_scenario(1, nx=8, nt=4)
    dtau = scen.market.T / scen.grid.nt
    c = 3.7
    scale = 1.0 / (1.0 + scen.market.r * dtau / 2.0)
    u = np.full((9, 9), c)
    ring = np.full((9, 9), c * scale)
    for axis in (0, 1):
        out = stage(scen, axis).apply(u, ring_edges(ring), out=np.empty((9, 9)))
        np.testing.assert_allclose(out, c * scale, rtol=1e-14)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("first", ["forward", "central"])
@pytest.mark.parametrize("mixed", ["four_corner"])  # the one mixed stencil; keeps the test ids
def test_stage_matches_dense_oracle_log_grid(axis, first, mixed):
    scen = with_stencil(benchmark_scenario(1, nx=8, nt=4), first)
    grid = scen.grid
    dtau = scen.market.T / grid.nt
    rng = np.random.default_rng(10 * axis + (first == "central") * 5)
    u = rng.normal(size=(9, 9))
    ring = rng.normal(size=(9, 9))
    g = np.zeros((9, 9))
    g[1:-1, 1:-1] = rng.normal(size=(7, 7))
    ours = stage(scen, axis).apply(u, ring_edges(ring), g, out=np.empty((9, 9)))
    ref = oracles.dense_half_step(
        u, ring, axis, scen.market.sigmas, float(scen.market.rho[0, 1]), scen.market.r,
        grid.a, grid.b, "log", dtau, g=g, first_derivative=first,
    )
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_stage_matches_dense_oracle_price_grid():
    scen = benchmark_scenario(1, nx=8, nt=4).with_grid(
        GridSpec(a=5.0, b=60.0, nx=8, nt=4, coord="price")
    )
    dtau = scen.market.T / scen.grid.nt
    rng = np.random.default_rng(77)
    u = rng.normal(size=(9, 9))
    ring = rng.normal(size=(9, 9))
    for axis in (0, 1):
        ours = stage(scen, axis).apply(u, ring_edges(ring), out=np.empty((9, 9)))
        ref = oracles.dense_half_step(
            u, ring, axis, scen.market.sigmas, float(scen.market.rho[0, 1]),
            scen.market.r, 5.0, 60.0, "price", dtau,
        )
        np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_stage_output_keeps_the_ring():
    scen = benchmark_scenario(1, nx=8, nt=4)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(9, 9))
    ring = rng.normal(size=(9, 9))
    out = stage(scen, 0).apply(u, ring_edges(ring), out=np.empty((9, 9)))
    np.testing.assert_array_equal(out[0, :], ring[0, :])
    np.testing.assert_array_equal(out[-1, :], ring[-1, :])
    np.testing.assert_array_equal(out[1:-1, 0], ring[1:-1, 0])
    np.testing.assert_array_equal(out[1:-1, -1], ring[1:-1, -1])


def test_stage_rejects_wrong_shape():
    scen = benchmark_scenario(1, nx=8, nt=4)
    with pytest.raises(ValidationError, match="surface"):
        stage(scen, 0).apply(
            np.zeros((5, 5)), ring_edges(np.zeros((5, 5))), out=np.empty((5, 5))
        )


@pytest.mark.parametrize("with_g", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("first", ["forward", "central"])
@pytest.mark.parametrize("coord", ["log", "price"])
def test_stage_in_place_is_bit_identical_to_the_allocating_reference(coord, first, axis, with_g):
    """The in-place right-hand side keeps the whole-array expressions'
    operation order, so every rounding is the same; the two operators of a
    sweep share one scratch pair."""
    scen = benchmark_scenario(1, nx=12, nt=7)  # dtau = T/7: no scaling by it is exact
    if coord == "price":
        scen = scen.with_grid(GridSpec(a=5.0, b=60.0, nx=12, nt=7, coord="price"))
    bd = BoundaryData(with_stencil(scen, first))
    scratch = np.empty((2, 11, 11))
    ops = [_StageOperator(bd, ax, scratch) for ax in (0, 1)]
    rng = np.random.default_rng(100 + 8 * axis + 4 * (first == "central") + 2 * (coord == "price") + with_g)
    for _ in range(3):
        u, ring = rng.normal(size=(2, 13, 13))
        g = rng.normal(size=(13, 13)) if with_g else None
        out = np.empty((13, 13))
        assert ops[axis].apply(u, ring_edges(ring), g, out=out) is out
        assert np.array_equal(out, oracles.stage_apply_reference(ops[axis], u, ring_edges(ring), g))
        ops[1 - axis].apply(ring, ring_edges(u), out=np.empty((13, 13)))  # the other operator reuses the scratch


@pytest.mark.parametrize("config", [1, 2, 3])
def test_costed_sweep_is_the_loop_of_the_reference_stages(config):
    """A costed sweep with a source writes each level into its own slot of
    the block, bit-identical to the allocating reference stages."""
    scen = benchmark_scenario(config, nx=12, nt=7)
    bd = BoundaryData(scen)
    source = sweep(bd)
    block = sweep(bd, source)
    op_x, op_y = (_StageOperator(bd, axis, np.empty((2, 11, 11))) for axis in (0, 1))
    levels = [initial_condition(scen.grid, scen.payoff)]
    for m in range(scen.grid.nt):
        half = oracles.stage_apply_reference(op_x, levels[-1], bd.edges(2 * m + 1))
        g = assemble_G(source[m], scen)
        levels.append(oracles.stage_apply_reference(op_y, half, bd.edges(2 * m + 2), g))
    assert np.array_equal(block, np.stack(levels))
    assert block.base is None and block.flags.c_contiguous
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(block, 2))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------


def dense_ring(bd, h):
    """The edges of half level h on a dense (nx+1, nx+1) array with a zero interior."""
    n = bd.edges(h)[0].shape[0]
    ring = np.zeros((n, n))
    _write_edges(ring, bd.edges(h))
    return ring


def payoff_ring(scen):
    s = scen.grid.spot_axis()
    pay = scen.payoff.value(s[:, None], s[None, :]).copy()
    pay[1:-1, 1:-1] = 0.0
    return pay


def march(scen, source=None):
    """One sweep on its own boundary data."""
    return sweep(BoundaryData(scen), source)


def test_boundary_rings_are_cached():
    scen = benchmark_scenario(1, nx=8, nt=4)
    bd = BoundaryData(scen)
    assert bd.edges(3) is bd.edges(3)


# sha256 of the 2 nt + 1 dense rings of config 1 at nx = nt = 8, stacked;
# restated when the edge payoffs became exact cell averages (max abs change
# 0.5 = K/10 against the five-point subcell averages, at the edge node on ln X)
RING_SHA256 = {
    "edges_1d": "7918067a6e8408cf444a35c57f2a4f3a7690416c5c6393eb4868e3468d05772c",
}


@pytest.mark.parametrize("policy", sorted(RING_SHA256))
def test_boundary_rings_match_the_recorded_dense_rings(policy):
    scen = benchmark_scenario(1, nx=8, nt=8)
    bd = BoundaryData(scen)
    rings = np.stack([dense_ring(bd, h) for h in range(17)])
    assert hashlib.sha256(rings.tobytes()).hexdigest() == RING_SHA256[policy]


def _array_bytes(obj, seen=None) -> int:
    """Bytes of the distinct arrays held in dicts, lists and tuples under obj.

    A view counts with the whole array it keeps alive.
    """
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        owner = obj if obj.base is None else obj.base
        if id(owner) in seen:
            return 0
        seen.add(id(owner))
        return owner.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(item, seen) for item in obj)
    return 0


def test_boundary_data_keeps_only_the_edge_vectors():
    nx = nt = 40
    scen = benchmark_scenario(1, nx=nx, nt=nt)
    bd = BoundaryData(scen)
    sweep(bd)
    assert 0 < _array_bytes(vars(bd)) <= 4 * (2 * nt + 1) * (nx + 1) * 8
    for h in (0, 1, 2, nt, 2 * nt):
        bottom_top, left_right = bd.edges(h)
        assert bottom_top.shape == left_right.shape == (nx + 1, 2)
        dense = np.zeros((nx + 1, nx + 1))
        dense[:, 0], dense[:, -1] = bottom_top.T
        dense[0, :], dense[-1, :] = left_right.T
        assert np.array_equal(dense_ring(bd, h), dense)


# sha256 of the space-time block of one costed sweep at nx = nt = 20: the
# source of step m is assembled on level m of the linear sweep.  Restated
# when the initial and edge data became exact cell averages; max abs change
# against the five-point subcell averages: 0.5, 0.8, 0.6 (configs 1, 2, 3),
# K/10 each, at level 0 on the edge node at ln X.
COSTED_BLOCK_SHA256 = {
    1: "51abfa6eb50fba719c621f2a77a675f0e50dbe69ebff9823539dfc8e57fbcc60",
    2: "a1b0c4535b2c8b52cfa71dcf54ea3a86bafb9d7fcd36ce5227c094c6b25a00df",
    3: "e5877236d897495cb4082a675ba9494b379c58d67ed0889837bf4e82f0081630",
}


@pytest.mark.parametrize("config", [1, 2, 3])
def test_costed_sweep_block_is_bit_identical_to_the_recorded_one(config):
    scen = benchmark_scenario(config, nx=20, nt=20)
    block = march(scen, march(scen))
    assert hashlib.sha256(block.tobytes()).hexdigest() == COSTED_BLOCK_SHA256[config]


def test_edges_1d_level_zero_is_the_smoothed_edge_payoff():
    """Each edge carries the payoff's mean over its own asset's cell, the
    other asset at a domain end; an m-point midpoint lattice agrees within
    K/(2m)."""
    scen = benchmark_scenario(1, nx=12, nt=4)
    grid, payoff = scen.grid, scen.payoff
    bottom_top, left_right = BoundaryData(scen).edges(0)
    m = 100
    own, ends = cell_lattice(grid, m)[:, None, :], grid.spot_axis()[[0, -1]]
    tol = payoff.K / (2 * m)
    np.testing.assert_allclose(bottom_top, payoff.value(own, ends[:, None]).mean(axis=2), rtol=0, atol=tol)
    np.testing.assert_allclose(left_right, payoff.value(ends[:, None], own).mean(axis=2), rtol=0, atol=tol)
    assert ((bottom_top > 0) & (bottom_top < payoff.K)).sum() == 1  # ln X is a node
    # the pairs agree at the shared corners, and there equal the pointwise payoff
    corners = payoff.value(ends[:, None], ends[None, :])
    np.testing.assert_array_equal(bottom_top[[0, -1]], corners)
    np.testing.assert_array_equal(left_right[[0, -1]], corners.T)


def test_edges_1d_constant_payoff_reduces_to_scheme_discount():
    """Threshold below the whole domain: the payoff is K everywhere, the edge
    march must reproduce the scheme's own discount factor at every level."""
    scen = benchmark_scenario(1, nx=10, nt=5)
    low_x = type(scen.payoff)(K=5.0, X=math.exp(scen.grid.a) / 2.0)
    scen = type(scen)(
        market=scen.market, cost=scen.cost, payoff=low_x, dt_tc=scen.dt_tc, grid=scen.grid
    )
    dtau = scen.market.T / scen.grid.nt
    bd = BoundaryData(scen)
    for h in [0, 1, 2, 5, 10]:
        ref = payoff_ring(scen) * (1.0 + scen.market.r * dtau / 2.0) ** (-h)
        np.testing.assert_allclose(dense_ring(bd, h), ref, rtol=1e-12, atol=1e-13)


def test_edges_1d_corners_decay_by_half_step_discount():
    scen = benchmark_scenario(1, nx=10, nt=5)
    dtau = scen.market.T / scen.grid.nt
    bd = BoundaryData(scen)
    scale = 1.0 / (1.0 + scen.market.r * dtau / 2.0)
    k = scen.payoff.K
    for h in [1, 4, 10]:
        ring = dense_ring(bd, h)
        assert ring[0, 0] == pytest.approx(0.0, abs=1e-15)  # both spots far below X
        assert ring[-1, -1] == pytest.approx(k * scale**h, rel=1e-14)
        assert ring[-1, 0] == pytest.approx(k * scale**h, rel=1e-14)
        assert ring[0, -1] == pytest.approx(k * scale**h, rel=1e-14)


def test_edges_1d_zero_cost_edge_approaches_single_asset_digital():
    """On the bottom edge the second asset is pinned far below the threshold,
    so the edge march solves a plain one-asset digital."""
    scen = benchmark_scenario(1, nx=100, nt=100).with_cost(ConstantCost(c0=0.0))
    market = scen.market
    dtau = market.T / scen.grid.nt
    bd = BoundaryData(scen)
    ring = dense_ring(bd, 2 * scen.grid.nt)
    s = scen.grid.spot_axis()
    k, x = scen.payoff.K, scen.payoff.X

    for edge_vals, sigma in [(ring[:, 0], market.sigmas[0]), (ring[0, :], market.sigmas[1])]:
        d2 = (np.log(s / x) + (market.r - sigma**2 / 2.0) * market.T) / (
            sigma * math.sqrt(market.T)
        )
        ref = k * math.exp(-market.r * market.T) * ndtr(d2)
        keep = np.abs(np.log(s / x)) > 2.5 * scen.grid.dx  # skip the payoff kink
        keep[[0, -1]] = False  # corners only decay by the discount, they are not marched
        err = np.abs(edge_vals - ref)[keep].max() / k
        assert err < 0.02


# ---------------------------------------------------------------------------
# time march
# ---------------------------------------------------------------------------


def test_sweep_block_layout():
    scen = benchmark_scenario(1, nx=10, nt=6)
    bd = BoundaryData(scen)
    block = sweep(bd)
    assert block.shape == (7, 11, 11)
    np.testing.assert_array_equal(
        block[0], initial_condition(scen.grid, scen.payoff)
    )
    for m in [1, 3, 6]:
        ring = dense_ring(bd, 2 * m)
        np.testing.assert_allclose(block[m][:, 0], ring[:, 0], rtol=1e-12)
        np.testing.assert_allclose(block[m][0, :], ring[0, :], rtol=1e-12)


def test_sweep_assembles_the_source_once_per_step(monkeypatch):
    """Step m -> m+1 assembles its source once, on level m of the source block."""
    scen = benchmark_scenario(1, nx=8, nt=5)
    linear = march(scen)
    seen = []

    def zero_source(u, scenario):
        seen.append(u.copy())
        return np.zeros_like(u)

    monkeypatch.setattr("nlbs.adi_solver.assemble_G", zero_source)
    with_source = march(scen, linear)
    assert len(seen) == 5
    for m, u in enumerate(seen):
        np.testing.assert_array_equal(u, linear[m])
    np.testing.assert_array_equal(with_source, linear)  # zero source = no source


def test_sweep_positive_source_lowers_the_price(monkeypatch):
    scen = benchmark_scenario(1, nx=10, nt=5)
    g = np.zeros((11, 11))
    g[1:-1, 1:-1] = 0.5
    base = march(scen)
    monkeypatch.setattr("nlbs.adi_solver.assemble_G", lambda u, scenario: g)
    damped = march(scen, base)
    diff = base[-1][1:-1, 1:-1] - damped[-1][1:-1, 1:-1]
    assert np.all(diff > 0.0)


# ---------------------------------------------------------------------------
# fixed-point wrapper
# ---------------------------------------------------------------------------


def test_solve_zero_cost_returns_linear_solution_immediately():
    scen = benchmark_scenario(1, nx=10, nt=5).with_cost(ConstantCost(c0=0.0))
    res = solve_nonlinear(scen)
    assert res.converged and res.iterations == 1
    assert res.records == []
    np.testing.assert_array_equal(res.surface.values, res.block[-1])
    np.testing.assert_array_equal(res.block[-1], march(scen)[-1])


@pytest.mark.parametrize("nx,nt", [(200, 200), (120, 70)])
def test_zero_cost_solve_streams_the_march(nx, nt):
    """A zero-cost solve keeps the terminal level alone, bit-identical to
    the march built level by level from the package's pieces."""
    scen = benchmark_scenario(1, nx=nx, nt=nt).with_cost(ConstantCost(c0=0.0))
    res = solve_nonlinear(scen)
    assert res.block.shape == (1, nx + 1, nx + 1)
    np.testing.assert_array_equal(res.surface.values, oracles.lagged_march(scen))


def test_zero_cost_solve_memory_is_a_few_levels():
    scen = benchmark_scenario(1, nx=200, nt=200).with_cost(ConstantCost(c0=0.0))
    block_bytes = (scen.grid.nt + 1) * (scen.grid.nx + 1) ** 2 * 8
    tracemalloc.start()
    try:
        solve_nonlinear(scen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_bytes / 8


def test_sweep_keeps_its_block_only_when_costed():
    """A costed sweep keeps every level; a zero-cost one streams to the
    terminal level of the march built level by level."""
    scen = benchmark_scenario(2, nx=14, nt=9)
    assert march(scen).shape == march(scen, march(scen)).shape == (10, 15, 15)
    zero = scen.with_cost(ConstantCost(c0=0.0))
    last = march(zero)
    assert last.shape == (1, 15, 15)
    np.testing.assert_array_equal(last[0], oracles.lagged_march(zero))


def test_costed_solve_keeps_the_full_block():
    scen = benchmark_scenario(1, nx=12, nt=6)
    res = solve_nonlinear(scen, tol=1e-8)
    assert res.iterations >= 2
    assert res.block.shape == (7, 13, 13)
    np.testing.assert_array_equal(res.block[-1], res.surface.values)


def test_one_solve_builds_each_direction_once(monkeypatch):
    """The boundary data decides a solve's scheme: its step is T / nt, and
    its two directions serve the edge march and every sweep's stages."""
    scen = with_stencil(benchmark_scenario(1, nx=12, nt=6), "central")
    assert BoundaryData(scen).dtau == scen.market.T / scen.grid.nt
    built = []
    init = _Axis.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Axis, "__init__", counted)
    res = solve_nonlinear(scen)
    assert res.iterations >= 2
    assert len(built) == 2


def test_one_solve_reads_the_cost_bound_once(monkeypatch):
    """Whether a solve carries a cost is decided once, by its boundary data,
    and the edge march, every sweep and the convergence test read it there."""
    scen = benchmark_scenario(1, nx=12, nt=6)
    calls = []
    bounds = type(scen.cost).bounds
    monkeypatch.setattr(type(scen.cost), "bounds", lambda self: calls.append(self) or bounds(self))
    res = solve_nonlinear(scen)
    assert res.iterations >= 2
    assert len(calls) == 1


@pytest.mark.parametrize("nt", [10, 20])
def test_sweep_reads_its_scenario_from_the_boundary(nt):
    """``sweep`` takes no scenario beside its boundary data, so it cannot
    march one time grid with the step and edges of another: on config 1 at
    nx = 20, costed, each grid marches its own nt steps to tau = T."""
    scen = benchmark_scenario(1, nx=20, nt=nt)
    bd = BoundaryData(scen)
    assert bd.scenario is scen and bd.grid is scen.grid and bd.costed
    block = sweep(bd)
    assert block.shape == (nt + 1, 21, 21)
    terminal = block[-1].copy()
    terminal[1:-1, 1:-1] = 0.0
    assert np.array_equal(terminal, dense_ring(bd, 2 * nt))


def test_solve_costed_converges_on_coarse_grid():
    scen = benchmark_scenario(1, nx=12, nt=6)
    res = solve_nonlinear(scen, tol=1e-8)
    assert res.converged
    assert res.iterations >= 2
    assert [rec.n for rec in res.records] == list(range(1, res.iterations))
    assert res.records[-1].dinf < 1e-8
    # distances shrink by a healthy factor once the contraction sets in
    dinfs = [rec.dinf for rec in res.records]
    assert dinfs[-1] < dinfs[0]


def test_solve_records_match_norm_oracles():
    """Record n must equal the induced-norm distance between the terminal
    surfaces of runs capped at n and n+1 sweeps."""
    scen = benchmark_scenario(1, nx=10, nt=5)
    b1 = solve_nonlinear(scen, max_iter=1).block[-1]
    b2 = solve_nonlinear(scen, max_iter=2).block[-1]
    b3 = solve_nonlinear(scen, max_iter=3).block[-1]
    res = solve_nonlinear(scen, max_iter=3)
    for rec, (hi, lo) in zip(res.records, [(b2, b1), (b3, b2)]):
        diff = hi - lo
        assert rec.d1 == pytest.approx(oracles.induced_norm(diff, 1), rel=1e-12)
        assert rec.d2 == pytest.approx(oracles.induced_norm(diff, 2), rel=1e-9)
        assert rec.dinf == pytest.approx(oracles.induced_norm(diff, np.inf), rel=1e-12)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_fixed_point_limit_is_the_single_lagged_march(case):
    """The source is lagged one sweep and level 0 never changes, so level m
    is final after m + 1 sweeps: the iteration stops exactly (distance 0.0)
    by nt + 2 sweeps, on the march that takes each step's source from the
    level it has just computed."""
    scen = benchmark_scenario(case, nx=20, nt=20)
    res = solve_nonlinear(scen, tol=1e-300, max_iter=scen.grid.nt + 2)
    assert res.converged
    assert res.records[-1].dinf == 0.0
    np.testing.assert_array_equal(res.surface.values, oracles.lagged_march(scen))


def test_default_iteration_cap_reaches_the_fixed_point():
    """Without ``max_iter`` the cap is nt + 2 sweeps, where the iteration
    stops even at a tolerance no nonzero distance meets.  On this grid it
    needs every one of the 28 sweeps."""
    scen = benchmark_scenario(1, nx=32, nt=26)
    res = solve_nonlinear(scen, tol=1e-300)
    assert res.converged
    assert res.iterations == scen.grid.nt + 2
    assert res.records[-1].dinf == 0.0 and res.records[-2].dinf > 0.0


def test_solve_reports_when_iteration_budget_runs_out():
    """A solve stopped short says so in its result and warns nothing."""
    scen = benchmark_scenario(1, nx=10, nt=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_nonlinear(scen, max_iter=1)
    assert not res.converged
    assert res.iterations == 1 and res.records == []


def test_solve_validation():
    scen = benchmark_scenario(1, nx=8, nt=4)
    with pytest.raises(ValidationError, match="tol"):
        solve_nonlinear(scen, tol=0.0)
    with pytest.raises(ValidationError, match="max_iter"):
        solve_nonlinear(scen, max_iter=0)
    # numbers parse as the containers parse them: no booleans, strings or fractional counts
    for bad in (True, "1e-6", None):
        with pytest.raises(ValidationError, match="tol"):
            solve_nonlinear(scen, tol=bad)
    for bad in (2.5, True, "3", math.inf):
        with pytest.raises(ValidationError, match="max_iter"):
            solve_nonlinear(scen, max_iter=bad)


def test_convergence_record_is_frozen():
    rec = ConvergenceRecord(n=1, d1=0.1, d2=0.2, dinf=0.3)
    with pytest.raises(AttributeError):
        rec.d1 = 0.5
