"""Grid-refinement study at zero cost, against the closed form.

At zero cost the solve is the linear ADI march, so its error against the
closed-form price is the discretization error alone.  Every grid is the
default grid of its config, on which ln X is a node at every even nx, so the
payoff jump sits at the same place in its cell at every level.  The initial
data is the payoff's exact cell average, so the jump costs no order: forward
differences are first order in space and central ones second order.  The
gates come from these measured peak-normalized errors (``max_rel``, band 2):

    nx = nt        50        100       200       400
    forward  c1  2.68e-2   1.49e-2   7.47e-3   3.76e-3
             c2  1.29e-2   2.40e-2   1.29e-2   6.41e-3
             c3  2.62e-2   1.31e-2   6.58e-3   3.30e-3
    central  c1  7.53e-3   2.00e-3   5.29e-4   1.37e-4
             c2  6.40e-3   7.36e-3   1.88e-3   4.87e-4
             c3  4.74e-3   1.19e-3   2.92e-4   6.96e-5

The time order is read off an nt-only ladder at nx = 50: the distance
between the surfaces at nt and 2 nt halved at each doubling (ratios 1.76 to
2.02 from nt = 25), and the benchmark error moved by at most 3.3% from
nt = 25 to 200, so the error above is spatial.
"""

import functools

import numpy as np
import pytest

from nlbs import ConstantCost, error_vs_analytic, solve_nonlinear

from conftest import benchmark_scenario, with_stencil

STENCILS = ("forward", "central")
CONFIGS = (1, 2, 3)
TIME_LADDER = (25, 50, 100, 200)


@functools.lru_cache(maxsize=None)
def zero_cost_solve(config: int, stencil: str, nx: int, nt: int):
    """Scenario and terminal surface of a zero-cost solve."""
    scen = with_stencil(benchmark_scenario(config, nx=nx, nt=nt).with_cost(ConstantCost(c0=0.0)), stencil)
    return scen, solve_nonlinear(scen).surface.values


def max_rel(config: int, stencil: str, nx: int, nt: int) -> float:
    scen, surface = zero_cost_solve(config, stencil, nx, nt)
    return error_vs_analytic(surface, scen).max_rel


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("stencil", STENCILS)
def test_space_error_is_first_order(stencil, config):
    """Doubling nx = nt from 100 to 200 makes the error at least 1.5 times
    smaller forward, first order (measured 1.86 to 2.00), and at least 3.5
    times smaller central, second order (measured 3.78 to 4.08); at 200 it is
    below 2.5e-2 forward and 1.1e-2 central."""
    coarse, fine = max_rel(config, stencil, 100, 100), max_rel(config, stencil, 200, 200)
    assert coarse / fine > {"forward": 1.5, "central": 3.5}[stencil]
    assert fine < {"forward": 2.5e-2, "central": 1.1e-2}[stencil]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("nx", [100, 200])
def test_central_stencil_is_more_accurate(config, nx):
    """Central differences beat forward ones by at least 1.5x (measured 3.26 to 22.6)."""
    assert max_rel(config, "central", nx, nx) * 1.5 < max_rel(config, "forward", nx, nx)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("stencil", STENCILS)
def test_time_error_is_first_order_and_small(stencil, config):
    """Each doubling of nt halves the change of the surface (ratio within
    1.6 to 2.4), and the benchmark error moves by under 5% along the ladder."""
    surfaces = [zero_cost_solve(config, stencil, 50, nt)[1] for nt in TIME_LADDER]
    steps = [np.abs(fine - coarse).max() for coarse, fine in zip(surfaces, surfaces[1:])]
    for step, next_step in zip(steps, steps[1:]):
        assert 1.6 < step / next_step < 2.4
    errors = [max_rel(config, stencil, 50, nt) for nt in TIME_LADDER]
    assert max(errors) < 1.05 * min(errors)
