"""Grid-refinement study at zero cost, against the closed form.

At zero cost the solve is the linear ADI march, so its error against the
closed-form price is the discretization error alone.  Every grid is the
default grid of its config, on which ln X is a node at every even nx, so the
payoff jump sits at the same place in its cell at every level.  The gates
come from these measured peak-normalized errors (``max_rel``, band 2):

    nx = nt        50        100       200       400
    forward  c1  3.44e-2   2.15e-2   1.10e-2   5.54e-3
             c2  1.68e-2   3.36e-2   2.01e-2   1.03e-2
             c3  3.64e-2   1.88e-2   9.54e-3   4.80e-3
    central  c1  1.47e-2   8.25e-3   4.54e-3   2.40e-3
             c2  9.80e-3   1.65e-2   8.87e-3   5.08e-3
             c3  1.28e-2   6.78e-3   3.52e-3   1.80e-3

The time order is read off an nt-only ladder at nx = 50: the distance
between the surfaces at nt and 2 nt halved at each doubling (ratios 1.74 to
2.00 from nt = 25), and the benchmark error moved by at most 2% from nt = 25
to 200, so the error above is spatial.
"""

import functools

import numpy as np
import pytest

from nlbs import ConstantCost, SolverFlags, error_vs_analytic, solve_nonlinear

from conftest import benchmark_scenario

STENCILS = ("forward", "central")
CONFIGS = (1, 2, 3)
TIME_LADDER = (25, 50, 100, 200)


@functools.lru_cache(maxsize=None)
def zero_cost_solve(config: int, stencil: str, nx: int, nt: int):
    """Scenario and terminal surface of a zero-cost solve."""
    scen = benchmark_scenario(config, nx=nx, nt=nt).with_cost(ConstantCost(c0=0.0))
    return scen, solve_nonlinear(scen, flags=SolverFlags(first_derivative=stencil)).surface.values


def max_rel(config: int, stencil: str, nx: int, nt: int) -> float:
    scen, surface = zero_cost_solve(config, stencil, nx, nt)
    return error_vs_analytic(surface, scen).max_rel


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("stencil", STENCILS)
def test_space_error_is_first_order(stencil, config):
    """Doubling nx = nt from 100 to 200 makes the error at least 1.5 times
    smaller (measured 1.67 to 1.97); at 200 it is below 2.5e-2 forward and
    1.1e-2 central."""
    coarse, fine = max_rel(config, stencil, 100, 100), max_rel(config, stencil, 200, 200)
    assert coarse / fine > 1.5
    assert fine < {"forward": 2.5e-2, "central": 1.1e-2}[stencil]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("nx", [100, 200])
def test_central_stencil_is_more_accurate(config, nx):
    """Central differences beat forward ones by at least 1.5x (measured 2.04 to 2.78)."""
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
