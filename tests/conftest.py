"""Shared test helpers.

The three shipped benchmark configs (configs/testing{1,2,3}.json) are used
throughout the suite; ``benchmark_scenario`` loads one and optionally swaps
in a coarser grid so module tests stay fast; ``with_stencil`` sets the
first-difference stencil of a scenario's grid.
"""

import json
from dataclasses import replace
from pathlib import Path

from nlbs import GridSpec, Scenario, validate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def load_config(n: int) -> dict:
    with open(CONFIG_DIR / f"testing{n}.json") as fh:
        return json.load(fh)


def benchmark_scenario(n: int, nx: int | None = None, nt: int | None = None) -> Scenario:
    scen = validate(load_config(n))
    if nx is not None or nt is not None:
        g = scen.grid
        scen = scen.with_grid(
            GridSpec(a=g.a, b=g.b, nx=nx or g.nx, nt=nt or g.nt, coord=g.coord)
        )
    return scen


def with_stencil(scen: Scenario, first: str) -> Scenario:
    """``scen`` on the same grid with the ``first`` first-difference stencil."""
    return scen.with_grid(replace(scen.grid, first_derivative=first))
