"""Property tests of the config boundary.

Each example takes a shipped config (on a small grid), replaces one to three
fields by values of the wrong type or out of range (strings, booleans,
nulls, non-finite numbers, lists, mappings) and runs a command on it.
Mutated scenario fields go to ``nlbs analytic``, which must exit 0, or 2
with a config error.  Mutated ``solver`` and ``output`` fields go to a command
that reads them (``analytic``, ``price``, ``sweep`` or ``leland``); all but
``analytic`` solve and may also exit 3 (no convergence, an ill-posed
interval or a failed quadrature).  Any exception
fails a test.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbs.cli import main

from conftest import load_config

FIELDS = [
    ("market",),
    ("market", "sigmas"),
    ("market", "sigmas", 0),
    ("market", "rho"),
    ("market", "r"),
    ("market", "T"),
    ("cost",),
    ("cost", "type"),
    ("cost", "C0"),
    ("cost", "k"),
    ("payoff",),
    ("payoff", "type"),
    ("payoff", "K"),
    ("payoff", "X"),
    ("grid",),
    ("grid", "a"),
    ("grid", "b"),
    ("grid", "nx"),
    ("grid", "nt"),
    ("grid", "coord"),
    ("dt_tc",),
]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NUMBERS = st.one_of(NON_FINITE, st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3))
LEAVES = st.one_of(st.text(max_size=6), st.booleans(), st.none(), NON_FINITE)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(st.one_of(inner, NUMBERS), max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=2),
    ),
    max_leaves=6,
)
MUTATIONS = st.lists(st.tuples(st.sampled_from(FIELDS), VALUES), min_size=1, max_size=3)

# every key the command reads in these sections, at a valid value
SOLVE = {"first_derivative": "forward", "tol": 1e-6, "max_iter": 4}
SETTINGS = {
    "analytic": {"output": {"tau": 1.0}},
    "price": {"solver": SOLVE, "output": {"error_band": 2}},
    "sweep": {"solver": SOLVE, "output": {"dt_values": [0.004], "probes": [[30.0, 30.0]]}},
    "leland": {
        "solver": {**SOLVE, "dyf_form": "exact", "skip_scan": False},
        "output": {"per_node_csv": True},
    },
}
# per command, only fields it reads: a key another command reads would exit 2
# as unknown before reaching its parser
SETTING_MUTATIONS = {
    command: st.lists(
        st.tuples(
            st.sampled_from([(name,) for name in cfg] + [(name, key) for name, section in cfg.items() for key in section]),
            st.one_of(VALUES, NUMBERS),
        ),
        min_size=1,
        max_size=3,
    )
    for command, cfg in SETTINGS.items()
}

def small_config(n: int) -> dict:
    """Config n on a 9 x 9 grid around ln(X), so one ``analytic`` run is cheap."""
    cfg = load_config(n)
    center = math.log(cfg["payoff"]["X"])
    cfg["grid"] = {"a": center - 2.0, "b": center + 2.0, "nx": 8, "nt": 2, "coord": "log"}
    return cfg


def mutate(cfg: dict, path: tuple, value) -> None:
    """Set ``path`` in ``cfg`` to ``value``; a path through a non-container is skipped."""

    def holds(node, key) -> bool:
        if isinstance(key, int):
            return isinstance(node, list) and key < len(node)
        return isinstance(node, dict)

    node = cfg
    for key in path[:-1]:
        if not holds(node, key) or (isinstance(node, dict) and key not in node):
            return
        node = node[key]
    if holds(node, path[-1]):
        node[path[-1]] = value


def run(command: str, cfg: dict) -> tuple[int, str]:
    """Exit code and stderr of one in-process command on ``cfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg_path), "--out", str(Path(tmp) / "o")])
    return rc, err.getvalue()


@pytest.mark.parametrize("config", [1, 2, 3])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutations=MUTATIONS)
def test_malformed_config_exits_0_or_2_never_a_traceback(config, mutations):
    cfg = small_config(config)
    for path, value in mutations:
        mutate(cfg, path, value)
    rc, err = run("analytic", cfg)
    assert rc in (0, 2)
    if rc == 2:
        assert err.startswith("config error: ")


@pytest.mark.parametrize("command", ["sweep", "leland", "analytic", "price"])
@pytest.mark.parametrize("config", [1, 2, 3])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_solver_or_output_exits_0_2_or_3_never_a_traceback(command, config, data):
    cfg = small_config(config)
    cfg.update(json.loads(json.dumps(SETTINGS[command])))
    for path, value in data.draw(SETTING_MUTATIONS[command], label="mutations"):
        mutate(cfg, path, value)
    rc, err = run(command, cfg)
    assert rc in (0, 2, 3)
    if rc == 2:
        assert err.startswith("config error: ")
