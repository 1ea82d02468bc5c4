"""Tests of the benchmark itself: metrics printed, failures counted, checks that bite.

    python3 -m pytest bench/tests -q

Operations here run on small grids so the suite takes well under a minute;
the config-1 price operation runs at its shipped default settings.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
from inputs import Op, default_grid  # noqa: E402

sys.path.insert(0, str(inputs.SRC))

import nlbs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402


def _cfg(name: str) -> dict:
    return json.loads((inputs.CONFIGS / name).read_text())


def _small_sweep() -> Op:
    cfg = _cfg("testing1.json")
    x = cfg["payoff"]["X"]
    return Op(
        "sweep",
        "testing1.json",
        {
            "grid": default_grid(cfg, 12, 12),
            "output.dt_values": [4e-3, 8e-3, 1.6e-2],
            "output.probes": [[x, x], [0.9 * x, 1.1 * x]],
            "solver.max_iter": 14,
        },
    )


def _small_leland() -> Op:
    cfg = _cfg("testing1.json")
    return Op(
        "leland",
        "testing1.json",
        {"grid": default_grid(cfg, 40, 8), "solver.dyf_form": "exact", "output.per_node_csv": True},
    )


def _small_price() -> Op:
    # config 2 is left out: on grids this coarse its costed surface rises 5e-7
    # above the zero-cost one (none of the configs does at the default grid)
    return Op("price", "testing3.json", {"grid": default_grid(_cfg("testing3.json"), 20, 20)})


def _small_refine() -> list[Op]:
    cfg = _cfg("testing3.json")
    zero = {"type": "constant", "C0": 0.0}
    ladder = (50, 100, 200)
    return [Op("refine", "testing3.json", {"cost": zero, "grid": default_grid(cfg, n, n)}) for n in ladder]


def _edit_csv(path: Path, row: int, col: int, fn) -> None:
    """Replace one cell (data row ``row``, column ``col``) by fn(old value)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def ran(tmp_path):
    """Run one round of the given ops and hand back the workload and results."""

    def go(ops):
        wl = Workload(ops, seed=0, work_dir=tmp_path / "work")
        return wl, wl.run_round()

    return go


# ---------------------------------------------------------------------------
# the printed result
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(inputs, "SWEEP_N", 12)
    monkeypatch.setattr(inputs, "SWEEP_ROWS", 3)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(["--workload", "dt-sweep", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    assert rc == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1 + trace, 0)  # one round, plus one traced
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dt-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# failed operations
# ---------------------------------------------------------------------------


def test_config1_price_fails_with_exit_3_and_is_counted(tmp_path, capsys):
    wl = Workload([Op("price", "testing1.json")], seed=0, work_dir=tmp_path / "work")
    _, problems, attempted, failed, _ = run.measure(wl, 0.0)
    assert (attempted, failed) == (1, 1)
    assert "failed: price testing1.json: exit 3" in capsys.readouterr().err
    assert problems == []  # a failed operation's outputs are not checked


# ---------------------------------------------------------------------------
# each check rejects a corrupted output
# ---------------------------------------------------------------------------


def test_price_check_rejects_corrupted_outputs(ran):
    wl, results = ran([_small_price()])
    assert wl.check(results) == []
    out = results[0].out_dir
    n1 = wl.configs[0]["grid"]["nx"] + 1
    interior = (n1 // 2) * n1 + n1 // 2
    zero_there = float(wl.zero_cost[0][n1 // 2, n1 // 2])
    for name, row, fn, expect in [
        ("surface.csv", 0, lambda v: -1e-6, "outside [0"),
        ("surface.csv", 5, lambda v: float("nan"), "non-finite"),
        ("surface.csv", interior, lambda v: zero_there + 1e-6, "exceeds the zero-cost"),
        ("cost_field.csv", interior, lambda v: -1e-3, "negative"),
        ("cost_field.csv", 0, lambda v: 1e-3, "boundary ring"),
    ]:
        saved = (out / name).read_text()
        _edit_csv(out / name, row, 4, fn)
        problems = wl.check(results)
        assert any(expect in p for p in problems), (name, row, problems)
        (out / name).write_text(saved)


def test_leland_check_rejects_corrupted_outputs(ran):
    wl, results = ran([_small_leland()])
    assert wl.check(results) == []
    res = results[0]
    out = res.out_dir

    good_stdout = res.stdout
    res.stdout = good_stdout.replace("Le=0.429674", "Le=0.43")
    assert any("printed Le" in p for p in wl.check(results))
    res.stdout = good_stdout

    saved = (out / "ellipticity.json").read_text()
    meta = json.loads(saved)
    meta["result"]["n_checked"] += 1
    (out / "ellipticity.json").write_text(json.dumps(meta))
    assert any("n_checked" in p for p in wl.check(results))
    (out / "ellipticity.json").write_text(saved)

    # shift every checked node's eigenvalue by 1% of its size: sampled nodes catch it
    lines = (out / "ellipticity_nodes.csv").read_text().splitlines()
    for k in range(1, len(lines)):
        cells = lines[k].split(",")
        if cells[5] == "0":
            cells[4] = repr(float(cells[4]) * 1.01)
            lines[k] = ",".join(cells)
    (out / "ellipticity_nodes.csv").write_text("\n".join(lines) + "\n")
    assert any("finite differences" in p for p in wl.check(results))


def test_sweep_check_rejects_corrupted_outputs(ran):
    wl, results = ran([_small_sweep()])
    assert wl.check(results) == []
    out = results[0].out_dir
    header = (out / "sweep.csv").read_text().splitlines()[0].split(",")
    price = header.index("price_1")
    zero = wl.zero_cost[0]
    first = float((out / "sweep.csv").read_text().splitlines()[1].split(",")[price])
    for row, col, fn, expect in [
        (1, price, lambda v: first - 1e-3, "decreases"),
        (2, price, lambda v: float(zero.max()) + 1e-3, "zero-cost"),
        (0, price, lambda v: -1.0, "outside [0"),
        (0, header.index("converged"), lambda v: 0, "not converged"),
    ]:
        saved = (out / "sweep.csv").read_text()
        _edit_csv(out / "sweep.csv", row, col, fn)
        problems = wl.check(results)
        assert any(expect in p for p in problems), (row, col, problems)
        (out / "sweep.csv").write_text(saved)


def test_refine_check_rejects_corrupted_outputs(ran):
    wl, results = ran(_small_refine())
    assert wl.check(results) == []

    results[1].error *= 1.001
    assert any("reported error" in p for p in wl.check(results))
    results[1].error /= 1.001

    fine = results[-1].surface
    saved = fine.copy()
    fine += 0.01 * fine.max()  # a finest grid this far off breaks first-order convergence
    assert any("error ratio" in p for p in wl.check(results))
    fine[:] = saved
    fine[3, 3] = np.inf
    assert any("non-finite" in p for p in wl.check(results))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_coverage_check_catches_a_missed_binding(tmp_path):
    op = _small_sweep()
    wl = Workload([op], seed=0, work_dir=tmp_path / "trace")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.run_round()
    finally:
        spans = tracer.uninstall()
    assert tracing.coverage_problems(spans, [op]) == []
    assert nlbs.diagnostics.assemble_G is nlbs.cost_engine.assemble_G  # bindings restored

    tracer.install()
    # as if the tracer had missed the binding the sweep's own assemble_G calls use
    nlbs.diagnostics.assemble_G = nlbs.cost_engine.assemble_G.__wrapped__
    try:
        wl.run_round()
    finally:
        spans = tracer.uninstall()
    problems = tracing.coverage_problems(spans, [op])
    assert any("assemble_G" in p for p in problems), problems

