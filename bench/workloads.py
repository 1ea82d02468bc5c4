"""Running one round of a workload's operations and checking their outputs.

Operations are timed one by one; checks and the references they need run
outside every timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nlbs
import nlbs.cli

import checks
from inputs import Op

ZERO_COST = {"type": "constant", "C0": 0.0}


@dataclass
class OpResult:
    """What one operation did: its time, whether it succeeded, what it left."""

    op: Op
    seconds: float
    ok: bool
    detail: str  # exit code or exception, for the log
    out_dir: Path
    stdout: str = ""
    surface: np.ndarray | None = None  # scanned (leland) or solved (refine) surface
    error: float | None = None  # refine: reported benchmark error
    bytes_written: int = 0


class Workload:
    """One round's operations, and the references to check their outputs.

    ``seed`` also draws the nodes the leland check samples.
    """

    def __init__(self, ops: list[Op], seed: int, work_dir: Path) -> None:
        self.ops = ops
        self.configs = [op.load() for op in self.ops]
        self.scenarios = [nlbs.validate(cfg) for cfg in self.configs]
        self.work_dir = work_dir
        self.rng = np.random.default_rng(seed)
        # Zero-cost surfaces on the same grids: a costed price may not exceed them.
        self.zero_cost = {
            k: _zero_cost_surface(cfg)
            for k, (op, cfg) in enumerate(zip(self.ops, self.configs))
            if op.command in ("price", "sweep")
        }

    def run_round(self) -> list[OpResult]:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        results = []
        for k, op in enumerate(self.ops):
            out_dir = self.work_dir / f"op{k}"
            if op.command == "refine":
                res = self._refine(op, self.scenarios[k], out_dir)
            else:
                res = _run_cli(op, out_dir)
            if out_dir.is_dir():
                res.bytes_written = sum(f.stat().st_size for f in out_dir.iterdir())
            results.append(res)
        return results

    @staticmethod
    def _refine(op: Op, scenario, out_dir: Path) -> OpResult:
        t0 = time.perf_counter()
        try:
            solved = nlbs.solve_nonlinear(scenario)
            err = nlbs.error_vs_analytic(solved.surface.values, scenario)
        except Exception as exc:  # an operation that raises counts as failed
            return OpResult(op, time.perf_counter() - t0, False, repr(exc), out_dir)
        seconds = time.perf_counter() - t0
        # copy: the terminal surface is a view that keeps the space-time block alive
        surface = solved.surface.values.copy()
        return OpResult(op, seconds, True, "ok", out_dir, surface=surface, error=err.max_rel)

    def check(self, results: list[OpResult]) -> list[str]:
        """Problems found in the outputs of one round's successful operations."""
        problems: list[str] = []
        for k, (res, cfg) in enumerate(zip(results, self.configs)):
            if not res.ok or res.op.command == "refine":
                continue
            out = res.out_dir
            where = f"{res.op.command} {res.op.config}"
            if res.op.command == "price":
                found = checks.check_price(
                    checks.read_surface(out / "surface.csv"),
                    checks.read_surface(out / "cost_field.csv"),
                    self.zero_cost[k],
                    cfg["payoff"]["K"],
                )
            elif res.op.command == "leland":
                report = json.loads((out / "ellipticity.json").read_text())["result"]
                _, nodes = checks.read_csv(out / "ellipticity_nodes.csv")
                found = checks.check_leland(res.stdout, report, nodes, res.surface, cfg, self.rng)
            else:
                header, rows = checks.read_csv(out / "sweep.csv")
                meta = json.loads((out / "metadata.json").read_text())["result"]
                found = checks.check_sweep(header, rows, meta["probe_nodes"], cfg, self.zero_cost[k])
            problems += [f"{where}: {p}" for p in found]
        refine = [(res, cfg) for res, cfg in zip(results, self.configs) if res.op.command == "refine"]
        if refine and all(res.ok for res, _ in refine):
            ladder, cfgs = zip(*refine)
            found = checks.check_refine([r.surface for r in ladder], [r.error for r in ladder], list(cfgs))
            problems += [f"refine {ladder[0].op.config}: {p}" for p in found]
        return problems


def _zero_cost_surface(cfg: dict) -> np.ndarray:
    scenario = nlbs.validate({**cfg, "cost": ZERO_COST})
    return nlbs.solve_nonlinear(scenario).surface.values.copy()


def _run_cli(op: Op, out_dir: Path) -> OpResult:
    """Run one nlbs command in-process; a leland scan also hands back its surface."""
    captured: dict = {}
    scan = nlbs.cli.scan_surface

    def capture(surface, *args, **kwargs):
        captured["surface"] = np.array(surface, dtype=float)
        return scan(surface, *args, **kwargs)

    if op.command == "leland":
        nlbs.cli.scan_surface = capture
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = nlbs.cli.main(op.argv(out_dir))
        detail = f"exit {rc}"
    except Exception as exc:  # an operation that raises counts as failed
        rc, detail = None, repr(exc)
    finally:
        seconds = time.perf_counter() - t0
        nlbs.cli.scan_surface = scan
    if stderr.getvalue():
        detail += f": {stderr.getvalue().strip()}"
    return OpResult(
        op, seconds, rc == 0, detail, out_dir, stdout=stdout.getvalue(), surface=captured.get("surface")
    )
