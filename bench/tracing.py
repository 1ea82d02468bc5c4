"""Spans around calls into nlbs's public functions, and the per-layer metrics.

The tracer wraps each traced function in every nlbs module that binds it:
``nlbs.cli`` and ``nlbs.diagnostics`` bind ``solve_nonlinear`` and
``assemble_G`` at import, ``solve_nonlinear`` looks ``sweep`` up in
``nlbs.adi_solver``, and ``solve_nonlinear`` and the edge march import
``assemble_G`` and ``expected_cost`` from ``nlbs.cost_engine`` at call time.
Nothing in ``src/`` changes; the wrappers are removed after each traced round.

A span is (name, start, end, parent, note); the note is a count taken from
the call's arguments or result after the span has ended.  A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MB = float(2**20)


def _scenario(args, kwargs):
    return args[0] if args else kwargs["scenario"]


def _solve_note(args, kwargs, result):
    return result.iterations, _scenario(args, kwargs).grid.nt, result.block.nbytes


def _sweep_note(args, kwargs, result):
    grid = _scenario(args, kwargs).grid
    return 2 * grid.nt * (grid.nx - 1) ** 2  # interior half-step node updates


# (defining module, attribute, span name, note taken after the call or None)
TARGETS = (
    ("nlbs.cli", "main", "cli.main", lambda a, kw, r: (a[0] if a else kw["argv"])[0]),
    ("nlbs.adi_solver", "solve_nonlinear", "adi_solver.solve_nonlinear", _solve_note),
    ("nlbs.adi_solver", "sweep", "adi_solver.sweep", _sweep_note),
    ("nlbs.adi_solver", "BoundaryData.__init__", "adi_solver.BoundaryData", None),
    ("nlbs.cost_engine", "assemble_G", "cost_engine.assemble_G", None),
    (
        "nlbs.cost_engine",
        "expected_cost",
        "cost_engine.expected_cost",
        lambda a, kw, r: int(np.size(a[1] if len(a) > 1 else kw["theta"])),
    ),
    ("nlbs.ellipticity", "scan_surface", "ellipticity.scan_surface", lambda a, kw, r: r.n_checked),
    ("nlbs.ellipticity", "cost_integrals", "ellipticity.cost_integrals", None),
    (
        "nlbs.analytic_pricing",
        "cbest_price",
        "analytic_pricing.cbest_price",
        lambda a, kw, r: int(np.size(r)),
    ),
    ("nlbs.diagnostics", "error_vs_analytic", "diagnostics.error_vs_analytic", None),
    (
        "nlbs.diagnostics",
        "dt_sensitivity_sweep",
        "diagnostics.dt_sensitivity_sweep",
        lambda a, kw, r: len(r.rows),
    ),
)

# per-layer metric -> unit; "trace.overhead_s" is filled in by the runner
LAYER_UNITS = {
    "adi_solver.sweeps": "count",
    "adi_solver.sweep_self_s": "s",
    "adi_solver.node_updates_per_s": "1/s",
    "adi_solver.boundary_s": "s",
    "adi_solver.block_mb": "MB",
    "cost_engine.assemble_G_calls": "count",
    "cost_engine.assemble_G_s": "s",
    "cost_engine.expected_cost_nodes": "count",
    "cost_engine.expected_cost_s": "s",
    "ellipticity.scan_s": "s",
    "ellipticity.nodes_checked": "count",
    "ellipticity.cost_integrals_calls": "count",
    "analytic_pricing.cbest_points": "count",
    "analytic_pricing.cbest_s": "s",
    "diagnostics.error_vs_analytic_s": "s",
    "diagnostics.dt_sweep_self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans in memory while installed; one traced round at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "nlbs" or key.startswith("nlbs.")]
        for module_name, attr, name, note in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class, which every binding shares
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, note))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> list[list]:
        """Restore every binding; return this round's spans and start afresh."""
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
        spans, self.spans = self.spans, []
        self._stack.clear()
        return spans


def _self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[k] for k, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[list], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (all but trace.overhead_s)."""
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    notes: dict = defaultdict(list)
    for rec, self_s in zip(spans, _self_times(spans)):
        name, start, end, _, note = rec
        calls[name] += 1
        total[name] += end - start
        own[name] += self_s
        if note is not None:
            notes[name].append(note)
    sweep_self = own["adi_solver.sweep"]
    updates = sum(notes["adi_solver.sweep"])
    return {
        "adi_solver.sweeps": calls["adi_solver.sweep"],
        "adi_solver.sweep_self_s": sweep_self,
        "adi_solver.node_updates_per_s": updates / sweep_self if sweep_self > 0 else 0.0,
        "adi_solver.boundary_s": total["adi_solver.BoundaryData"],
        "adi_solver.block_mb": max((n[2] for n in notes["adi_solver.solve_nonlinear"]), default=0) / MB,
        "cost_engine.assemble_G_calls": calls["cost_engine.assemble_G"],
        "cost_engine.assemble_G_s": total["cost_engine.assemble_G"],
        "cost_engine.expected_cost_nodes": sum(notes["cost_engine.expected_cost"]),
        "cost_engine.expected_cost_s": total["cost_engine.expected_cost"],
        "ellipticity.scan_s": total["ellipticity.scan_surface"],
        "ellipticity.nodes_checked": sum(notes["ellipticity.scan_surface"]),
        "ellipticity.cost_integrals_calls": calls["ellipticity.cost_integrals"],
        "analytic_pricing.cbest_points": sum(notes["analytic_pricing.cbest_price"]),
        "analytic_pricing.cbest_s": total["analytic_pricing.cbest_price"],
        "diagnostics.error_vs_analytic_s": total["diagnostics.error_vs_analytic"],
        "diagnostics.dt_sweep_self_s": own["diagnostics.dt_sensitivity_sweep"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_written": bytes_written,
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def coverage_problems(spans: list[list], ops) -> list[str]:
    """Compare span counts of one round with the counts its inputs predict.

    A binding the tracer missed shows here as a count that falls short,
    instead of as a layer metric that reads zero.
    """
    calls = Counter(rec[0] for rec in spans)
    commands = Counter(op.command for op in ops)
    rows = sum(len(op.overrides["output.dt_values"]) for op in ops if op.command == "sweep")
    solves = commands["price"] + commands["leland"] + commands["refine"] + rows
    want = {
        "cli.main": len(ops) - commands["refine"],
        "adi_solver.solve_nonlinear": solves,
        "adi_solver.BoundaryData": solves,
        "diagnostics.error_vs_analytic": commands["price"] + commands["refine"],
        "ellipticity.scan_surface": commands["leland"],
        "diagnostics.dt_sensitivity_sweep": commands["sweep"],
    }
    problems = [
        f"{name}: {calls[name]} spans, inputs predict {n}" for name, n in want.items() if calls[name] != n
    ]

    children: Counter = Counter(rec[3] for rec in spans if rec[0] == "adi_solver.sweep")
    assemble = commands["price"] + rows
    checked = 0
    for k, (name, _, _, _, note) in enumerate(spans):
        if name == "adi_solver.solve_nonlinear":
            iterations, nt, _ = note
            assemble += nt * (iterations - 1)
            if children[k] != iterations:
                problems.append(f"solve {k}: {children[k]} sweep spans, reported iterations {iterations}")
        elif name == "ellipticity.scan_surface":
            checked += note
    if calls["cost_engine.assemble_G"] != assemble:
        problems.append(
            f"cost_engine.assemble_G: {calls['cost_engine.assemble_G']} spans, inputs predict {assemble}"
        )
    if calls["ellipticity.cost_integrals"] != 2 * checked:
        problems.append(
            f"ellipticity.cost_integrals: {calls['ellipticity.cost_integrals']} spans, "
            f"2 x nodes_checked = {2 * checked}"
        )
    return problems
