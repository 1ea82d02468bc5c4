"""Benchmark of the nlbs pricing pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) in this process, with at most two
threads, in whole rounds of the same operations for up to S seconds (at least
one round).  Prints progress on stderr and, as the last line of stdout, one
JSON object: whether every output passed its checks, the operations attempted
and failed, and the metrics - the end-to-end ones with --trace 0, the
per-layer ones from a traced run with --trace 1.
"""

import os

# Thread pools are sized when numpy loads; the probes inherit this too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "2"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from inputs import CONFIGS, SRC, WORKLOADS, make_ops  # noqa: E402
from tracing import LAYER_UNITS, Tracer, coverage_problems, layer_metrics, median_metrics  # noqa: E402

SETUP_PROBES = 5  # timed probes per run; one more runs first to warm caches
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a probe that failed)."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from a fresh interpreter's start until the workload is ready."""
    samples = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe exited {proc.returncode} without getting ready")
        if k:  # the first probe fills the file cache and writes bytecode
            samples.append(elapsed)
    return statistics.median(samples)


def measure(wl, seconds: float, tracer=None):
    """Whole rounds until another would end after ``seconds``; at least one.

    Returns round times, problems found, operations attempted and failed, and
    with a tracer the spans and per-layer metrics of each round.
    """
    times, problems, traced = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.install()
        try:
            results = wl.run_round()
        finally:
            spans = tracer.uninstall() if tracer is not None else None
        times.append(sum(r.seconds for r in results))
        attempted += len(results)
        for r in results:
            if not r.ok:
                failed += 1
                log(f"failed: {r.op.command} {r.op.config}: {r.detail}")
        problems += wl.check(results)
        if tracer is not None:
            problems += [f"trace coverage: {p}" for p in coverage_problems(spans, wl.ops)]
            metrics = layer_metrics(spans, sum(r.bytes_written for r in results))
            traced.append({"seconds": times[-1], "spans": spans, "metrics": metrics})
        log(f"round {len(times)}: {times[-1]:.3f} s")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:
            return times, problems, attempted, failed, traced


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "nlbs" / "__init__.py").is_file() or not CONFIGS.is_dir():
        raise BenchError(f"nlbs sources or configs not found under {SRC.parent}")
    setup_s = measure_setup(workload, seed)
    log(f"setup: {setup_s:.4f} s (median of {SETUP_PROBES})")

    sys.path.insert(0, str(SRC))
    from workloads import Workload  # imports nlbs

    out = BENCH / "out"
    work_dir = out / f"work-{os.getpid()}"
    try:
        wl = Workload(make_ops(workload, seed), seed, work_dir)
        times, problems, attempted, failed, _ = measure(wl, seconds)
        run_s = statistics.median(times)
        if trace:
            ttimes, tproblems, tattempted, tfailed, traced = measure(wl, seconds, Tracer())
            problems += tproblems
            attempted += tattempted
            failed += tfailed
            trace_file = out / f"trace-{workload}-seed{seed}.json"
            trace_file.write_text(
                json.dumps(
                    {
                        "workload": workload,
                        "seed": seed,
                        "span_fields": ["name", "start", "end", "parent"],
                        "rounds": [
                            {"seconds": t["seconds"], "spans": [s[:4] for s in t["spans"]]} for t in traced
                        ],
                    }
                )
            )
            log(f"trace: wrote {trace_file}")
            layers = median_metrics([t["metrics"] for t in traced])
            layers["trace.overhead_s"] = statistics.median(ttimes) - run_s
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
            values = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_mb}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for p in problems:
        log(f"check failed: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        log(f"bench: {exc}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
