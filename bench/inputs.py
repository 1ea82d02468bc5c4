"""The operations each workload runs, made from the workload seed.

This module uses the standard library only, so the set-up probe can build a
workload's configs before it imports nlbs and its numpy/scipy dependencies.

An operation is one ``nlbs`` command run in-process through ``nlbs.cli.main``
(``price``, ``leland``, ``sweep``) or one zero-cost solve plus its benchmark
error through the public functions (``refine``).  A round is the workload's
fixed list of operations; every round of a run repeats the same list.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

WORKLOADS = ("price-costed", "leland-scan", "frictionless-refine", "dt-sweep")

# leland-scan: a short time grid keeps the solve small next to the scan,
# whose cost grows with the number of checked nodes, i.e. with nx^2 only.
LELAND_NX, LELAND_NT = 80, 16
# frictionless-refine: nx = nt ladder; the error should halve from 100 on.
REFINE_LADDER = (50, 100, 200, 400)
# dt-sweep: a coarse grid and many intervals, all in the well-posed range.
SWEEP_N = 40
SWEEP_ROWS = 12
SWEEP_DT_MAX = 2e-2
SWEEP_LE_MARGIN = 1.1  # smallest interval is this factor above the Le = 1 one
SWEEP_PROBES = 3  # seeded probes besides (X, X)


@dataclass
class Op:
    """One operation: an nlbs command (or ``refine``) on a config plus overrides.

    ``overrides`` maps dotted config keys to values, as the CLI's ``--flag``
    applies them.
    """

    command: str
    config: str
    overrides: dict = field(default_factory=dict)

    def load(self) -> dict:
        """The config file with the overrides applied (what the command sees)."""
        cfg = json.loads((CONFIGS / self.config).read_text())
        for dotted, value in self.overrides.items():
            node = cfg
            *parents, last = dotted.split(".")
            for key in parents:
                node = node.setdefault(key, {})
            node[last] = value
        return cfg

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, "--config", str(CONFIGS / self.config), "--out", str(out_dir)]
        for dotted, value in self.overrides.items():
            argv += ["--flag", f"{dotted}={json.dumps(value)}"]
        return argv


def default_grid(cfg: dict, nx: int, nt: int) -> dict:
    """The package's default log grid (ln X +- (3 sigma_max sqrt(T) + 1)) at nx, nt."""
    market = cfg["market"]
    half = 3.0 * max(market["sigmas"]) * math.sqrt(market["T"]) + 1.0
    center = math.log(cfg["payoff"]["X"])
    return {"a": center - half, "b": center + half, "nx": nx, "nt": nt, "coord": "log"}


def leland(sigma: float, c0: float, dt: float) -> float:
    """Le = sqrt(2/pi) * 2 C0 / (sigma sqrt(dt)) for a per-trade cost bound C0."""
    return math.sqrt(2.0 / math.pi) * 2.0 * c0 / (sigma * math.sqrt(dt))


def _config(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def sweep_intervals(cfg: dict) -> list[float]:
    """SWEEP_ROWS log-spaced intervals, all in the well-posed range.

    The range starts SWEEP_LE_MARGIN above the interval at which the less
    volatile asset reaches Le = 1.  The intervals do not depend on the seed:
    a row's sweep count, and so the work, depends on its interval.
    """
    c0 = cfg["cost"]["C0"]
    dt_crit = max(leland(s, c0, 1.0) ** 2 for s in cfg["market"]["sigmas"])
    lo, hi = math.log(SWEEP_LE_MARGIN * dt_crit), math.log(SWEEP_DT_MAX)
    return [math.exp(lo + k * (hi - lo) / (SWEEP_ROWS - 1)) for k in range(SWEEP_ROWS)]


def make_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "price-costed":
        # Default settings on the shipped configs; the seed only orders them.
        names = [f"testing{c}.json" for c in (1, 2, 3)]
        rng.shuffle(names)
        return [Op("price", name) for name in names]
    if workload == "leland-scan":
        cfg = _config("testing1.json")
        return [
            Op(
                "leland",
                "testing1.json",
                {
                    "grid": default_grid(cfg, LELAND_NX, LELAND_NT),
                    "solver.dyf_form": "exact",
                    "output.per_node_csv": True,
                },
            )
        ]
    if workload == "frictionless-refine":
        # Zero-cost solves cost the same on every market; the seed picks one.
        name = rng.choice([f"testing{c}.json" for c in (1, 2, 3)])
        cfg = _config(name)
        return [
            Op(
                "refine",
                name,
                {"cost": {"type": "constant", "C0": 0.0}, "grid": default_grid(cfg, n, n)},
            )
            for n in REFINE_LADDER
        ]
    if workload == "dt-sweep":
        # Probes sample the solved surfaces and cost no work; the seed places them.
        cfg = _config("testing1.json")
        x = cfg["payoff"]["X"]
        probes = [[x, x]] + [
            [x * math.exp(rng.uniform(-0.3, 0.3)), x * math.exp(rng.uniform(-0.3, 0.3))]
            for _ in range(SWEEP_PROBES)
        ]
        return [
            Op(
                "sweep",
                "testing1.json",
                {
                    "grid": default_grid(cfg, SWEEP_N, SWEEP_N),
                    "output.dt_values": sweep_intervals(cfg),
                    "output.probes": probes,
                    # the lagged iteration stops by nt + 2 sweeps at the latest
                    "solver.max_iter": SWEEP_N + 2,
                },
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
