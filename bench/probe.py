"""Set-up probe: run in a fresh interpreter, it makes a workload ready and says so.

    python3 bench/probe.py WORKLOAD SEED

Imports nlbs (and with it numpy and scipy) and the CLI module the operations
run through, loads and validates the workload's configs, then prints "ready".
The runner times each probe from its start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import SRC, make_ops  # noqa: E402

sys.path.insert(0, str(SRC))

import nlbs  # noqa: E402
import nlbs.cli  # noqa: E402,F401

for op in make_ops(sys.argv[1], int(sys.argv[2])):
    nlbs.validate(op.load())
print("ready", flush=True)
