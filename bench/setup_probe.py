"""The set-up of one workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED RUN_DIR

Imports ``qhpp.cli`` cold and writes the workload's inputs for SEED into
RUN_DIR.  The benchmark times this process from launch to exit as one
sample of ``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import qhpp.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, run_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, run_dir).prepare()
    return 0


if __name__ == "__main__":
    sys.exit(main())
