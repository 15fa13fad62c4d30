"""Smoke test of the benchmark harness: under two minutes on two cores.

    python3 bench/smoke.py

Runs every workload for its minimum of three rounds (the fewest from which
a median latency per operation is taken) with all output checks, then the
traced run, and checks that each prints a correct result carrying
exactly the metrics BENCHMARK.json declares.  Last, it runs the benchmark
from a directory holding only BENCHMARK.json and the benchmark's files,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    cases = [(w["name"], "0", end_to_end) for w in spec["workloads"]]
    cases.append((spec["workloads"][0]["name"], "1", per_layer))
    for workload, trace, wanted in cases:
        proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", trace)
        label = f"{workload} --trace {trace}"
        if proc.returncode == 0:
            out = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            ok = out["correct"] and not out["failed"] and out["attempted"] >= 1 and got == wanted
        else:
            ok = False
        if not ok:
            failures.append(f"{label}: exit {proc.returncode}, {proc.stdout[-300:]}\n"
                            f"{proc.stderr[-2000:]}")
        print(f"{label}: {'ok' if ok else 'FAILED'}", flush=True)

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "7",
                   "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
        else:
            print("without src/: fails as it should")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
