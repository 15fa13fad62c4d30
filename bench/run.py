"""The qhpp benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload reproduce|embed_stress|replay \
        --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is taken from its
``src/``.  With ``--trace 0`` the workload runs untraced for at least S
seconds, in whole rounds, and the last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and the end-to-end metrics.  With
``--trace 1`` the run instead traces one round of every workload (S is not
used) and reports the per-layer metrics, including the tracing overhead of
each workload.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from tracing import FILTERS, Tracer, merge  # noqa: E402
from workloads import PYTHON, WORKLOADS, OperationFailed, run_child  # noqa: E402

# Set-up runs at least SETUP_MIN_PROBES times and until SETUP_MIN_S have
# passed, at most SETUP_MAX_PROBES times; setup_s is the median.
SETUP_MIN_PROBES = 3
SETUP_MIN_S = 3.0
SETUP_MAX_PROBES = 15
NUMPY_PROBES = 3
DEADLINE_S = 175
# Speed probes: one after an operation once this much time has passed since
# the last, and one before and after each set-up.  A probe takes about
# REFERENCE_PROBE_S on this machine when nothing else slows it.
PROBE_INTERVAL_S = 0.05
PROBE_SAMPLES = 5
PROBE_WARMUP = 50
PROBE_REACH = 10
REFERENCE_PROBE_S = 0.0002

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

INDICES = (1, 2, 3)
PER_LAYER = (
    [("cli.import_ms", "ms"), ("cli.import_numpy_ms", "ms")]
    + [(f"cli.render_{fmt}_ms.idx{i}", "ms") for fmt in ("json", "md") for i in INDICES]
    + [(f"cli.verb_ms.{verb}", "ms")
       for verb in ("dinv", "linkform", "table", "candidates", "embed")]
    + [(f"screening.enumerate_ms.idx{i}", "ms") for i in INDICES]
    + [(f"screening.candidates.idx{i}", "count") for i in INDICES]
    + [(f"screening.filter_ms.{f}.idx{i}", "ms") for f in FILTERS for i in INDICES]
    + [(f"screening.obstructed.{f}.idx{i}", "count") for f in FILTERS for i in INDICES]
    + [(f"screening.replay_ms.{f}", "ms") for f in FILTERS]
    + [("configuration.parse_ms", "ms")]
    + [("lattice.search_ms", "ms"), ("lattice.searches", "count"), ("lattice.orbits", "count"),
       ("lattice.vectors_of_norm_ms", "ms"), ("lattice.candidate_vectors", "count"),
       ("lattice.canonical_form_calls", "count"), ("lattice.canonical_form_ms", "ms"),
       ("lattice.partial_orbits", "count"),
       ("lattice.witness_ms", "ms"), ("lattice.witness_calls", "count")]
    + [(f"trace.overhead_pct.{name}", "%") for name in WORKLOADS]
)

_clock = time.perf_counter


def _probe_work():
    # Fixed pure-Python work, unrelated to qhpp: the least image of a small
    # matrix under the signed permutations of its columns.  Never change it,
    # or reported times stop being comparable with earlier runs.
    rows = ((2, -1, 0), (1, 1, -1), (0, 2, 1))
    best = None
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            image = tuple(tuple(s * row[p] for s, p in zip(signs, perm)) for row in rows)
            if best is None or image < best:
                best = image
    return best


class SpeedProbe:
    """How fast the machine runs, moment by moment, during a run.

    The machine is shared: the same work takes up to twice as long in one
    minute as in the next, and all work slows alike.  Probes of fixed work
    run between operations.  ``scale`` turns a time measured between probes
    into reference seconds, the time the work would take at the machine's
    reference speed (REFERENCE_PROBE_S per probe), using the probes nearest
    to it."""

    def __init__(self):
        self.times: list[float] = []
        self.last = float("-inf")
        for _ in range(PROBE_WARMUP):  # let the interpreter specialise the probe
            _probe_work()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = _clock()
            _probe_work()
            self.last = _clock()
            self.times.append(self.last - start)

    def due(self) -> bool:
        return _clock() - self.last >= PROBE_INTERVAL_S

    def mark(self) -> int:
        return len(self.times)

    def scale(self, mark: int | None = None) -> float:
        """Scale for a time measured after probe ``mark - 1`` and before
        probe ``mark``, from the PROBE_REACH probes on either side; with no
        mark, from every probe of the run."""
        near = self.times if mark is None else \
            self.times[max(0, mark - PROBE_REACH):mark + PROBE_REACH]
        return REFERENCE_PROBE_S / statistics.mean(near)


def run_rounds(items, op, seconds: float, min_rounds: int, speed: SpeedProbe,
               after_round=None):
    """Closed loop, one operation in flight, whole rounds over ``items`` until
    ``seconds`` have passed.  Returns per-round results (None where an
    operation failed), per-round latencies in seconds, the speed-probe mark
    of each latency, and the failure count.  Probes run between operations
    and are part of no latency; ``after_round`` is called after each round."""
    rounds, latencies, marks, failed = [], [], [], 0
    speed.sample(PROBE_SAMPLES)
    start = _clock()
    while True:
        results, times, at = [], [], []
        for item in items:
            at.append(speed.mark())
            t = _clock()
            try:
                out = op(item)
            except (OperationFailed, ArithmeticError, LookupError, ValueError,
                    RuntimeError, AssertionError) as exc:
                print(f"operation failed: {exc!r}", file=sys.stderr)
                out = None
                failed += 1
            times.append(_clock() - t)
            results.append(out)
            if speed.due():
                speed.sample(PROBE_SAMPLES)
        rounds.append(results)
        latencies.append(times)
        marks.append(at)
        if after_round is not None:
            after_round(len(rounds))
        if len(rounds) >= min_rounds and _clock() - start >= seconds:
            speed.sample(PROBE_SAMPLES)
            return rounds, latencies, marks, failed


def set_up(name: str, seed: int, run_dir: Path, min_probes: int = SETUP_MIN_PROBES,
           min_s: float = SETUP_MIN_S) -> list[float]:
    """Run the workload's set-up in fresh interpreters, ``min_probes`` times
    and until ``min_s`` seconds have passed; each must write the same inputs.
    Returns the launch-to-exit times."""
    times, inputs = [], None
    while len(times) < min_probes or (sum(times) < min_s and len(times) < SETUP_MAX_PROBES):
        start = _clock()
        run_child([PYTHON, str(BENCH / "setup_probe.py"), name, str(seed), str(run_dir)],
                  run_dir)
        times.append(_clock() - start)
        made = (run_dir / "inputs.json").read_bytes()
        if inputs is not None and made != inputs:
            raise OperationFailed(f"{name}: two set-ups with seed {seed} made different inputs")
        inputs = made
    return times


def checked(workload, rounds) -> list[str]:
    try:
        return workload.check(rounds)
    except Exception as exc:  # a check that cannot read a result is a failed check
        traceback.print_exc()
        return [f"{workload.name}: check raised {exc!r}"]


def timed_run(name: str, seed: int, seconds: float, run_dir: Path) -> dict:
    setup_times = set_up(name, seed, run_dir)
    speed = SpeedProbe()
    workload = WORKLOADS[name](seed, run_dir)
    workload.load()
    rss = {}

    def after_round(n):
        # Memory after a fixed amount of work, however long the run.
        if n == workload.min_rounds:
            rss["mb"] = workload.peak_rss_mb()

    rounds, latencies, marks, failed = run_rounds(
        workload.items, workload.op, seconds, workload.min_rounds, speed, after_round)
    errors = checked(workload, rounds)
    raw = [t for times in latencies for t in times]
    scaled = [t * speed.scale(m) for times, at in zip(latencies, marks)
              for t, m in zip(times, at)]
    unscaled = {"setup_s": statistics.median(setup_times), "ops_per_s": len(raw) / sum(raw),
                "op_p50_ms": statistics.median(raw) * 1e3}
    print(f"unscaled: {json.dumps(unscaled)}", file=sys.stderr)
    # Set-up runs in child processes, beside which the probes read badly;
    # it is scaled by the speed of the whole run.
    metrics = {
        "setup_s": unscaled["setup_s"] * speed.scale(),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": rss["mb"],
    }
    return result(errors, len(raw), failed, metrics, END_TO_END)


def traced_run(seed: int, run_dir: Path) -> dict:
    """One traced round of every workload for the per-layer metrics, each
    beside untraced rounds of the same operations for the overhead."""
    metrics: dict = {}
    errors: list[str] = []
    attempted = failed = 0
    for name, cls in WORKLOADS.items():
        wdir = run_dir / name
        wdir.mkdir()
        set_up(name, seed, wdir, min_probes=1, min_s=0)
        speed = SpeedProbe()
        workload = cls(seed, wdir)
        workload.load()
        plain_s = traced_s = 0.0
        checked_rounds = []
        for i in range(cls.trace_rounds):
            workload.begin_round()
            plain, plain_lat, _, f1 = run_rounds(workload.items, workload.op, 0, 1, speed)
            plain_s += sum(plain_lat[0])
            tracer = Tracer()
            workload.begin_round()
            traced, traced_lat, _, f2 = run_rounds(
                workload.items, lambda item: workload.traced_op(item, tracer), 0, 1, speed)
            traced_s += sum(traced_lat[0])
            attempted += 2 * len(workload.items)
            failed += f1 + f2
            if i == 0:
                merge(metrics, tracer.export())
                checked_rounds = plain + traced
        errors += checked(workload, checked_rounds)
        metrics[f"trace.overhead_pct.{name}"] = (traced_s / plain_s - 1) * 100
    numpy_ms = []
    for _ in range(NUMPY_PROBES):
        out, _ = run_child([PYTHON, "-c", "import time; t = time.perf_counter(); import numpy; "
                            "print((time.perf_counter() - t) * 1e3)"], run_dir)
        numpy_ms.append(float(out))
    metrics["cli.import_numpy_ms"] = statistics.median(numpy_ms)
    return result(errors, attempted, failed, metrics, dict(PER_LAYER))


def result(errors, attempted, failed, metrics, units) -> dict:
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }


def _deadline(signum, frame):
    raise TimeoutError(f"the benchmark did not finish within {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qhpp" / "cli.py").is_file():
        print(f"error: no qhpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for the benchmark and every process it starts, so that the
    # speed probes measure the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    run_dir = BENCH / "out" / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            out = traced_run(args.seed, run_dir)
        else:
            out = timed_run(args.workload, args.seed, args.seconds, run_dir)
    except (OperationFailed, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
