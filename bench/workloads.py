"""The three workloads of the qhpp benchmark.

Each workload is a closed loop with one client and one operation in flight.
Its lifetime has three parts:

* ``prepare`` runs in a fresh interpreter (the set-up probe, see
  ``setup_probe.py``): it imports ``qhpp.cli`` cold and writes the run's
  inputs, made from the seed, to ``inputs.json`` in the workload's run
  directory.  The benchmark times it from launch to exit.
* ``load`` reads those inputs back in the benchmark process; ``items`` is
  then one round of operations, in seeded order.
* ``op`` (and ``traced_op`` under a Tracer) performs one operation and
  returns what it produced; ``check`` verifies those results with the
  benchmark's own arithmetic (``checks.py``), outside the timed part.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import checks
from tracing import Tracer, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PYTHON = sys.executable


class OperationFailed(RuntimeError):
    """An operation ended without a result: a nonzero exit or an exception."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv, tmp_dir: Path) -> tuple[bytes, int]:
    """Run one child process to completion; return its stdout and its peak
    resident memory in KiB.  The child is killed if the caller is interrupted."""
    with tempfile.TemporaryFile(dir=tmp_dir) as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                cwd=ROOT, env=child_env())
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            raise OperationFailed(f"{' '.join(map(str, argv[1:]))} exited with "
                                  f"{proc.returncode}: {err.read().decode(errors='replace')[-400:]}")
    return out, usage.ru_maxrss


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    name = ""
    # At least three rounds, so that each operation's median latency sets
    # one slow or cold round aside, and reproduce compares cold runs.
    min_rounds = 3
    # Rounds of each kind that a traced run alternates, untraced and traced.
    trace_rounds = 1

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        self.items: list = []

    def make_inputs(self):
        raise NotImplementedError

    def prepare(self) -> None:
        (self.run_dir / "inputs.json").write_text(json.dumps(self.make_inputs()))

    def load(self) -> None:
        self.items = json.loads((self.run_dir / "inputs.json").read_text())

    def op(self, item):
        raise NotImplementedError

    def begin_round(self) -> None:
        """Called before each round of a traced run, untraced and traced alike."""

    def traced_op(self, item, tracer: Tracer):
        with tracer:
            return self.op(item)

    def check(self, rounds: list[list]) -> list[str]:
        """Problems found in the results, one list per round.  A failed
        operation's result is None; it is counted as failed, not checked."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()


# ----------------------------------------------------------------------
# reproduce: the paper re-derived from the command line, one cold process
# per command


INDEX1_SURVIVORS = {"E8", "E7", "E6", "D5", "A4", "A2A1", "A1"}
INDEX2_SURVIVORS = {"K5", "K2A2", "K1A4", "K1"}
INDEX3_SURVIVOR_COUNT = 18
INDEX3_OPEN = {"A2(1,2)E7", "A2(2,2)E8"}
TABLE_ROWS = {"index2-D": 18, "index3-case1": 13, "index3-case2": 19,
              "index3-case3": 33, "index3-case4": 58}
CANDIDATE_ROWS = {2: 28, 3: 131}
# Boundary linking forms of the paper's examples: (composed form, residue, modulus).
LINKFORM_CASES = {"K1,E6": ("5/12", 7, 12), "A2(1,2),D5": ("7/36", 29, 36),
                  "A2(1,2),E8": ("4/9", 5, 9)}
# The paper's embedding figures: chains, ambient rank, complement squares.
# The first is the light `embed` command of reproduce; it is not seeded, so
# that the traced run's lattice counts do not depend on the seed.
FIGURE_EMBEDS = [
    ([[-2, -10, -2]], 4, [-4, -1]),
    ([[-9]], 2, [-1]),
    ([[-8]], 2, [-2]),
    ([[-2, -9, -2]], 4, [-2]),
    ([[-2, -2, -2], [-9]], 5, [-4, -1]),
    ([[-3, -2, -2, -2]], 5, [-1]),
    ([[-3, -6, -2, -2]], 5, [-5]),
    ([[-3, -2, -2, -2], [-8]], 6, [-18, -2]),
    ([[-3, -3, -2, -2]], 5, [-2]),
    ([[-3, -9, -2, -2]], 5, [-2]),
    ([[-3, -10, -2, -2]], 5, [-1]),
    ([[-2, -2, -3, -2, -2], [-10]], 7, [-6, -6]),
    ([[-2, -2, -6, -2, -2], [-7]], 7, [-6, -6]),
    ([[-2, -2, -12, -2, -2]], 6, [-6]),
]


def graphs_spec(chains) -> str:
    return ";".join(",".join(str(w) for w in chain) for chain in chains)


class Reproduce(Workload):
    name = "reproduce"

    def __init__(self, seed, run_dir):
        super().__init__(seed, run_dir)
        self.max_rss_kb = 0

    def make_inputs(self):
        rng = random.Random(self.seed)
        cmds = [["classify", "--index", str(i), "--format", fmt]
                for i in (1, 2, 3) for fmt in ("json", "md")]
        cmds += [["table", "--id", t] for t in TABLE_ROWS]
        cmds += [["candidates", "--index", str(i)] for i in (1, 2, 3)]
        if rng.random() < 0.5:
            n = rng.randrange(2, 61)
            p, q = n + 1, n
        else:
            n = rng.randrange(1, 16)
            p, q = 4 * n, 2 * n - 1
        cmds.append(["dinv", "--lens", f"{p},{q}", "--spin"])
        cmds.append(["linkform", "--sum", rng.choice(sorted(LINKFORM_CASES))])
        chains, rank, _ = FIGURE_EMBEDS[0]
        cmds.append(["embed", "--graphs", graphs_spec(chains), "--ambient", str(rank)])
        rng.shuffle(cmds)
        return cmds

    def op(self, args):
        out, rss = run_child([PYTHON, "-m", "qhpp.cli", *args], self.run_dir)
        self.max_rss_kb = max(self.max_rss_kb, rss)
        return out

    def traced_op(self, args, tracer):
        dump = self.run_dir / "traced.json"
        out, _ = run_child([PYTHON, str(BENCH / "traced_cli.py"), str(dump), *args],
                           self.run_dir)
        part = json.loads(dump.read_text())
        tracer.samples["cli.import_ms"].append(part.pop("cli.import_ms"))
        merge(tracer.extra, part)
        return out

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024

    def check(self, rounds):
        errors = []
        first = rounds[0]
        for r, later in enumerate(rounds[1:], start=2):
            for args, a, b in zip(self.items, first, later):
                if None not in (a, b) and a != b:
                    errors.append(f"{' '.join(args)}: stdout of cold run {r} differs from run 1")
        classified, listed = {}, {}
        for args, out in zip(self.items, first):
            if out is None:
                continue
            try:
                errors += self._check_one(args, out.decode(), classified, listed)
            except (ValueError, KeyError, IndexError, StopIteration) as exc:
                errors.append(f"{' '.join(args)}: unreadable output ({exc!r})")
        for index, rows in listed.items():
            if rows != classified.get(index):
                errors.append(f"candidates --index {index} lists {rows} rows, "
                              f"classify screens {classified.get(index)}")
        return errors

    def _check_one(self, args, text, classified, listed) -> list[str]:
        verb = args[0]
        where = " ".join(args)
        if verb == "classify":
            return self._check_classify(int(args[2]), args[4], text, where, classified)
        if verb == "table":
            rows = _table_rows(text)
            want = TABLE_ROWS[args[2]]
            return [] if rows == want else [f"{where}: {rows} rows, expected {want}"]
        if verb == "candidates":
            index = int(args[2])
            rows = _table_rows(text)
            want = CANDIDATE_ROWS.get(index)
            listed[index] = rows
            return [] if want in (None, rows) else [f"{where}: {rows} rows, expected {want}"]
        if verb == "dinv":
            p, q = (int(x) for x in args[2].split(","))
            family, n = ("A", q) if p == q + 1 else ("K", p // 4)
            got = {Fraction(line.split(":")[1].strip())
                   for line in text.splitlines() if line.strip().startswith("label")}
            want = checks.spin_d_closed_form(family, n)
            return [] if got == want else [f"{where}: spin d-invariants {sorted(got)}, "
                                           f"closed form gives {sorted(want)}"]
        if verb == "linkform":
            form, residue, modulus = LINKFORM_CASES[args[2]]
            verdict = "PASS" if checks.is_square_unit(residue, modulus) else "OBSTRUCTED"
            lines = text.splitlines()
            ok = (lines[0] == f"composed form: ({form})"
                  and lines[1].startswith(f"verdict: {verdict} ({residue} "))
            return [] if ok else [f"{where}: expected form {form} and verdict {verdict}"]
        if verb == "embed":
            want = sorted(FIGURE_EMBEDS[0][2])
            squares = sorted(int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
                             if "complement generator" in line)
            header_count = int(text.splitlines()[0].split(": ")[1].split()[0])
            ok = squares == want and header_count == len(want)
            return [] if ok else [f"{where}: complement squares {squares}, expected {want}"]
        return [f"{where}: unknown command"]

    def _check_classify(self, index, fmt, text, where, counts) -> list[str]:
        if fmt == "json":
            report = json.loads(text)
            survivors = set(report["survivors"])
            open_cases = set(report["unmarked_survivors"])
            every = report["cross_checks"]["every_realizable_type_survives"]
            counts[index] = len(report["candidates"])
        else:
            lines = {line.split(": ", 1)[0]: line.split(": ", 1)[1]
                     for line in text.splitlines() if ": " in line and not line.startswith("|")}
            survivors = set(lines["Survivors"].split(", "))
            open_text = lines["Open (no imported realization)"]
            open_cases = set() if open_text == "none" else set(open_text.split(", "))
            every = lines["Every realizable type survives"] == "yes"
        errors = []
        if not every:
            errors.append(f"{where}: a realizable type does not survive")
        if index == 1 and (survivors != INDEX1_SURVIVORS or open_cases):
            errors.append(f"{where}: survivors {sorted(survivors)}")
        if index == 2 and (survivors != INDEX2_SURVIVORS or open_cases):
            errors.append(f"{where}: survivors {sorted(survivors)}")
        if index == 3 and (len(survivors) != INDEX3_SURVIVOR_COUNT or open_cases != INDEX3_OPEN):
            errors.append(f"{where}: {len(survivors)} survivors, open {sorted(open_cases)}")
        return errors


def _table_rows(text: str) -> int:
    return sum(line.startswith("|") for line in text.splitlines()) - 2


# ----------------------------------------------------------------------
# embed_stress: the embedding search alone, above the paper's sizes


POOL_FILE = BENCH / "embed_pool.json"
BRUTE_FORCE_INSTANCES = 3


class EmbedStress(Workload):
    name = "embed_stress"

    def make_inputs(self):
        from qhpp import lattice  # noqa: F401  (the set-up includes the cold import)

        instances = json.loads(POOL_FILE.read_text())["instances"]
        random.Random(self.seed).shuffle(instances)
        return instances

    def load(self):
        super().load()
        from qhpp import lattice

        self.lattice = lattice
        self.clear_vector_cache = getattr(lattice.vectors_of_norm, "cache_clear", lambda: None)

    def begin_round(self):
        # A traced round starts from an empty vector cache, so that it counts
        # the vectors one round generates; its untraced twin does the same.
        self.clear_vector_cache()

    def op(self, inst):
        lattice = self.lattice
        embeddings = lattice.enumerate_embeddings(inst["chains"], inst["rank"])
        out = []
        for emb in embeddings:
            wit = lattice.complement_witness(emb)
            out.append((emb.vectors, wit.generator, wit.square))
        return out

    def check(self, rounds):
        errors = []
        first = rounds[0]
        for r, later in enumerate(rounds[1:], start=2):
            if any(None not in (a, b) and a != b for a, b in zip(first, later)):
                errors.append(f"round {r} returned other orbits than round 1")
        for inst, orbits in zip(self.items, first):
            if orbits is None:
                continue
            errors += orbit_errors(inst["chains"], inst["rank"], orbits, inst["orbits"],
                                   inst.get("witness"))
        lattice = self.lattice
        for chains, rank, squares in FIGURE_EMBEDS:
            embs = lattice.enumerate_embeddings(chains, rank)
            got = sorted(lattice.complement_witness(e).square for e in embs)
            if got != sorted(squares):
                errors.append(f"figure instance {chains} in rank {rank}: squares {got}, "
                              f"expected {sorted(squares)}")
        rng = random.Random(self.seed)
        for _ in range(BRUTE_FORCE_INSTANCES):
            rank = rng.choice((3, 4))
            sizes = rng.choice([[rank - 1], [1, rank - 2]])
            chains = [[-rng.randint(2, 6) for _ in range(size)] for size in sizes]
            want = checks.brute_force_orbits(chains, rank)
            embs = lattice.enumerate_embeddings(chains, rank)
            if len(embs) != len(want):
                errors.append(f"{chains} in rank {rank}: {len(embs)} orbits, "
                              f"brute force finds {len(want)}")
        return errors


def orbit_errors(chains, rank, orbits, expected_count, witness=None) -> list[str]:
    """Checks of one search result: each orbit's Gram matrix and complement,
    pairwise inequivalence, the orbit count and the constructed embedding."""
    where = f"{chains} in rank {rank}"
    errors = []
    for vectors, generator, square in orbits:
        errors += [f"{where}: {e}" for e in
                   checks.embedding_errors(chains, rank, vectors, generator, square)]
    invariants = {checks.column_invariant(vectors) for vectors, _, _ in orbits}
    if len(invariants) != len(orbits):
        errors.append(f"{where}: two returned orbits are equivalent")
    if len(orbits) != expected_count:
        errors.append(f"{where}: {len(orbits)} orbits, expected {expected_count}")
    if witness is not None and checks.column_invariant(witness) not in invariants:
        errors.append(f"{where}: the constructed embedding is in no returned orbit")
    return errors


# ----------------------------------------------------------------------
# replay: saved classify reports re-checked verdict by verdict


class Replay(Workload):
    name = "replay"
    trace_rounds = 10

    def make_inputs(self):
        import contextlib
        import io

        from qhpp import cli

        entries = []
        for index in (1, 2, 3):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["classify", "--index", str(index), "--format", "json"])
            if code != 0:
                raise OperationFailed(f"classify --index {index} exited with {code}")
            (self.run_dir / f"report{index}.json").write_text(buf.getvalue())
            report = json.loads(buf.getvalue())
            entries += [json.dumps(entry) for entry in report["candidates"]]
        random.Random(self.seed).shuffle(entries)
        return entries

    def load(self):
        super().load()
        from qhpp import screening
        from qhpp.configuration import Configuration, ObstructionVerdict, Outcome

        self.screening = screening
        self.parse = Configuration.from_tokens
        self.verdict = lambda v: ObstructionVerdict(
            v["filter"], Outcome(v["outcome"]), v["evidence"], v.get("note", ""))

    def op(self, text):
        entry = json.loads(text)
        config = self.parse(" ".join(entry["members"]))
        replay = self.screening.replay_verdict
        return tuple(replay(config, self.verdict(v)) for v in entry["verdicts"])

    def traced_op(self, text, tracer):
        entry = json.loads(text)
        start = time.perf_counter()
        config = self.parse(" ".join(entry["members"]))
        tracer.ms["configuration.parse_ms"] += (time.perf_counter() - start) * 1e3
        out = []
        with tracer:
            replay = self.screening.replay_verdict
            for v in entry["verdicts"]:
                verdict = self.verdict(v)
                start = time.perf_counter()
                out.append(replay(config, verdict))
                tracer.ms[f"screening.replay_ms.{v['filter']}"] += (time.perf_counter() - start) * 1e3
        return tuple(out)

    def check(self, rounds):
        errors = []
        for r, results in enumerate(rounds, start=1):
            for text, replayed in zip(self.items, results):
                if replayed is not None and not all(replayed):
                    entry = json.loads(text)
                    errors.append(f"round {r}: {entry['type']}: a genuine verdict does not replay")
        for index in (1, 2, 3):
            report = json.loads((self.run_dir / f"report{index}.json").read_text())
            for entry in report["candidates"]:
                errors += donaldson_evidence_errors(entry)
        return errors


def donaldson_evidence_errors(entry) -> list[str]:
    """Every saved Donaldson orbit passes the Gram and complement checks, and
    the outcome follows from the saved squares."""
    verdict = next(v for v in entry["verdicts"] if v["filter"] == "donaldson")
    if verdict["outcome"] == "NOT_APPLICABLE":
        return []
    ev = verdict["evidence"]
    where = f"{entry['type']} donaldson evidence"
    errors = []
    squares = []
    for orbit in ev["orbits"]:
        errors += [f"{where}: {e}" for e in checks.embedding_errors(
            ev["chains"], ev["ambient_rank"], orbit["vectors"], orbit["complement"],
            orbit["square"])]
        squares.append(orbit["square"])
    target = ev["target_square"]
    if verdict["outcome"] == "PASS" and squares[ev["witness_orbit"]] != target:
        errors.append(f"{where}: the witness orbit does not reach {target}")
    if verdict["outcome"] == "OBSTRUCTED" and target in squares:
        errors.append(f"{where}: OBSTRUCTED although an orbit reaches {target}")
    return errors


WORKLOADS = {w.name: w for w in (Reproduce, EmbedStress, Replay)}
