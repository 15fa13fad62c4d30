"""Mutation checks: each mutant is a one-line edit of ``src/`` that named
tests must catch (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).

For each mutant the runner copies ``src/``, ``tests/``, ``pytest.ini``, and
``pyproject.toml`` and the benchmark pool that some tests read, into a
temporary directory, applies the edit there (its old text must occur exactly
once, so a renamed line fails loudly) and runs the named tests with
``pytest -x``: they must fail.
``pytest.ini``'s ``pythonpath = src`` puts the mutated copy first on the
path.  The named tests must first pass on an unmutated copy.  Each mutant's
line gives its wall seconds, so a slow one shows in the log.  pytest does
not collect this file.

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pytest.ini", "pyproject.toml", "bench/embed_pool.json")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/qhpp
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("walk-root-shares-dots", "lattice.py",
           "stack, leaves = [(0, (), norm, list(dots))], []",
           "stack, leaves = [(0, (), norm, dots)], []",
           ("tests/test_lattice.py::test_walk_matches_the_reference_walk",)),
    Mutant("gaps-copy", "lattice.py",
           "child, check = gaps[:], opened", "child, check = gaps, opened",
           ("tests/test_lattice.py::test_walk_matches_the_reference_walk",)),
    Mutant("reversed-form-unreversed", "linking.py",
           "return Fraction(link.p - link.q, link.p)", "return Fraction(link.q, link.p)",
           ("tests/test_cross_filter.py", "tests/test_linking.py")),
    Mutant("plumbing-of-the-link-itself", "lattice.py",
           "hj_expand(p, p - q)", "hj_expand(p, q)",
           ("tests/test_cross_filter.py",)),
    Mutant("d-lens-fold-sign", "floer.py",
           "+ p * scaled", "- p * scaled",
           ("tests/test_floer.py",)),
    Mutant("connected-sum-unreduced", "linking.py",
           "for f in forms) % total, total", "for f in forms), total",
           ("tests/test_linking.py",)),
    Mutant("legendre-inverted", "exact.py",
           "(t % 2 and pow(a, half, p) != 1)", "(t % 2 and pow(a, half, p) == 1)",
           ("tests/test_exact.py",)),
    Mutant("a12-correction", "catalog.py",
           "6 * n - 7), Fraction(-2))", "6 * n - 7), Fraction(-5, 3))",
           ("tests/test_catalog.py::test_lens_members_match_the_adjunction_oracle",)),
    Mutant("configuration-unsorted", "configuration.py",
           "ms = tuple(sorted(members, key=SingularityType.sort_key))", "ms = tuple(members)",
           ("tests/test_records.py",)),
    Mutant("everything-realizable", "report.py",
           'entry["realizable"] = c in report.realizable', 'entry["realizable"] = True',
           ("tests/test_cli.py::test_byte_identical_output",)),
    Mutant("case4-coprime-at-every-prime", "screening.py",
           "modulus = 6 if case == 4 else 0", "modulus = 0",
           ("tests/test_screening.py::test_index3_case_counts",)),
    Mutant("k2-reads-a-missing-correction", "configuration.py",
           "if t.dp_square is None:", "if False:",
           ("tests/test_catalog.py::test_d4_index3_dp_square_is_a_hard_error",)),
    Mutant("spin-strings-in-set-order", "floer.py",
           "tuple(map(str, values))", "tuple(map(str, set(values)))",
           ("tests/test_memo.py::test_memos_equal_direct_computations",)),
    Mutant("spin-witness-by-rendered-order", "floer.py",
           "choices = zip(product(*scaled), product(*(strs for _, _, strs in value_sets)))",
           "choices = sorted(zip(product(*scaled), product(*(strs for _, _, strs in value_sets))),"
           " key=lambda c: (sum(c[0]), c[1]))",
           ("tests/test_floer.py::test_spin_witness_is_the_first_choice_in_product_order",)),
    Mutant("json-keys-in-insertion-order", "report.py",
           "for item in v if is_list else sorted(v.items()):",
           "for item in v if is_list else v.items():",
           ("tests/test_report.py::test_writer_matches_json_dumps_on_reports",)),
    Mutant("budget-accepts-zero", "cli.py",
           "if value < 1:", "if value < 0:",
           ("tests/test_cli.py::test_budget_below_one_is_a_usage_error",)),
    Mutant("json-flushed-only-at-the-end", "report.py",
           "if split and is_list:", "if False:",
           ("tests/test_report.py::test_writer_writes_one_candidate_per_call_in_little_memory",)),
    Mutant("hidden-verb-import", "cli.py",
           "    from . import floer\n",
           "    floer = __import__(\"importlib\").import_module(\"qhpp.floer\")\n",
           ("tests/test_cli.py::test_import_log_lists_every_module_a_verb_loads",)),
    Mutant("e-greatest-n-nine", "catalog.py",
           '"E": (1, 6, 8, lambda n:', '"E": (1, 6, 9, lambda n:',
           ("tests/test_catalog.py::test_lookup_errors",)),
    Mutant("k2-first-member-unscaled", "configuration.py",
           "num = sum(s.numerator * (den // s.denominator) for s in squares)",
           "num = squares[0].numerator + sum(s.numerator * (den // s.denominator)"
           " for s in squares[1:])",
           ("tests/test_configuration.py::test_derived_invariants_known_values",)),
    Mutant("no-freeze-at-exit", "cli.py",
           "    gc.freeze()\n", "",
           ("tests/test_cli.py::test_a_command_process_freezes_its_objects_before_shutdown",)),
    Mutant("rationally-embeds-refutes-everything", "lattice.py",
           "    return True\n\n\ndef _pivots(", "    return False\n\n\ndef _pivots(",
           ("tests/test_lattice.py::test_rational_test_applies_at_corank_one_only",)),
    Mutant("pivot-without-its-previous-minor", "lattice.py",
           "pairs.append((prefix * before, minor * before))",
           "pairs.append((prefix * before, minor))",
           ("tests/test_lattice.py::test_continuant_pivots_match_a_rational_elimination",)),
    Mutant("d11-2-tabulated", "catalog.py",
           "{9: frozenset({Fraction(5, 4), Fraction(9, 4)})}",
           "{9: frozenset({Fraction(5, 4), Fraction(9, 4)}), 11: frozenset({Fraction(7, 4)})}",
           ("tests/test_floer.py::test_d_family_spin_d_invariants",)),
    Mutant("realizes-checks-the-diagonal-only", "lattice.py",
           "[-sum(map(mul, a, b)) for b in rows[:i + 1]] == gram[i][:i + 1]",
           "[-sum(map(mul, a, a))] == gram[i][i:i + 1]",
           ("tests/test_lattice.py::test_realizes_matches_a_nested_loop_oracle",)),
    Mutant("memo-stored-under-a-wrong-key", "configuration.py",
           "value = obj.__dict__[self.name] = self.func(obj)",
           "value = obj.__dict__[\"_\" + self.name] = self.func(obj)",
           ("tests/test_records.py::test_cached_properties_are_computed_once",)),
    Mutant("spin-sum-string-unreduced", "exact.py",
           "g = math.gcd(num, den)", "g = 1",
           ("tests/test_floer.py::test_spin_sum_matches_naive_fraction_sums_on_drawn_configurations",)),
    Mutant("spin-target-off-by-a-factor", "floer.py",
           "target = top * (den // bottom)", "target = top * den",
           ("tests/test_floer.py::test_spin_sum_pass_cases",)),
    Mutant("fresh-column-never-equal", "lattice.py",
           "same = c > known", "same = False",
           ("tests/test_lattice.py::test_embedding_instances",)),
    Mutant("fresh-units-charged-at-first-use-only", "lattice.py",
           "                spent += units\n",
           "                seen = _fresh_parts.__dict__.setdefault(\"seen\", set())\n"
           "                spent += 0 if (rest, min(free, rest)) in seen else units\n"
           "                seen.add((rest, min(free, rest)))\n",
           ("tests/test_lattice.py::test_pool_budgets_are_locked",)),
    Mutant("non-unit-row-operation-adds", "lattice.py",
           "rows.append([p // g * x - a // g * y for x, y in zip(row, top)])",
           "rows.append([p // g * x + a // g * y for x, y in zip(row, top)])",
           ("tests/test_lattice.py::test_complement_witness_matches_minor_oracle_on_random_matrices",)),
    Mutant("columns-sorted-ascending", "lattice.py",
           "cols.sort(reverse=True)", "cols.sort()",
           ("tests/test_lattice.py::test_canonical_form_matches_the_orbit_minimum",)),
    Mutant("hasse-trim-ignores-the-prefix", "lattice.py",
           "[(a, b) for a, b in pairs if not a % p or not b % p]",
           "[(a, b) for a, b in pairs if not b % p]",
           ("tests/test_lattice.py::test_trimmed_hasse_test_matches_the_untrimmed_one_on_random_chains",)),
    Mutant("module-getter-uncached", "screening.py",
           "@lru_cache(maxsize=None)\ndef _module(name: str):", "def _module(name: str):",
           ("tests/test_screening.py::test_warm_filters_run_no_import_statement",)),
    Mutant("filter-bound-at-import", "screening.py",
           "lambda config, _: cyclic_h1_filter(config)",
           "lambda config, _, run=cyclic_h1_filter: run(config)",
           ("tests/test_screening.py::test_filters_are_looked_up_on_their_modules_when_called",)),
    Mutant("spin-target-rendered-through-a-fraction", "floer.py",
           '"target": exact.ratio_str(top, bottom),', '"target": str(Fraction(top, bottom)),',
           ("tests/test_screening.py::test_screen_and_replay_build_and_render_no_fraction",)),
    Mutant("report-k2-through-a-fraction", "report.py",
           "exact.ratio_str(*config.K2_pair),", "str(config.K2),",
           ("tests/test_screening.py::test_screen_and_replay_build_and_render_no_fraction",)),
    Mutant("bmy-comparison-swapped", "screening.py",
           "if k2 * e_den > 3 * e * k2_den:", "if 3 * e * k2_den > k2 * e_den:",
           ("tests/test_screening.py::"
            "test_arithmetic_and_bmy_match_naive_fraction_arithmetic_on_drawn_configurations",)),
    Mutant("ratio-str-whole-only-over-one", "exact.py",
           "if den != g else", "if den != 1 else",
           ("tests/test_exact.py::test_ratio_str_renders_as_fraction_does",)),
    Mutant("composed-form-string-unreduced", "linking.py",
           '"composed": exact.ratio_str(composed, modulus)', '"composed": f"{composed}/{modulus}"',
           ("tests/test_linking.py::test_boundary_verdict_composes_as_fraction_sums_do",)),
    Mutant("linking-bound-dropped", "linking.py",
           "if modulus > MAX_LINKFORM_MODULUS:", "if False:",
           ("tests/test_linking.py::test_boundary_verdict_refuses_a_large_modulus_before_any_table",)),
)


def _copy_tree(dest: Path) -> None:
    for rel in COPIED:
        src, dst = ROOT / rel, dest / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dst)


def _pytest(tree: Path, tests) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run(mutant: Mutant | None, tests) -> int:
    with tempfile.TemporaryDirectory(prefix="qhpp-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            path = tree / "src" / "qhpp" / mutant.file
            text = path.read_text()
            count = text.count(mutant.old)
            if count != 1:
                raise SystemExit(f"{mutant.name}: old text found {count} times in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new))
        return _pytest(tree, tests)


def main() -> int:
    start = time.perf_counter()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    if _run(None, tests) != 0:
        print("FAIL: the named tests do not pass on the unmutated tree")
        return 1
    survivors = []
    for m in MUTANTS:
        started = time.perf_counter()
        code = _run(m, m.tests)
        caught = code == 1  # pytest's exit code for failed tests
        print(f"{'caught' if caught else 'SURVIVED'}: {m.name} (pytest exit {code}, "
              f"{time.perf_counter() - started:.1f} s)", flush=True)
        if not caught:
            survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
