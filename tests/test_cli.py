import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qhpp import cli

SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dinv_spin(capsys):
    code, out, _ = run_cli(capsys, "dinv", "--lens", "4,1", "--spin")
    assert code == 0
    assert "label   0: -3/4" in out
    assert "label   2: 1/4" in out


def test_dinv_full(capsys):
    code, out, _ = run_cli(capsys, "dinv", "--lens", "4,3")
    assert code == 0
    assert out.count("label") == 4


def test_dinv_rejects_bad_params(capsys):
    # With p = 0 there is no spin-c label whose value could fail; p and q
    # are validated before p is bounded, so 100000,2 is not a lens space.
    errors = {lens: f"invalid lens space parameters (p, q) = ({lens.replace(',', ', ')})"
              for lens in ("4,2", "0,0", "0,1", "100000,2")}
    # Without --spin, one value per spin-c structure: at most 10,000 of them.
    for p in (10_001, 99_999_999):
        errors[f"{p},1"] = (f"L({p},1) has {p} spin-c structures; dinv lists at most "
                            "10000 of them, or the spin ones with --spin")
    for lens, message in errors.items():
        assert run_cli(capsys, "dinv", "--lens", lens) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, "dinv", "--lens", "10000,1")
    assert code == 0 and out.count("label") == 10_000
    # With --spin, p is not bounded: L(p,1) with p odd has the one label 0,
    # where d = 1/4 - p/4.
    code, out, _ = run_cli(capsys, "dinv", "--lens", "99999999,1", "--spin")
    assert (code, out.splitlines()[1:]) == (0, ["  label   0: -49999999/2"])


def test_dinv_spin_walks_long_euclidean_chains(capsys):
    # Consecutive Fibonacci numbers of 251 digits: the Euclidean chain of
    # L(p, q) has about 1,200 steps, past the interpreter's recursion limit.
    q, p = 1, 2
    while len(str(q)) < 251:
        q, p = p, p + q
    assert len(str(p)) == 251
    code, out, err = run_cli(capsys, "dinv", "--lens", f"{p},{q}", "--spin")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2  # p is odd: one spin structure


def test_dinv_rejects_integers_past_the_conversion_limit(capsys):
    # The interpreter converts at most 4,300 digits to an integer by default.
    p = "9" * 4402
    assert run_cli(capsys, "dinv", "--lens", f"{p},1", "--spin") == (
        2, "", "error: the 4402-digit integer exceeds the interpreter's limit on "
               "integer-string conversion\n")


def test_embed_single_chain(capsys):
    code, out, _ = run_cli(capsys, "embed", "--graphs", "-9", "--ambient", "2")
    assert code == 0
    assert "1 orbit(s)" in out
    assert "square -1" in out


def test_embed_two_chains(capsys):
    code, out, _ = run_cli(capsys, "embed", "--graphs", "-2,-2,-2;-9",
                           "--ambient", "5")
    assert code == 0
    assert "2 orbit(s)" in out
    assert "square -1" in out and "square -4" in out


def test_embed_budget_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "embed", "--graphs", "-2,-2,-3,-2,-2;-10",
                           "--ambient", "7", "--budget", "10")
    assert code == 1
    assert "budget" in err


def test_embed_refuted_instance_prints_no_orbit_at_any_budget(capsys):
    # A Hasse invariant refutes every embedding of these chains in rank 8, so
    # nothing is searched and the smallest budget suffices.
    code, out, err = run_cli(capsys, "embed", "--graphs", "-11,-2,-2,-2;-2,-2,-3",
                             "--ambient", "8", "--budget", "1")
    assert (code, err) == (0, "")
    assert out == "# Embeddings of '-11,-2,-2,-2;-2,-2,-3' into -Z^8: 0 orbit(s)\n"


def test_embed_cost_is_bounded_on_huge_continuants(capsys):
    # Forty weights -16: the continuants reach 16^40, and the rational test
    # in front of the search tries small primes only.
    graphs = ",".join(["-16"] * 40)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "embed", "--graphs", graphs, "--ambient", "41",
                           "--budget", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and "budget" in err


def test_embed_usage_error(capsys):
    code, _, err = run_cli(capsys, "embed", "--graphs", "-1", "--ambient", "2")
    assert code == 2
    assert "error" in err


def test_embed_rejects_malformed_graphs(capsys):
    code, out, err = run_cli(capsys, "embed", "--graphs", "-2;;-3", "--ambient", "4")
    assert (code, out, err) == (2, "", "error: empty plumbing chain in --graphs\n")
    code, out, err = run_cli(capsys, "embed", "--graphs", "-2,x", "--ambient", "4")
    assert (code, out) == (2, "") and err.startswith("error: bad weight in --graphs: ")
    assert err.count("\n") == 1


def test_embed_cost_does_not_grow_with_ambient(capsys):
    # The search runs in rank sum(|w|) = 4, and the zeros past it never print.
    # The first run may also import qhpp.lattice, so the peak is checked on the second.
    orbits = {}
    for ambient in (30, 10**9):
        tracemalloc.start()
        code, out, err = run_cli(capsys, "embed", "--graphs", "-2,-2", "--ambient", str(ambient))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (code, err) == (0, "")
        header, *orbits[ambient] = out.splitlines()
        assert header == f"# Embeddings of '-2,-2' into -Z^{ambient}: 1 orbit(s)"
    assert peak < 1_000_000
    assert orbits[10**9] == orbits[30] == ["", "orbit 1:", "    -2  e1+e2", "    -2  -e2+e3"]


def test_embed_below_corank_one_prints_no_complement(capsys):
    # Two vertices in rank 5: the complement has rank three, so no generator.
    code, out, err = run_cli(capsys, "embed", "--graphs", "-5,-2", "--ambient", "5")
    assert code == 0 and not err
    assert "2 orbit(s)" in out and "complement" not in out


def test_budget_below_one_is_a_usage_error(capsys):
    for budget in ("0", "-1"):
        for argv in (["classify", "--index", "1"], ["embed", "--graphs", "-9", "--ambient", "2"]):
            code, out, err = run_cli(capsys, *argv, "--budget", budget)
            assert code == 2 and not out
            assert [line for line in err.splitlines() if "error:" in line] == \
                [f"qhpp {argv[0]}: error: argument --budget: budget must be at least 1, got {budget}"]


def test_classify_index2_markdown(capsys):
    code, out, _ = run_cli(capsys, "classify", "--index", "2")
    assert code == 0
    assert "Survivors: K5, K2A2, K1, K1A4" in out


def test_classify_index1_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--index", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert sorted(data["survivors"]) == sorted(
        ["E8", "E7", "E6", "D5", "A4", "A2A1", "A1"])
    assert data["unmarked_survivors"] == []
    assert len(data["candidates"]) == 10


def test_classify_index3_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--index", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["survivors"]) == 18
    assert sorted(data["unmarked_survivors"]) == ["A2(1,2)E7", "A2(2,2)E8"]
    survivors = {c["type"]: c for c in data["candidates"] if c["survived"]}
    assert survivors["A2(1,2)E7"]["realizable"] is False
    assert survivors["D5(2)"]["realizable"] is True
    # JSON round-trips.
    assert json.loads(json.dumps(data)) == data


def test_table_index2(capsys):
    code, out, _ = run_cli(capsys, "table", "--id", "index2-D")
    assert code == 0
    assert "18 rows" in out
    assert "| K6 | 2⁵·3 |" in out
    assert "| K1A2 | 2²·3·7 |" in out


def test_table_index3_cases(capsys):
    for case, rows in [(1, 13), (2, 19), (3, 33), (4, 58)]:
        code, out, _ = run_cli(capsys, "table", "--id", f"index3-case{case}")
        assert code == 0
        assert f"{rows} rows" in out
    code, out, _ = run_cli(capsys, "table", "--id", "index3-case2")
    assert "| A6(1,1) | 6 | 13/3 | 13² | yes |" in out


def test_candidates_index2(capsys):
    code, out, _ = run_cli(capsys, "candidates", "--index", "2")
    assert code == 0
    assert "28 rows" in out


def test_linkform_tokens(capsys):
    code, out, _ = run_cli(capsys, "linkform", "--sum", "K1,E6")
    assert code == 0
    assert "composed form: (5/12)" in out
    assert "OBSTRUCTED" in out and "7 is not a square unit mod 12" in out


def test_linkform_fractions(capsys):
    code, out, _ = run_cli(capsys, "linkform", "--sum", "4/9,-1/4")
    assert code == 0
    assert "composed form: (7/36)" in out
    assert "29 is not a square unit mod 36" in out
    code, out, _ = run_cli(capsys, "linkform", "--sum", "3/4")
    assert code == 0
    assert "PASS" in out


LINKFORM_OUTPUTS = {
    "K1,E6": "composed form: (5/12)\nverdict: OBSTRUCTED (7 is not a square unit mod 12; "
             "form is not isomorphic to (-1/12))\n",
    "A2(1,2),D5": "composed form: (7/36)\nverdict: OBSTRUCTED (29 is not a square unit "
                  "mod 36; form is not isomorphic to (-1/36))\n",
    "A2(1,2),E8": "composed form: (4/9)\nverdict: OBSTRUCTED (5 is not a square unit mod 9; "
                  "form is not isomorphic to (-1/9))\n",
    "3/4": "composed form: (3/4)\nverdict: PASS (1 is a square unit mod 4; "
           "form is isomorphic to (-1/4))\n",
    "4/9,-1/4": "composed form: (7/36)\nverdict: OBSTRUCTED (29 is not a square unit "
                "mod 36; form is not isomorphic to (-1/36))\n",
    "E8": "composed form: (0)\nverdict: PASS (trivial group)\n",
    "E8,A1(1)": "composed form: (2/3)\nverdict: PASS (1 is a square unit mod 3; "
                "form is isomorphic to (-1/3))\n",
}


def test_linkform_full_output(capsys):
    for spec, expected in LINKFORM_OUTPUTS.items():
        assert run_cli(capsys, "linkform", "--sum", spec) == (0, expected, ""), spec


def test_linkform_fraction_errors(capsys):
    # 1/0 has no form; 2/4 is read as written, not reduced to 1/2.
    for token, message in (("1/0", "error: form 1/0 has a zero denominator"),
                           ("2/4", "error: form 2/4 is degenerate")):
        code, out, err = run_cli(capsys, "linkform", "--sum", token)
        assert (code, out, err) == (2, "", message + "\n")


def test_linkform_rejects_non_coprime_orders(capsys):
    assert run_cli(capsys, "linkform", "--sum", "1/2,1/4") == (
        2, "", "error: orders 2 and 4 are not coprime\n")


def test_linkform_rejects_integers_past_the_conversion_limit(capsys):
    p = "9" * 4402
    for spec in (f"1/{p}", f"-{p}/7"):
        assert run_cli(capsys, "linkform", "--sum", spec) == (
            2, "", "error: the 4402-digit integer exceeds the interpreter's limit on "
                   "integer-string conversion\n"), spec[:8]


def test_linkform_rejects_a_large_modulus_at_once(capsys):
    # The square-unit table would hold half a billion units; the limit is
    # checked on the composed modulus before any table is built.
    limit = cli.MAX_LINKFORM_MODULUS
    for spec, modulus in (("1/1000000007", 1_000_000_007), ("1/1009,1/1013", 1009 * 1013)):
        tracemalloc.start()
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "linkform", "--sum", spec)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == (f"error: the {len(str(modulus))}-digit composed modulus exceeds "
                       f"the linkform limit {limit}\n")
        assert elapsed < 0.5 and peak < 1_000_000
    code, out, _ = run_cli(capsys, "linkform", "--sum", "1/4,1/9")
    assert code == 0 and "mod 36" in out


def test_linkform_counts_the_digits_of_a_modulus_it_cannot_print(capsys):
    # Each denominator has 3,001 digits, below the interpreter's 4,300-digit
    # conversion limit; their product has 6,002, above it.
    a, b = int("7" * 3000 + "1"), int("7" * 3000 + "3")
    assert run_cli(capsys, "linkform", "--sum", f"1/{a},1/{b}") == (
        2, "", f"error: the 6002-digit composed modulus exceeds the linkform limit "
               f"{cli.MAX_LINKFORM_MODULUS}\n")
    # Exact at the powers of ten, where the float logarithm may round.
    for k in (7, 15, 16, 17, 300):
        for modulus, digits in ((10 ** k - 1, k), (10 ** k, k + 1)):
            code, _, err = run_cli(capsys, "linkform", "--sum", f"1/{modulus}")
            assert (code, err) == (2, f"error: the {digits}-digit composed modulus exceeds "
                                      f"the linkform limit {cli.MAX_LINKFORM_MODULUS}\n")


def test_usage_errors(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "classify")[0] == 2
    assert run_cli(capsys, "classify", "--index", "4")[0] == 2
    assert run_cli(capsys, "table", "--id", "nope")[0] == 2


# The error line of each usage error, as the argparse front end worded it;
# each exits 2, prints nothing on stdout and this one line on stderr.
_VERBS = "'classify', 'table', 'embed', 'dinv', 'linkform', 'candidates'"
USAGE_ERRORS = {
    "": "qhpp: error: the following arguments are required: verb",
    "frobnicate": f"qhpp: error: argument verb: invalid choice: 'frobnicate' (choose from {_VERBS})",
    "-x": "qhpp: error: the following arguments are required: verb",
    "classify": "qhpp classify: error: the following arguments are required: --index",
    "embed --ambient 4": "qhpp embed: error: the following arguments are required: --graphs",
    "classify --index 4": "qhpp classify: error: argument --index: invalid choice: 4 "
                          "(choose from 1, 2, 3)",
    "classify --index -1": "qhpp classify: error: argument --index: invalid choice: -1 "
                           "(choose from 1, 2, 3)",
    "classify --index 1_0": "qhpp classify: error: argument --index: invalid choice: 10 "
                            "(choose from 1, 2, 3)",
    "candidates --index x": "qhpp candidates: error: argument --index: invalid int value: 'x'",
    "classify --index 1 --format xml": "qhpp classify: error: argument --format: invalid "
                                       "choice: 'xml' (choose from 'md', 'json')",
    "table --id nope": "qhpp table: error: argument --id: invalid choice: 'nope' (choose from "
                       "'index2-D', 'index3-case1', 'index3-case2', 'index3-case3', "
                       "'index3-case4')",
    "classify --index": "qhpp classify: error: argument --index: expected one argument",
    "linkform --sum": "qhpp linkform: error: argument --sum: expected one argument",
    "embed --graphs": "qhpp embed: error: argument --graphs: expected one argument",
    "classify --index 1 --bogus": "qhpp: error: unrecognized arguments: --bogus",
    "classify --index 1 --bogus 3": "qhpp: error: unrecognized arguments: --bogus 3",
    "dinv extra --lens 4,1": "qhpp: error: unrecognized arguments: extra",
    "dinv --lens 4,1 --spin=1": "qhpp dinv: error: argument --spin: ignored explicit argument '1'",
    "embed --graphs -9 --ambient x": "qhpp embed: error: argument --ambient: invalid int value: 'x'",
    "classify --index 1 --budget 0": "qhpp classify: error: argument --budget: budget must be "
                                     "at least 1, got 0",
    "classify --index 1 --budget x": "qhpp classify: error: argument --budget: invalid budget "
                                     "value: 'x'",
    "classify --index 1 --budget 1e3": "qhpp classify: error: argument --budget: invalid budget "
                                       "value: '1e3'",
    "candidates --index 9 -h": "qhpp candidates: error: argument --index: invalid choice: 9 "
                               "(choose from 1, 2, 3)",
}


def test_usage_errors_keep_their_wording(capsys):
    for command, line in USAGE_ERRORS.items():
        assert run_cli(capsys, *command.split()) == (2, "", line + "\n"), command


# Spellings that the argparse front end accepted, each with the command
# whose stdout it prints.
SAME_AS = {
    "candidates --index=1": "candidates --index 1",
    "candidates --ind 1": "candidates --index 1",
    "candidates --index 01": "candidates --index 1",
    "candidates --index +1": "candidates --index 1",
    "candidates --index 3 --index 1": "candidates --index 1",
    "table --id=index2-D": "table --id index2-D",
    "embed --graphs=-2,-10,-2 --ambient=4": "embed --graphs -2,-10,-2 --ambient 4",
    "embed --ambient 4 --graphs -2,-10,-2": "embed --graphs -2,-10,-2 --ambient 4",
    "dinv --spin --lens 4,1": "dinv --lens 4,1 --spin",
    "dinv --lens 4,1 --sp": "dinv --lens 4,1 --spin",
    "linkform --sum=-1/4,1/9": "linkform --sum -1/4,1/9",
}


def test_option_spellings_print_the_same(capsys):
    assert run_cli(capsys, "linkform", "--sum", "-1/4,1/9") == (
        0, "composed form: (31/36)\nverdict: OBSTRUCTED (5 is not a square unit mod 36; "
           "form is not isomorphic to (-1/36))\n", "")
    code, out, err = run_cli(capsys, "embed", "--graphs", "-2,-10,-2", "--ambient", "4")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_DIGESTS["embed --graphs -2,-10,-2 --ambient 4"]
    for command, same in SAME_AS.items():
        expected = run_cli(capsys, *same.split())
        assert expected[0] == 0 and expected[1]
        assert run_cli(capsys, *command.split()) == expected, command


HELP_FLAGS = {"classify": ("--index", "--format", "--budget"), "table": ("--id",),
              "embed": ("--graphs", "--ambient", "--budget"), "dinv": ("--lens", "--spin"),
              "linkform": ("--sum",), "candidates": ("--index",)}


def test_help_prints_every_flag_and_exits_0(capsys):
    every = [w for verb, flags in HELP_FLAGS.items() for w in (verb, *flags)]
    for command, words in [("-h", every), ("--help", every), ("--he", every)] + [
            (f"{verb} {h}", flags) for verb, flags in HELP_FLAGS.items()
            for h in ("-h", "--help")] + [("classify --index 1 -h", HELP_FLAGS["classify"]),
                                          ("candidates -h --index 9", ("--index",))]:
        code, out, err = run_cli(capsys, *command.split())
        assert (code, err) == (0, ""), command
        assert out.startswith("usage: qhpp ") and all(w in out for w in words), command


# sha256 of the stdout of each command, recorded before the screening chain
# became one filter table; every later change must leave them as they are.
GOLDEN_DIGESTS = {
    "classify --index 1 --format json": "9b9bcaa7d63d00050b52a08b2822f444c9e530b42a7cfd5d2468fd0cef5fdb7c",
    "classify --index 1 --format md": "53ea1fd50bbb35c4de96c96277261078d1a3421040c702bf18c033e61195d584",
    "classify --index 2 --format json": "15d887dc43e5bb68ef29beada73b3703ecaa5a0698f2b0ff27f8dffdac3a4dc9",
    "classify --index 2 --format md": "26a20defbc8aa6fa7ffe1bb09f05dab3a90ebcfb97447512fc9f6c0bf09dd3e8",
    "classify --index 3 --format json": "3a42ac06575f49ca92554eacbf2dc79ba78d808acbd9c208b84eeb85cf7b560a",
    "classify --index 3 --format md": "71a8c0a7059d439aa1020606dece39e4636f20a77b5b0f8d5eedce0d89fc23f2",
    "table --id index2-D": "c3eb2505476e080d880768392011da2caa59e68a3b90d7c9c1199956522bbfd0",
    "table --id index3-case1": "711a233d48eaafe851ef7d81a61f25f126f9216138605c469608db83394f657e",
    "table --id index3-case2": "f796f9b29f56aa8363c83b4bc0f2528a1c21c421df77a3c9e926bcb89f624737",
    "table --id index3-case3": "1440d33c4cb65556cd1f2fc07f77eea947104bb9333b3f7fc3565550ae321e55",
    "table --id index3-case4": "2672b516cb65e52fbd349b4cbb06cacff62cd3069b75efa4924b148cb44b68e4",
    "candidates --index 1": "91c346d6029f2cf74d0f94b38b4f7c72af7a5eb495e6e9b0750db8cc6b98f63f",
    "candidates --index 2": "2d88294a9f79a4fee928e92541746bba641d9fffe781c5f30bf7319ba7bb64b4",
    "candidates --index 3": "a395793ab677f34048bf51f7dda1e72024fd1a122f669f50c8cae5d432f2fbf8",
    "embed --graphs -2,-10,-2 --ambient 4": "b0036a10dfdf00a35062b008170ddeb85c604209709f64a0f09602ae0bf4f752",
}


def _fresh_interpreter_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}


def test_byte_identical_output():
    # Each command runs in a fresh interpreter, so nothing cached by an
    # earlier call can make two outputs agree.
    env = _fresh_interpreter_env()
    changed = []
    for command, digest in GOLDEN_DIGESTS.items():
        out = subprocess.run([sys.executable, "-m", "qhpp.cli", *command.split()],
                             capture_output=True, env=env, check=True).stdout
        if hashlib.sha256(out).hexdigest() != digest:
            changed.append(command)
    assert not changed


# The qhpp modules each command loads beyond qhpp, qhpp.cli, catalog,
# configuration and exact; the empty command only imports qhpp.cli.
VERB_MODULES = {
    "": set(),
    "dinv --lens 4,1": {"floer"},
    "linkform --sum K1,E6": {"linking"},
    "embed --graphs -2,-10,-2 --ambient 4": {"lattice"},
    "table --id index3-case4": {"screening", "report"},
    "candidates --index 3": {"screening", "report"},
    "classify --index 1 --format md": {"screening", "lattice", "linking", "floer", "report"},
    "classify --index 1 --format json": {"screening", "lattice", "linking", "floer", "report"},
}

# The one command that loads json: its writer quotes through json.encoder.
WRITES_JSON = "classify --index 1 --format json"

_IMPORT_PROBE = """
import contextlib, io, sys
before = set(sys.modules)
from qhpp import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(*sorted(set(sys.modules) - before))
"""


# The commands that read no imported list, so load no importlib.resources.
READS_NO_LIST = {"", "dinv --lens 4,1", "linkform --sum K1,E6",
                 "embed --graphs -2,-10,-2 --ambient 4"}


def test_each_verb_imports_only_its_modules():
    # Every cold start pays for what it imports, so a command loads only the
    # modules its verb runs, none loads dataclasses, numpy, argparse or the
    # gettext and locale that argparse loads, and only the JSON report loads
    # json.  The interpreter runs without site, so the set counts qhpp's
    # imports alone.
    env = _fresh_interpreter_env()
    base = {"qhpp", "qhpp.cli", "qhpp.catalog", "qhpp.configuration", "qhpp.exact"}
    for command, own in VERB_MODULES.items():
        loaded = set(subprocess.run([sys.executable, "-S", "-c", _IMPORT_PROBE, *command.split()],
                                    capture_output=True, text=True, env=env,
                                    check=True).stdout.split())
        assert {m for m in loaded if m.split(".")[0] == "qhpp"} == \
            base | {f"qhpp.{m}" for m in own}, command
        assert not loaded & {"dataclasses", "numpy", "argparse", "gettext", "locale"}, command
        assert ("json.encoder" in loaded) == ("json" in loaded) == (command == WRITES_JSON), \
            command
        assert command not in READS_NO_LIST or "importlib.resources" not in loaded, command


def test_import_log_lists_every_module_a_verb_loads():
    # `-X importtime` logs only the imports that run import statements; a
    # module loaded through importlib.import_module is missing from it, and
    # so from the cold-start listing that CI prints.
    env = _fresh_interpreter_env()
    for command in VERB_MODULES:
        run = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", _IMPORT_PROBE,
                              *command.split()],
                             capture_output=True, text=True, env=env, check=True)
        logged = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                  if line.startswith("import time:")}
        assert {m for m in logged if m.split(".")[0] == "qhpp"} == \
            {m for m in run.stdout.split() if m.split(".")[0] == "qhpp"}, command


def test_the_command_module_is_compiled_once():
    # Under `python -m qhpp.cli` the command module runs as __main__; were any
    # module it loads to import qhpp.cli, cli.py would be compiled and run again.
    err = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "qhpp.cli",
                          "classify", "--index", "1", "--format", "json"],
                         capture_output=True, text=True, env=_fresh_interpreter_env(),
                         check=True).stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")]
    assert "json.encoder" in imported
    assert "qhpp.cli" not in imported


def test_closed_stdout_exits_1_without_a_traceback():
    # The index-3 report is larger than a pipe holds, so the command is still
    # writing when the reader goes away.
    proc = subprocess.Popen([sys.executable, "-m", "qhpp.cli", "classify", "--index", "3",
                             "--format", "json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_fresh_interpreter_env())
    assert proc.stdout.read(10) == b'{\n  "candi'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


_LOAD_LIST_PROBE = """
import contextlib, io, sys
calls = []
sys.setprofile(lambda frame, event, arg: event == "call"
               and frame.f_code.co_name == "imported" and calls.append(frame))
from qhpp import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
sys.setprofile(None)
print(len(calls))
"""


def test_light_verbs_never_parse_the_imported_lists():
    # The classification lists load on first use: the verbs that read none
    # of them parse none, at import or later; the lists still load for the
    # verbs that read them.
    env = _fresh_interpreter_env()
    loads = {command: int(subprocess.run([sys.executable, "-S", "-c", _LOAD_LIST_PROBE,
                                          *command.split()],
                                         capture_output=True, text=True, env=env,
                                         check=True).stdout)
             for command in ["dinv --lens 4,1", "linkform --sum K1,E6",
                             "embed --graphs -2,-10,-2 --ambient 4", "candidates --index 1"]}
    assert loads == {"dinv --lens 4,1": 0, "linkform --sum K1,E6": 0,
                     "embed --graphs -2,-10,-2 --ambient 4": 0, "candidates --index 1": 1}


def test_package_attributes_load_modules_on_first_use():
    # A bare `import qhpp` loads no submodule, so the package has no attribute
    # for one until an import statement loads it.
    subprocess.run([sys.executable, "-S", "-c", "import sys, qhpp\n"
                    "assert not [m for m in sys.modules if m.startswith('qhpp.')]\n"
                    "assert not hasattr(qhpp, 'lattice')\n"
                    "from qhpp import lattice\n"
                    "assert qhpp.lattice is lattice is sys.modules['qhpp.lattice']\n"
                    "assert lattice.DEFAULT_BUDGET == sys.modules['qhpp.configuration'].DEFAULT_BUDGET"],
                   env=_fresh_interpreter_env(), check=True)


def test_linkform_tokens_with_internal_commas(capsys):
    code, out, _ = run_cli(capsys, "linkform", "--sum", "A2(1,2),D5")
    assert code == 0
    assert "composed form: (7/36)" in out
    assert "29 is not a square unit mod 36" in out
    code, out, _ = run_cli(capsys, "linkform", "--sum", "A2(1,2),E8")
    assert code == 0
    assert "5 is not a square unit mod 9" in out


# ---------------------------------------------------------------------------
# Input fuzz: generated argv for every verb, good and bad values alike.
# ---------------------------------------------------------------------------

_SPECIES = st.one_of(
    st.from_regex(r"[ADEKX][0-9]{1,2}(\((1|2|3|1,1|1,2|2,2|2,1)\))?", fullmatch=True),
    st.sampled_from(["A0", "K0", "E5", "D3", "A1(", "(1,2)", "", " ", "A-1"]))
_FRACTIONS = st.builds("{}/{}".format, st.integers(-50, 50), st.integers(0, 50))
_WEIGHTS = st.integers(-20, 3).map(str) | st.sampled_from(["", "x", "--2", "2.5"])
_GRAPHS = st.lists(st.lists(_WEIGHTS, min_size=1, max_size=4).map(",".join),
                   min_size=1, max_size=3).map(";".join)
_RANKS = st.integers(-2, 12).map(str)
_BUDGETS = st.integers(-3, 10**4).map(str)


def _flags(**options):
    """argv for one verb: each option is drawn present or absent."""
    parts = [st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v]))
             for flag, value in options.items()]
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


_ARGV = st.one_of(
    _flags(**{"--index": st.integers(0, 4).map(str),
              "--format": st.sampled_from(["md", "json", "xml"]),
              "--budget": _BUDGETS}).map(lambda a: ["classify", *a]),
    _flags(**{"--id": st.sampled_from(["index2-D", "index3-case4", "index3-case5"])})
    .map(lambda a: ["table", *a]),
    _flags(**{"--graphs": _GRAPHS, "--ambient": _RANKS, "--budget": _BUDGETS})
    .map(lambda a: ["embed", *a]),
    _flags(**{"--lens": st.builds("{},{}".format, st.integers(0, 200), st.integers(-3, 200))
              | st.sampled_from(["", "4", "4,1,1", "a,b", "-4,1"])})
    .flatmap(lambda a: st.sampled_from([[], ["--spin"]]).map(lambda s: ["dinv", *a, *s])),
    _flags(**{"--sum": st.lists(_SPECIES | _FRACTIONS, max_size=4).map(",".join)})
    .map(lambda a: ["linkform", *a]),
    _flags(**{"--index": st.integers(0, 4).map(str)}).map(lambda a: ["candidates", *a]),
    st.lists(st.sampled_from(["embed", "--ambient", "3", "-2", "--graphs", "--budget",
                              "frob", "--help", "-h", "--"]), max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_cli_input_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1
