"""Command-line front end.

Verbs map one-to-one onto library entry points:

    classify    full screening report for one index (markdown or JSON)
    table       the D tables (index-two eliminations, index-three cases 1-4)
    embed       lattice embedding orbits and complement witnesses
    dinv        lens-space d-invariants by spin-c label
    linkform    compose linking forms and run the square-unit test
    candidates  enumerated configurations with L, K^2, D

Exit codes: 0 on success, 1 on runtime failures such as an exhausted search
budget or a reader that closed stdout, 2 on usage errors.  Output is
deterministic byte-for-byte.

Each verb imports the modules it runs inside its handler, so a command loads
only its own code on top of ``catalog``, ``configuration`` and ``exact``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction

from . import catalog
from .configuration import DEFAULT_BUDGET, Outcome, ResourceBudgetExceeded

__all__ = ["main"]


def __getattr__(name):
    # The renderers live in qhpp.report; bench/traced_cli.py reads them here.
    if name in ("report_to_json", "report_to_markdown"):
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


def _parse_int(digits: str) -> int:
    """The integer that a signed string of digits spells, or a usage error past
    the interpreter's limit on integer-string conversion (4,300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        size = len(digits.lstrip("+-"))
        raise UsageError(f"the {size}-digit integer exceeds the interpreter's limit "
                         "on integer-string conversion") from None


def _format_vector(vec) -> str:
    parts = []
    for i, x in enumerate(vec, start=1):
        if x:
            term = {1: "", -1: "-"}.get(x, str(x)) + f"e{i}"
            parts.append("+" + term if parts and x > 0 else term)
    return "".join(parts) or "0"


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    from . import report, screening
    classified = screening.classify(args.index, budget=args.budget)
    if args.format == "json":
        report.write_json(report.report_to_json(classified), sys.stdout.write)
    else:
        print(report.report_to_markdown(classified), end="")
    return 0


# --------------------------------------------------------------------------
# table
# --------------------------------------------------------------------------

TABLE_IDS = ("index2-D", "index3-case1", "index3-case2", "index3-case3", "index3-case4")


def _cmd_table(args) -> int:
    from . import screening
    from .report import ROW_HEADERS, config_row, markdown_table
    if args.id == "index2-D":
        rows = []
        for config in screening.enumerate_candidates(2):
            verdict = screening.arithmetic_filter(config)
            if verdict.obstructed:
                rows.append([config.name, verdict.evidence["factorization"]])
        print(f"# Index-two types eliminated by the square-D test ({len(rows)} rows)")
        print()
        print(markdown_table(["Type", "D"], rows))
        return 0
    case = int(args.id[-1])
    rows = [config_row(config) + ["" if screening.arithmetic_filter(config).obstructed else "yes"]
            for config in screening.enumerate_index3_case(case)]
    print(f"# Index-three case {case} candidates ({len(rows)} rows)")
    print()
    print(markdown_table(ROW_HEADERS + ["D square"], rows))
    return 0


# --------------------------------------------------------------------------
# embed
# --------------------------------------------------------------------------

def _parse_graphs(spec: str) -> list[tuple[int, ...]]:
    chains = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            raise UsageError("empty plumbing chain in --graphs")
        try:
            weights = tuple(int(w) for w in part.split(","))
        except ValueError as exc:
            raise UsageError(f"bad weight in --graphs: {exc}") from None
        chains.append(weights)
    return chains


def _cmd_embed(args) -> int:
    from . import lattice
    chains = _parse_graphs(args.graphs)
    # No vector of norm w uses more than w coordinates, so the search runs in
    # at most the rank sum(|w|); the zero coordinates it leaves out never
    # print.
    vertices = sum(map(len, chains))
    rank = min(args.ambient, sum(abs(w) for chain in chains for w in chain))
    try:
        embeddings = lattice.enumerate_embeddings(chains, rank, budget=args.budget)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"# Embeddings of {args.graphs!r} into -Z^{args.ambient}: "
          f"{len(embeddings)} orbit(s)")
    # The complement has rank one, and so a generator, only at corank one.
    corank_one = vertices == args.ambient - 1
    for idx, emb in enumerate(embeddings, start=1):
        print()
        print(f"orbit {idx}:")
        for w, vec in zip([w for chain in chains for w in chain], emb.vectors):
            print(f"  {w:>4}  {_format_vector(vec)}")
        if corank_one:
            wit = lattice.complement_witness(emb)
            print(f"  complement generator {_format_vector(wit.generator)} "
                  f"with square {wit.square}")
    return 0


# --------------------------------------------------------------------------
# dinv
# --------------------------------------------------------------------------

# Without --spin, dinv prints (and memoizes) one value per spin-c label.
MAX_DINV_LABELS = 10_000


def _cmd_dinv(args) -> int:
    from . import floer
    m = re.match(r"^\s*(\d+)\s*,\s*(\d+)\s*$", args.lens)
    if not m:
        raise UsageError("--lens expects 'p,q'")
    p, q = _parse_int(m.group(1)), _parse_int(m.group(2))
    try:
        spin = floer.spin_labels(p, q)  # raises on invalid p and q, p = 0 included
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not args.spin and p > MAX_DINV_LABELS:
        raise UsageError(f"L({p},{q}) has {p} spin-c structures; dinv lists at most "
                         f"{MAX_DINV_LABELS} of them, or the spin ones with --spin")
    labels = sorted(spin) if args.spin else range(p)
    values = [(i, floer.d_lens(p, q, i)) for i in labels]
    kind = "spin structures" if args.spin else "spin-c structures"
    print(f"# d-invariants of L({p},{q}) at its {kind}")
    for i, value in values:
        print(f"  label {i:>3}: {value}")
    return 0


# --------------------------------------------------------------------------
# linkform
# --------------------------------------------------------------------------

_FRACTION_RE = re.compile(r"^([+-]?\d+)/(\d+)$")

# The square-unit test tabulates the units up to half the composed modulus,
# about 55 bytes each, so linkform stops above this modulus before any table.
MAX_LINKFORM_MODULUS = 1_000_000


def _parse_form_descriptor(token: str) -> Fraction:
    from . import linking
    token = token.strip()
    m = _FRACTION_RE.match(token)
    if m:
        # Numerator and denominator as written, so 2/4 is degenerate, not 1/2.
        c, n = _parse_int(m.group(1)), _parse_int(m.group(2))
        if n == 0:
            raise UsageError(f"form {token} has a zero denominator")
        if math.gcd(c, n) != 1:
            raise UsageError(f"form {token} is degenerate")
        return Fraction(c, n) % 1
    try:
        member = catalog.parse_token(token)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    form = linking.reversed_link_form(member)
    if form is None:
        raise UsageError(f"linking form of the link of {member.name} is not tabulated")
    return form


def _split_descriptors(spec: str) -> list[str]:
    # Split on commas that are not inside parentheses, so species tokens
    # such as A2(1,2) survive intact.
    tokens, depth, current = [], 0, []
    for ch in spec:
        if ch == "," and depth == 0:
            tokens.append("".join(current))
            current = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        current.append(ch)
    tokens.append("".join(current))
    return [t for t in tokens if t.strip()]


def _cmd_linkform(args) -> int:
    from . import linking
    tokens = _split_descriptors(args.sum)
    if not tokens:
        raise UsageError("--sum needs at least one descriptor")
    forms = [_parse_form_descriptor(t) for t in tokens]
    modulus = math.prod(f.denominator for f in forms)
    if modulus > MAX_LINKFORM_MODULUS:
        # Counted, not printed: str() of a modulus past 4,300 digits would raise.
        digits = int(math.log10(modulus)) + 1  # the float may be off by one
        digits += (modulus >= 10 ** digits) - (modulus < 10 ** (digits - 1))
        raise UsageError(f"the {digits}-digit composed modulus exceeds the linkform limit "
                         f"{MAX_LINKFORM_MODULUS}")
    try:
        verdict = linking.boundary_verdict(forms)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    evidence = verdict.evidence
    print(f"composed form: ({evidence['composed']})")
    if evidence["modulus"] == 1:
        print("verdict: PASS (trivial group)")
    else:
        holds = "is" if verdict.outcome is Outcome.PASS else "is not"
        print(f"verdict: {verdict.outcome} ({evidence['residue']} {holds} a square unit mod "
              f"{evidence['modulus']}; form {holds} isomorphic to ({evidence['required_class']}))")
    return 0


# --------------------------------------------------------------------------
# candidates
# --------------------------------------------------------------------------

def _cmd_candidates(args) -> int:
    from . import screening
    from .report import ROW_HEADERS, config_row, markdown_table
    headers = (["Case"] if args.index == 3 else []) + ROW_HEADERS
    rows = []
    for config in screening.enumerate_candidates(args.index):
        case = [screening.index3_case(config)] if args.index == 3 else []
        rows.append(case + config_row(config))
    print(f"# Candidate configurations, index {args.index} ({len(rows)} rows)")
    print()
    print(markdown_table(headers, rows))
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhpp",
        description="Exact screening of quotient-singularity configurations "
                    "on rational homology projective planes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def budget(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"budget must be at least 1, got {value}")
        return value

    p = sub.add_parser("classify", help="run the full screening pipeline for one index")
    p.add_argument("--index", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET,
                   help="extension budget for embedding searches")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("table", help="print one of the D tables")
    p.add_argument("--id", choices=TABLE_IDS, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("embed", help="enumerate lattice embedding orbits")
    p.add_argument("--graphs", required=True,
                   help="semicolon-separated chains of comma-separated "
                        "negative weights, e.g. '-2,-10,-2' or '-2,-2,-2;-9'")
    p.add_argument("--ambient", type=int, required=True)
    p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("dinv", help="lens-space d-invariants")
    p.add_argument("--lens", required=True, help="'p,q' for the lens space L(p,q)")
    p.add_argument("--spin", action="store_true",
                   help="restrict to the spin structures")
    p.set_defaults(func=_cmd_dinv)

    p = sub.add_parser("linkform", help="compose linking forms and test the boundary class")
    p.add_argument("--sum", required=True,
                   help="comma-separated forms 'c/n' or singularity tokens "
                        "(token X contributes the form of the reversed link of X)")
    p.set_defaults(func=_cmd_linkform)

    p = sub.add_parser("candidates", help="list enumerated candidate configurations")
    p.add_argument("--index", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=_cmd_candidates)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    # Values of these flags legitimately start with '-'; fold them into
    # '--flag=value' form so argparse does not mistake them for options.
    out, args = [], iter(argv)
    for arg in args:
        value = next(args, None) if arg in ("--graphs", "--sum") else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device, so that the
        # flush at shutdown does not raise again (Python docs, "Note on SIGPIPE").
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
