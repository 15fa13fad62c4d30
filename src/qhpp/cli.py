"""Command-line front end.

Verbs map one-to-one onto library entry points:

    classify    full screening report for one index (markdown or JSON)
    table       the D tables (index-two eliminations, index-three cases 1-4)
    embed       lattice embedding orbits and complement witnesses
    dinv        lens-space d-invariants by spin-c label
    linkform    compose linking forms and run the square-unit test
    candidates  enumerated configurations with L, K^2, D

A flag is written in full or as a unique prefix (``--ind 3``), and takes its
value as ``--flag value`` or ``--flag=value``; the value may start with '-'
(``--graphs -2,-10,-2``).  ``-h`` or ``--help`` prints the usage and exits 0.

Exit codes: 0 on success, 1 on runtime failures such as an exhausted search
budget or a reader that closed stdout, 2 on usage errors.  Output is
deterministic byte-for-byte.

Each verb imports the modules it runs inside its handler, so a command loads
only its own code on top of ``catalog``, ``configuration`` and ``exact``.
"""

from __future__ import annotations

import gc
import math
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import catalog
from .configuration import DEFAULT_BUDGET, Outcome, ResourceBudgetExceeded


def __getattr__(name):
    # The renderers live in qhpp.report; bench/traced_cli.py reads them here.
    if name in ("report_to_json", "report_to_markdown"):
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """A usage error: its message, then the command that reports it, if any."""


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


def _cmd_classify(args) -> int:
    from . import report, screening
    classified = screening.classify(args.index, budget=args.budget)
    if args.format == "json":
        report.write_json(report.report_to_json(classified), sys.stdout.write)
    else:
        print(report.report_to_markdown(classified), end="")
    return 0


TABLE_IDS = ("index2-D", "index3-case1", "index3-case2", "index3-case3", "index3-case4")


def _print_table(title: str, headers, rows) -> int:
    from .report import markdown_table
    print(f"# {title} ({len(rows)} rows)", "", markdown_table(headers, rows), sep="\n")
    return 0  # the exit code of the verb that prints the table


def _cmd_table(args) -> int:
    from . import screening
    from .report import ROW_HEADERS, config_row
    if args.id == "index2-D":
        rows = []
        for config in screening.enumerate_candidates(2):
            verdict = screening.arithmetic_filter(config)
            if verdict.obstructed:
                rows.append([config.name, verdict.evidence["factorization"]])
        return _print_table("Index-two types eliminated by the square-D test", ["Type", "D"], rows)
    case = int(args.id[-1])
    rows = [config_row(config) + ["" if screening.arithmetic_filter(config).obstructed else "yes"]
            for config in screening.enumerate_index3_case(case)]
    return _print_table(f"Index-three case {case} candidates", ROW_HEADERS + ["D square"], rows)


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


# Without --spin, dinv prints one value per spin-c label.
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


def _cmd_candidates(args) -> int:
    from . import screening
    from .report import ROW_HEADERS, config_row
    headers = (["Case"] if args.index == 3 else []) + ROW_HEADERS
    rows = []
    for config in screening.enumerate_candidates(args.index):
        case = [screening.index3_case(config)] if args.index == 3 else []
        rows.append(case + config_row(config))
    return _print_table(f"Candidate configurations, index {args.index}", headers, rows)


def budget(text: str) -> int:
    # Named so that text which is no integer reads "invalid budget value".
    value = int(text)
    if value < 1:
        raise UsageError(f"budget must be at least 1, got {value}")
    return value


REQUIRED = object()

# Each verb's handler and flags.  A flag maps to its converter and default:
# the converter is a function, the tuple of the values the flag takes (whose
# type converts the text first, so --index 01 means 1), or None for a switch.
VERBS = {
    "classify": (_cmd_classify, {"--index": ((1, 2, 3), REQUIRED),
                                 "--format": (("md", "json"), "md"),
                                 "--budget": (budget, DEFAULT_BUDGET)}),
    "table": (_cmd_table, {"--id": (TABLE_IDS, REQUIRED)}),
    "embed": (_cmd_embed, {"--graphs": (str, REQUIRED), "--ambient": (int, REQUIRED),
                           "--budget": (budget, DEFAULT_BUDGET)}),
    "dinv": (_cmd_dinv, {"--lens": (str, REQUIRED), "--spin": (None, False)}),
    "linkform": (_cmd_linkform, {"--sum": (str, REQUIRED)}),
    "candidates": (_cmd_candidates, {"--index": ((1, 2, 3), REQUIRED)}),
}


def _usage(verb: str) -> str:
    words = []
    for flag, (convert, default) in VERBS[verb][1].items():
        if convert is not None:
            flag += " " + ("{%s}" % ",".join(map(str, convert)) if isinstance(convert, tuple)
                           else flag[2:].upper())
        words.append(flag if default is REQUIRED else f"[{flag}]")
    return f"usage: qhpp {verb} [-h] " + " ".join(words)


def _convert(flag: str, convert, text: str, prog: str):
    kind = type(convert[0]) if isinstance(convert, tuple) else convert
    try:
        value = kind(text)
    except (ValueError, UsageError) as exc:
        message = exc if isinstance(exc, UsageError) else f"invalid {kind.__name__} value: {text!r}"
        raise UsageError(f"argument {flag}: {message}", prog) from None
    if isinstance(convert, tuple) and value not in convert:
        raise UsageError(f"argument {flag}: invalid choice: {value!r} (choose from "
                         f"{', '.join(map(repr, convert))})", prog)
    return value


def _parse(argv: list[str]):
    """The handler and options that argv names, or None once -h or --help has
    printed the usage.  A flag is named in full or by a unique prefix, and
    takes the text after '=' or else the next token, even one that starts
    with '-'.  Errors are worded as the standard library's argparse words them."""
    verb = argv[0] if argv else ""
    handler, flags = VERBS.get(verb, (None, {}))
    prog = f"qhpp {verb}" if handler else "qhpp"
    args = {flag[2:]: default for flag, (_, default) in flags.items()}
    tokens, extras = iter(argv[1:] if handler else argv[:1]), []
    for token in tokens:
        name, eq, text = token.partition("=")
        found = [f for f in (*flags, "--help") if len(name) > 2 and f.startswith(name)]
        flag = found[0] if len(found) == 1 else name
        convert, _ = flags.get(flag, (None, None))
        if flag in ("-h", "--help") and not eq:
            print("\n".join(map(_usage, [verb] if handler else VERBS)))
            return None
        if flag not in flags:
            extras.append(token)
        elif convert is None and eq:
            raise UsageError(f"argument {flag}: ignored explicit argument {text!r}", prog)
        elif convert is None:
            args[flag[2:]] = True
        elif not eq and (text := next(tokens, None)) is None:
            raise UsageError(f"argument {flag}: expected one argument", prog)
        else:
            args[flag[2:]] = _convert(flag, convert, text, prog)
    if not handler:
        raise UsageError(f"argument verb: invalid choice: {verb!r} (choose from "
                         f"{', '.join(map(repr, VERBS))})" if verb[:1] not in ("", "-")
                         else "the following arguments are required: verb", prog)
    missing = ", ".join(f"--{name}" for name, value in args.items() if value is REQUIRED)
    if missing:
        raise UsageError(f"the following arguments are required: {missing}", prog)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}", "qhpp")
    return handler, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            return 0
        code = parsed[0](parsed[1])
        sys.stdout.flush()
        return code
    except UsageError as exc:
        message, *prog = exc.args
        print(*prog, f"error: {message}", sep=": ", file=sys.stderr)
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


def run() -> int:
    """The exit code of the command in sys.argv, for a process that ends next:
    the ``qhpp`` script and ``python -m qhpp.cli``.  Callers in a process that
    goes on call main()."""
    code = main()
    # Shutdown runs the cycle collector over every live object: the modules,
    # the records, the report.  Frozen, they sit in its permanent generation,
    # which no collection walks.  Atexit handlers and the flush of the
    # standard streams run as before.
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
