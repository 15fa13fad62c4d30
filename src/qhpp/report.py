"""The classification report as text, and read back.

``classify`` renders a ``screening.ClassificationReport`` as markdown
(``report_to_markdown``) or as JSON: ``report_to_json`` gives the value and
``write_json`` writes it, one candidate per call, as the bytes of
``json.dumps(value, indent=2, sort_keys=True)`` and a newline.  ``load`` reads
such a text back into a report.  ``table`` and ``candidates`` share the
markdown helpers.  The markdown path loads no ``json``.
"""

from __future__ import annotations

from . import catalog, exact, screening
from .configuration import Configuration, ObstructionVerdict, Outcome

_SHORT = {Outcome.PASS: "pass", Outcome.OBSTRUCTED: "OBSTRUCTED", Outcome.NOT_APPLICABLE: "n/a"}

ROW_HEADERS = ["Type", "L", "K^2", "D"]


def config_row(config) -> list:
    """The columns Type, L, K^2 and D of a configuration, D factored when positive."""
    d = config.D
    return [config.name, config.L, exact.ratio_str(*config.K2_pair),
            exact.factor_string(d) if d > 0 else str(d)]


def markdown_table(headers, rows) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        out.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(out)


def _candidate_json(report: screening.ClassificationReport,
                    r: screening.CandidateReport) -> dict:
    c = r.config
    d = c.D
    entry = {
        "type": c.name,
        "members": [t.name for t in c.members],
        "L": c.L,
        "K2": exact.ratio_str(*c.K2_pair),
        "D": str(d),
        "verdicts": [v.to_json() for v in r.verdicts],
        "survived": r.survived,
    }
    if d > 0:
        entry["D_factored"] = exact.factor_string(d)
    if report.index == 3:
        entry["case"] = screening.index3_case(c)
    if r.survived:
        entry["realizable"] = c in report.realizable
    return entry


def report_to_json(report: screening.ClassificationReport) -> dict:
    return {
        "index": report.index,
        "candidates": [_candidate_json(report, r) for r in report.candidates],
        "survivors": [r.config.name for r in report.survivors],
        "unmarked_survivors": [c.name for c in report.unmarked_survivors],
        "cross_checks": report.cross_checks,
    }


def report_to_markdown(report: screening.ClassificationReport) -> str:
    headers = ROW_HEADERS + [f.name for f in screening.FILTERS]
    rows = [config_row(r.config) + [_SHORT[v.outcome] for v in r.verdicts]
            for r in report.candidates]
    lines = [f"# Screening report, index {report.index}", ""]
    lines.append(markdown_table(headers, rows))
    lines.append("")
    lines.append("Survivors: " + ", ".join(r.config.name for r in report.survivors))
    realized = [r.config.name for r in report.survivors if r.config in report.realizable]
    lines.append("Realizable: " + ", ".join(realized))
    open_cases = [c.name for c in report.unmarked_survivors]
    lines.append("Open (no imported realization): "
                 + (", ".join(open_cases) if open_cases else "none"))
    checks = report.cross_checks
    lines.append("Every realizable type survives: "
                 + ("yes" if checks["every_realizable_type_survives"] else "NO"))
    return "\n".join(lines) + "\n"


def write_json(value, write) -> None:
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` and a newline
    through ``write``, without holding the whole text: each dict or list that
    is an item of a list (a candidate of a report) goes out in one call with
    the text before it, unless it lies inside another such item.  Only dicts
    with str keys, lists, str, int, bool and None are written; anything else
    raises ``TypeError``."""
    from json.encoder import encode_basestring_ascii as quote
    out = []

    def scalar(v) -> str:
        if isinstance(v, str):
            return quote(v)
        if v is None or isinstance(v, bool):
            return "null" if v is None else "true" if v else "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, (list, dict)):  # empty
            return "[]" if isinstance(v, list) else "{}"
        raise TypeError(f"{type(v).__name__} {v!r:.40} is not written as JSON")

    def put(v, indent, split):
        # Appends the text of a non-empty list or dict to out, one piece per
        # item; with split set, flushes out after each list or dict item of a list.
        is_list = isinstance(v, list)
        inner = indent + "  "
        sep = ("[\n" if is_list else "{\n") + inner
        # quote raises TypeError on a key that is not a str.
        for item in v if is_list else sorted(v.items()):
            if not is_list:
                sep += quote(item[0]) + ": "
                item = item[1]
            if not (isinstance(item, (list, dict)) and item):
                out.append(sep + scalar(item))
            else:
                out.append(sep)
                put(item, inner, split and not is_list)
                if split and is_list:
                    write("".join(out))
                    out.clear()
            sep = ",\n" + inner
        out.append("\n" + indent + ("]" if is_list else "}"))

    if isinstance(value, (list, dict)) and value:
        put(value, "", True)
    else:
        out.append(scalar(value))
    out.append("\n")
    write("".join(out))


def _refuse(token: str):
    raise ValueError(f"a report holds no float, NaN or Infinity, found {token}")


def load(text: str) -> screening.ClassificationReport:
    """The report that ``classify --format json`` wrote as ``text``, with
    ``realizable`` read from the imported list as ``classify`` reads it.

    Only the index and each candidate's members and verdicts are read.  Any
    malformed text raises ``ValueError``: not JSON, a float or constant
    anywhere, a missing or mistyped field, an unknown token or outcome.
    """
    import json
    try:
        data = json.loads(text, parse_float=_refuse, parse_constant=_refuse)
        index = data["index"]
        if type(index) is not int or index not in (1, 2, 3):
            raise ValueError(f"index {index!r} is not 1, 2 or 3")
        candidates = tuple(screening.CandidateReport(
            Configuration(map(catalog.parse_token, c["members"])),
            tuple(ObstructionVerdict(v["filter"], Outcome(v["outcome"]), v["evidence"],
                                     v.get("note", ""))
                  for v in c["verdicts"]))
            for c in data["candidates"])
    except (KeyError, TypeError, AttributeError, IndexError, RecursionError) as exc:
        raise ValueError(f"malformed report: {type(exc).__name__}: {exc}") from None
    return screening.ClassificationReport(index, candidates, screening.realizable(index))
