"""The report module: the JSON writer against ``json.dumps``, its streaming,
and the loader that reads a report back."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhpp import cli, report, screening

SRC = Path(report.__file__).resolve().parents[1]


def _written(value) -> str:
    chunks = []
    report.write_json(value, chunks.append)
    return "".join(chunks)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("index", [1, 2, 3])
def test_writer_matches_json_dumps_on_reports(classified, index):
    value = report.report_to_json(classified(index))
    assert _written(value) == _dumps(value)


_KEYS = st.text() | st.sampled_from(["", "é", "\x00", "\x1f", " ", "\U0001f600", '"\\'])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-10**100, 10**100) | st.sampled_from([-10**99, 10**99]) | _KEYS)
_VALUES = st.recursive(_SCALARS, lambda children: st.lists(children, max_size=4)
                       | st.dictionaries(_KEYS, children, max_size=4), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps_on_drawn_values(value):
    assert _written(value) == _dumps(value)


def test_writer_matches_json_dumps_at_the_edges():
    for value in ([], {}, [[]], [{}], {"a": []}, {"a": {}}, [[1], [2, [3]]], [{"b": [{}]}],
                  "", 0, -0, True, None, {"b": 1, "a": 2, "A": 3, "é": 4}):
        assert _written(value) == _dumps(value), value


def test_writer_refuses_what_qhpp_never_writes():
    for value in (1.0, float("nan"), (1,), {"a": [1, 2.5]}, {1: 2}, {"a": {None: 1}},
                  [{"a": (1, 2)}], {1, 2}, b"x"):
        with pytest.raises(TypeError):
            _written(value)


def test_writer_writes_one_candidate_per_call_in_little_memory(classified):
    # json.dumps holds about 5.6 times the text's length at its peak; the
    # writer holds one candidate's text at a time.
    value = report.report_to_json(classified(3))
    length = len(_dumps(value))
    calls, written = [0], [0]

    def sink(chunk):
        calls[0] += 1
        written[0] += len(chunk)

    report.write_json(value, sink)  # imports json.encoder outside the trace
    calls[0] = written[0] = 0
    tracemalloc.start()
    report.write_json(value, sink)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert written[0] == length
    assert calls[0] <= len(value["candidates"]) + 10
    assert peak < length / 4


def test_json_stdout_does_not_depend_on_buffering(classified):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    outs = []
    for unbuffered in ({"PYTHONUNBUFFERED": "1"}, {}):
        outs.append(subprocess.run(
            [sys.executable, "-m", "qhpp.cli", "classify", "--index", "3", "--format", "json"],
            env={**env, **unbuffered}, capture_output=True, check=True).stdout)
    assert outs[0] == outs[1] == _dumps(report.report_to_json(classified(3))).encode()


def test_cli_keeps_the_renderer_names():
    assert cli.report_to_json is report.report_to_json
    assert cli.report_to_markdown is report.report_to_markdown
    with pytest.raises(AttributeError):
        cli.write_json


# ---------------------------------------------------------------------------
# The loader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", [1, 2, 3])
def test_loader_round_trips_every_report(classified, index):
    text = _written(report.report_to_json(classified(index)))
    loaded = report.load(text)
    assert loaded == classified(index)
    assert _written(report.report_to_json(loaded)) == text
    for r in loaded.candidates:
        for verdict in r.verdicts:
            assert screening.replay_verdict(r.config, verdict) is True, \
                (r.config.name, verdict.filter)


def _small_report(classified) -> dict:
    data = report.report_to_json(classified(1))
    data["candidates"] = [c for c in data["candidates"] if c["type"] in ("A4", "A8")]
    return json.loads(json.dumps(data))


def test_loader_refuses_floats_and_constants(classified):
    data = _small_report(classified)
    report.load(json.dumps(data))
    evidence = next(v["evidence"] for v in data["candidates"][0]["verdicts"]
                    if v["filter"] == "donaldson")
    evidence["ambient_rank"] = float(evidence["ambient_rank"])
    assert ".0" in json.dumps(evidence)
    with pytest.raises(ValueError, match="float"):
        report.load(json.dumps(data))
    for constant in ("NaN", "Infinity", "-Infinity"):
        text = json.dumps(data).replace('"index": 1', f'"index": {constant}')
        with pytest.raises(ValueError, match=constant):
            report.load(text)


def _nodes(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _replaced(node, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replaced(node[head], rest, new)}
    return node[:head] + [_replaced(node[head], rest, new)] + node[head + 1:]


def test_loader_raises_only_value_error_on_malformed_text(classified):
    # Every node of a two-candidate report replaced by a value of each JSON
    # type: the loader returns a report or raises ValueError, nothing else.
    data = _small_report(classified)
    replacements = (None, True, 4, -1, "", "Q9", [], [3], {}, {"a": 1})
    loaded = 0
    for path in _nodes(data):
        for new in replacements:
            try:
                report.load(json.dumps(_replaced(data, path, new)))
                loaded += 1
            except ValueError:
                pass
    assert loaded  # evidence is read as saved: replay judges it
    for text in ("", "{", "[1, 2", "[]", "3", '"x"', "null", "{}", '{"index": 1}',
                 '{"index": 4, "candidates": []}', '{"index": true, "candidates": []}',
                 '{"index": "1", "candidates": []}', '{"index": 1, "candidates": 3}',
                 '{"index": 1, "candidates": [{"members": [], "verdicts": []}]}',
                 '{"index": 1, "candidates": [{"members": "E8", "verdicts": []}]}',
                 '{"index": 1, "candidates": [{"members": ["E8"], "verdicts": [[]]}]}',
                 '{"index": 1, "candidates": [{"members": ["E8"], "verdicts": '
                 '[{"filter": "bmy", "outcome": "MAYBE", "evidence": {}}]}]}',
                 "[" * 100_000 + "]" * 100_000, "1" * 5000):
        with pytest.raises(ValueError):
            report.load(text)
