"""Replay is total: every genuine verdict replays True after a JSON round
trip, and no tampered verdict, a forged note included, replays True or raises."""

import json

import pytest
from hypothesis import example, given, settings

import drawn
from qhpp import screening
from qhpp.configuration import Configuration, ObstructionVerdict, Outcome, ResourceBudgetExceeded
from qhpp.report import verdict_json, write_json


def _round_trip(verdict):
    return json.loads(json.dumps(verdict_json(verdict)))


def _verdict(data):
    return ObstructionVerdict(data["filter"], Outcome(data["outcome"]),
                              data["evidence"], data.get("note", ""))


def _tampered(node, path=()):
    """Every single edit of one evidence node, as (path, kind, new node):
    ints bumped, bools flipped, strings altered, dict keys dropped, lists
    truncated, extended or made tuples, applied at every depth."""
    if isinstance(node, bool):
        yield path, "flip", not node
    elif isinstance(node, int):
        yield path, "bump", node + 1
    elif isinstance(node, str):
        yield path, "alter", node + "x"
    elif isinstance(node, list):
        if node:
            yield path, "truncate", node[:-1]
        yield path, "extend", node + [node[-1] if node else 0]
        yield path, "tuple", tuple(node)
        for i, item in enumerate(node):
            for sub, kind, new in _tampered(item, path + (i,)):
                yield sub, kind, node[:i] + [new] + node[i + 1:]
    elif isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), "drop", {k: v for k, v in node.items() if k != key}
            for sub, kind, new in _tampered(value, path + (key,)):
                yield sub, kind, {**node, key: new}


def _donaldson_tampered(evidence):
    """Edits aimed at the witness: the witness orbit moved out of range or
    made a non-int, the ambient rank and each complement negated or doubled."""
    orbits = evidence["orbits"]
    if "witness_orbit" in evidence:
        for bad in (len(orbits), -1, "0", 0.0, None, [0]):
            yield {**evidence, "witness_orbit": bad}
    for rank in (evidence["ambient_rank"] - 1, 0, -evidence["ambient_rank"]):
        yield {**evidence, "ambient_rank": rank}
    for i, orbit in enumerate(orbits):
        for gen in ([-x for x in orbit["complement"]], [2 * x for x in orbit["complement"]]):
            changed = orbits[:i] + [{**orbit, "complement": gen}] + orbits[i + 1:]
            yield {**evidence, "orbits": changed}


def _tampered_verdicts(data):
    ev = data["evidence"]
    for outcome in Outcome:
        if outcome.value != data["outcome"]:
            yield {**data, "outcome": outcome.value}
    yield {**data, "filter": data["filter"] + "x"}
    yield {**data, "note": data.get("note", "") + "x"}
    for path, kind, new in _tampered(ev):
        # Only a search shows that the saved orbits are all the orbits, so
        # a Donaldson verdict with its last orbit dropped is taken at its
        # word (README, "Evidence replay").
        if data["filter"] == "donaldson" and path == ("orbits",) and kind == "truncate":
            continue
        yield {**data, "evidence": new}
    if data["filter"] == "donaldson" and "orbits" in ev:
        for new in _donaldson_tampered(ev):
            yield {**data, "evidence": new}
        if data["outcome"] == "OBSTRUCTED" and ev["orbits"]:
            yield {**data, "outcome": "PASS", "evidence": {**ev, "witness_orbit": 0}}
        if data["outcome"] == "PASS":
            rest = {k: v for k, v in ev.items() if k != "witness_orbit"}
            yield {**data, "outcome": "OBSTRUCTED", "evidence": rest}


@pytest.mark.parametrize("index", [1, 2, 3])
def test_replay_rejects_every_tampered_verdict(classified, index):
    accepted = []
    for report in classified(index).candidates:
        for verdict in report.verdicts:
            data = _round_trip(verdict)
            assert screening.replay_verdict(report.config, _verdict(data)) is True, \
                (report.config.name, verdict.filter)
            for bad in _tampered_verdicts(data):
                if screening.replay_verdict(report.config, _verdict(bad)) is not False:
                    accepted.append((report.config.name, bad))
    assert not accepted, accepted[:5]


def test_replay_rejects_malformed_input(classified):
    # E8's Donaldson verdict is NOT_APPLICABLE; A8's is OBSTRUCTED and A4's
    # PASS, so their malformed evidence reaches the rebuild from orbits.
    reports = {r.config.name: r for r in classified(1).candidates}
    for name in ("E8", "A8", "A4"):
        for verdict in reports[name].verdicts:
            malformed = [None, [], "evidence", 3, {"orbits": None}]
            if "orbits" in verdict.evidence:
                ev = verdict.evidence
                orbit = ev["orbits"][0]
                malformed += [{**ev, "orbits": None}] + [
                    {**ev, "orbits": [{**orbit, "vectors": [vector] + orbit["vectors"][1:]}]}
                    for vector in (5, None)]
            for evidence in malformed:
                bad = ObstructionVerdict(verdict.filter, verdict.outcome, evidence)
                assert screening.replay_verdict(reports[name].config, bad) is False
    report = reports["E8"]
    assert screening.replay_verdict(
        report.config, ObstructionVerdict(["donaldson"], Outcome.PASS, {})) is False


@settings(max_examples=150, deadline=None)
@given(drawn.MEMBERS)
@example(drawn.BUDGET_EXHAUSTING)
def test_every_drawn_configuration_replays_and_writes(members):
    # Genuine verdicts replay on any configuration, not only on the
    # candidates; the one failure screening may raise is an exhausted budget,
    # as 2A10(1,1)K6 does at this budget.
    config = Configuration(members)
    try:
        verdicts = screening.screen(config, budget=200_000)
    except ResourceBudgetExceeded:
        return
    saved = [verdict_json(v) for v in verdicts]
    for data in json.loads(json.dumps(saved)):
        assert screening.replay_verdict(config, _verdict(data)) is True, (config.name, data)
    chunks = []
    write_json(saved, chunks.append)
    assert "".join(chunks) == json.dumps(saved, indent=2, sort_keys=True) + "\n"
