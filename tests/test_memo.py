"""The per-type memos: each equals a direct computation, and no result
depends on what was computed before it.

``catalog.lookup`` shares one record per (species, n); ``floer``,
``linking`` and ``lattice`` keep the spin d-invariants, reversed forms and
reversed filling chains of each link once per process.  The formulas below
are written out here, so a memo that returns a stale, reordered or shared
value disagrees with them."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qhpp import catalog, floer, lattice, linking, report, screening
from qhpp.catalog import LensLink, TrefoilSurgeryLink
from qhpp.configuration import DEFAULT_BUDGET, Configuration, Outcome

F = Fraction
SRC = Path(catalog.__file__).resolve().parents[1]


def _members():
    """Every member with n <= 12 of every species, then every member of the
    index 1-3 candidates, each once."""
    out = {}
    for species, (_, least, greatest, _) in catalog.SPECIES.items():
        for n in range(least, (12 if greatest is None else min(12, greatest)) + 1):
            t = catalog.lookup(species, n)
            out[t.name] = t
    for index in (1, 2, 3):
        for config in screening.enumerate_candidates(index):
            for t in config.members:
                out.setdefault(t.name, t)
    return list(out.values())


def _d_lens(p, q, i):
    if p == 1:
        return F(0)
    return F(1, 4) - F((2 * i + 1 - p - q) ** 2, 4 * p * q) - _d_lens(q, p % q, i % q)


def _spin_labels(p, q):
    return [x // 2 for x in (q - 1, p + q - 1) if x % 2 == 0]


def _spin_values(link):
    """The spin d-invariants of a link, or None where none are known."""
    if isinstance(link, LensLink):
        return {_d_lens(link.p, link.q, i) for i in _spin_labels(link.p, link.q)}
    if isinstance(link, TrefoilSurgeryLink):
        # -d of +k surgery on the right trefoil: d(L(k, 1)) plus 2 at label 0.
        k = -link.framing
        return {_d_lens(k, 1 % k, i) + 2 * (i == 0) for i in _spin_labels(k, 1 % k)}
    return link.spin_d


def _reversed_form(link):
    if isinstance(link, LensLink):
        return -F(link.q, link.p) % 1
    if isinstance(link, TrefoilSurgeryLink):
        return -F(1, -link.framing) % 1
    return None


def _reversed_chain(p, q):
    """Negated Hirzebruch-Jung expansion of p/(p - q)."""
    chain, a, b = [], p, p - q
    while b:
        c = -(-a // b)
        chain.append(-c)
        a, b = b, c * b - a
    return tuple(chain)


def test_each_record_is_built_once():
    members = _members()
    assert {t.species for t in members} == set(catalog.SPECIES)
    for t in members:
        assert catalog.lookup(t.species, t.n) is catalog.lookup(t.species, t.n) is t
        assert catalog.parse_token(t.name) is t
        assert Configuration.from_tokens(f"{t.name} {t.name}").members == (t, t)
        assert Configuration.from_tokens(t.name).members[0] is t
    # Types are told apart in the cache: a float is refused even after its
    # int was looked up, and True resolves to the record of 1.
    with pytest.raises(TypeError):
        catalog.lookup("A", 2.0)
    assert catalog.lookup("A", True) is catalog.lookup("A", 1)


def test_memos_equal_direct_computations():
    # Two calls each: the first may fill the memo, the second reads it.
    for t in _members():
        for _ in range(2):
            assert linking.reversed_link_form(t) == _reversed_form(t.link), t.name
            if isinstance(t.link, LensLink):
                assert lattice.plumbing_for_reversed_link(t) == \
                    _reversed_chain(t.link.p, t.link.q), t.name
            else:
                with pytest.raises(ValueError):
                    lattice.plumbing_for_reversed_link(t)
            values = _spin_values(t.link)
            if values is None:
                continue
            assert floer.spin_d_invariants(t) == values, t.name
            # The rendered values, as the spin-sum evidence lists them:
            # in increasing order, with an A1 to make the product even.
            config = Configuration([t] if t.det_r % 2 == 0 else [t, catalog.lookup("A", 1)])
            per_member = dict(map(tuple, floer.spin_sum_obstruction(config).evidence["per_member"]))
            assert per_member[t.name] == [str(v) for v in sorted(values)], t.name


def test_untabulated_spin_data_raises_on_every_call():
    # lru_cache keeps no exception, so the third call raises like the first.
    missing = [t for t in _members() if _spin_values(t.link) is None]
    assert missing
    for t in missing:
        for _ in range(3):
            with pytest.raises(floer.SpinDataUnavailable) as exc:
                floer.spin_d_invariants(t)
            assert str(exc.value) == f"spin d-invariants of {t.name} are not tabulated"
        config = Configuration([t, catalog.lookup("A", 1)])
        for _ in range(2):
            verdict = floer.spin_sum_obstruction(config)
            assert verdict.outcome is Outcome.NOT_APPLICABLE
            assert verdict.evidence["unavailable"] == str(exc.value)


_REPLAY_IN_THREE_ORDERS = """
import json, sys
from qhpp import screening
from qhpp.configuration import Configuration, ObstructionVerdict, Outcome

entries = [(c["members"], v) for path in sys.argv[1:]
           for c in json.load(open(path))["candidates"] for v in c["verdicts"]]
rebuild = {f.name: f.rebuild for f in screening.FILTERS}

def replay(order):
    out = {}
    for i in order:
        members, v = entries[i]
        config = Configuration.from_tokens(" ".join(members))
        verdict = ObstructionVerdict(v["filter"], Outcome(v["outcome"]), v["evidence"],
                                     v.get("note", ""))
        ok = screening.replay_verdict(config, verdict)
        fresh = rebuild[v["filter"]](config, v["evidence"])
        out[i] = [ok, fresh.outcome.value, fresh.evidence]
    return [out[i] for i in range(len(entries))]

passes = [replay(range(len(entries))), replay(reversed(range(len(entries))))]
screening.classify(3)
passes.append(replay(range(len(entries))))
print(json.dumps(passes))
"""


def test_replay_does_not_depend_on_call_history(classified, tmp_path):
    # A fresh interpreter replays every verdict of indices 1-3 in report
    # order with cold memos, then in reversed order, then after a classify.
    paths = []
    for index in (1, 2, 3):
        path = tmp_path / f"report{index}.json"
        path.write_text(json.dumps(report.report_to_json(classified(index))))
        paths.append(str(path))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _REPLAY_IN_THREE_ORDERS, *paths],
                         env=env, capture_output=True, text=True, check=True).stdout
    first, backwards, warm = json.loads(out)
    saved = [[True, v["outcome"], v["evidence"]] for path in paths
             for c in json.loads(Path(path).read_text())["candidates"] for v in c["verdicts"]]
    assert len(saved) == 6 * sum(len(classified(i).candidates) for i in (1, 2, 3))
    assert first == saved
    assert backwards == saved
    assert warm == saved


def test_no_memo_hands_out_a_shared_mutable_value():
    # Two candidates that share a member: vandalize every list of the
    # first's evidence, then the second's must come out as before.
    pairs = {}
    for config in screening.enumerate_candidates(3):
        for t in config.members:
            pairs.setdefault(t, []).append(config)
    shared = [(t, cs) for t, cs in pairs.items()
              if len(cs) > 1 and isinstance(t.link, LensLink) and t.det_r % 2 == 0]
    assert shared
    filters = {f.name: f for f in screening.FILTERS}

    def vandalize(node):
        if isinstance(node, list):
            for item in node:
                vandalize(item)
            node.append("vandalized")
        elif isinstance(node, dict):
            for value in node.values():
                vandalize(value)

    for t, (first, second, *_) in shared[:5]:
        for f in map(filters.get, ("donaldson", "linking_form", "spin_sum")):
            before = f.run(second, DEFAULT_BUDGET).evidence
            saved = copy.deepcopy(before)
            vandalize(f.run(first, DEFAULT_BUDGET).evidence)
            assert f.rebuild(second, saved).evidence == before, (f.name, t.name)
            assert f.run(second, DEFAULT_BUDGET).evidence == before, (f.name, t.name)
    verdict = floer.spin_sum_obstruction(Configuration([catalog.lookup("K", 1)]))
    verdict.evidence["per_member"][0][1].reverse()
    verdict.evidence["witness"].append("vandalized")
    assert floer.spin_sum_obstruction(Configuration([catalog.lookup("K", 1)])).evidence[
        "per_member"] == [["K1", ["-3/4", "1/4"]]]
