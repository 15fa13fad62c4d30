"""The value records: equality, hashing, defaults, repr, caching and read-only fields."""

from fractions import Fraction

import pytest

from qhpp import catalog, lattice, screening
from qhpp.configuration import Configuration, ObstructionVerdict, Outcome


def test_verdict_equality_includes_evidence():
    a = ObstructionVerdict("bmy", Outcome.PASS, {"K2": "1"}, "note")
    assert a == ObstructionVerdict("bmy", Outcome.PASS, {"K2": "1"}, "note")
    assert a != ObstructionVerdict("bmy", Outcome.PASS, {"K2": "2"}, "note")
    assert a != ObstructionVerdict("bmy", Outcome.OBSTRUCTED, {"K2": "1"}, "note")
    assert a != ObstructionVerdict("bmy", Outcome.PASS, {"K2": "1"})
    assert a != ObstructionVerdict("spin_sum", Outcome.PASS, {"K2": "1"}, "note")


def test_verdict_evidence_is_required_and_kept_as_given():
    evidence = {}
    assert ObstructionVerdict("bmy", Outcome.NOT_APPLICABLE, evidence).evidence is evidence
    assert ObstructionVerdict("bmy", Outcome.PASS, None).evidence is None
    assert ObstructionVerdict("bmy", Outcome.PASS, {}, note="n").note == "n"
    with pytest.raises(TypeError):
        ObstructionVerdict("bmy", Outcome.PASS)


def test_verdict_repr():
    assert repr(ObstructionVerdict("bmy", Outcome.PASS, {})) == \
        "ObstructionVerdict(filter='bmy', outcome=<Outcome.PASS: 'PASS'>, evidence={}, note='')"


def test_configuration_equality_and_hash_follow_members():
    a = Configuration.from_tokens("A2(1,2) E8")
    b = Configuration.from_tokens("E8 A2(1,2)")
    assert a.K2 == 1  # fills a's cache, not b's
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Configuration.from_tokens("A2(1,2) E7")
    assert a != a.members
    assert repr(Configuration([catalog.lookup("A", 1)])).startswith(
        "Configuration(members=(SingularityType(species='A', n=1, index=1, ")


def test_cached_properties_are_computed_once():
    config = Configuration.from_tokens("K1 A4")
    assert config.K2 is config.K2


def _one_of_each_record():
    """An instance of every record type, with one of its fields."""
    config = Configuration.from_tokens("A1")
    emb = lattice.enumerate_embeddings([[-2]], 2)[0]
    report = screening.classify(1)
    return [
        (catalog.LensLink(4, 1), "p"),
        (catalog.TrefoilSurgeryLink(-4), "framing"),
        (catalog.TabulatedLink("D7", frozenset({Fraction(7, 4), Fraction(3, 4)})), "spin_d"),
        (catalog.lookup("A(1,2)", 2), "dp_square"),
        (emb, "vectors"),
        (lattice.complement_witness(emb), "square"),
        (report.candidates[0], "verdicts"),
        (ObstructionVerdict("bmy", Outcome.PASS, {}), "evidence"),
        (config, "members"),
        (report, "index"),
    ]


def test_record_fields_are_read_only():
    for record, field in _one_of_each_record():
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, Fraction(1))
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before, type(record).__name__
