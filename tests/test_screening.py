import builtins
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import drawn
import expected_tables as tables
from qhpp import catalog, exact, floer, lattice, linking, screening
from qhpp import report as qhpp_report
from qhpp.configuration import Configuration, Outcome

F = Fraction


def _key(tokens):
    return Configuration.from_tokens(tokens)


def _keyset(token_lines):
    return {_key(line) for line in token_lines}


def test_index1_candidates():
    got = set(screening.enumerate_candidates(1))
    assert got == _keyset(tables.INDEX1_CANDIDATES)
    assert len(screening.enumerate_candidates(1)) == 10


def test_index2_candidates():
    got = set(screening.enumerate_candidates(2))
    assert got == _keyset(tables.INDEX2_CANDIDATES)
    assert len(screening.enumerate_candidates(2)) == 28


def test_index3_case_counts():
    counts = {case: len(screening.enumerate_index3_case(case)) for case in range(1, 7)}
    assert counts == {1: 13, 2: 19, 3: 33, 4: 58, 5: 4, 6: 4}
    assert len(screening.enumerate_candidates(3)) == 131


def test_index3_case_round_trip():
    # The index-three species of each case, as the paper's case split lists them.
    species = {1: {"A(1)"}, 2: {"A(1,1)"}, 3: {"A(1,2)"}, 4: {"A(2)", "A(2,2)"},
               5: {"D(1)"}, 6: {"D(2)"}}
    for case, names in species.items():
        configs = screening.enumerate_index3_case(case)
        assert {c.members[0].species for c in configs} == names
        assert {screening.index3_case(c) for c in configs} == {case}
    for index in (1, 2):
        with pytest.raises(ValueError):
            screening.index3_case(screening.enumerate_candidates(index)[0])


def _assert_case_table(case, expected):
    configs = screening.enumerate_index3_case(case)
    got = {c: exact.factor_string(int(c.D)) for c in configs}
    want = {_key(tokens): d for tokens, d in expected.items()}
    assert got == want


def test_index3_case_tables_match_frozen_values():
    _assert_case_table(1, tables.INDEX3_CASE1)
    _assert_case_table(2, tables.INDEX3_CASE2)
    _assert_case_table(3, tables.INDEX3_CASE3)
    _assert_case_table(4, tables.INDEX3_CASE4)
    _assert_case_table(5, tables.INDEX3_CASE5)
    _assert_case_table(6, tables.INDEX3_CASE6)


def test_index2_eliminated_table_matches_frozen_values():
    got = {}
    for config in screening.enumerate_candidates(2):
        verdict = screening.arithmetic_filter(config)
        if verdict.obstructed:
            got[config] = verdict.evidence["factorization"]
    want = {_key(tokens): d for tokens, d in tables.INDEX2_ELIMINATED.items()}
    assert got == want
    assert len(got) == 18


def test_k2_formula_specializations():
    # Gorenstein configurations: K^2 = 9 - L; one index-two singularity
    # contributes an extra +1, giving K^2 = 10 - L.
    for config in screening.enumerate_candidates(1):
        assert config.K2 == 9 - config.L
    for config in screening.enumerate_candidates(2):
        assert config.K2 == 10 - config.L
        assert config.index == 2
    for config in screening.enumerate_candidates(3):
        assert config.index == 3
        assert config.K2 > 0
        assert config.D == config.K2 * config.h1_product


def test_derived_invariants_examples():
    c = Configuration.from_tokens("K2")
    assert (c.L, c.K2, c.D) == (2, F(8), F(64))
    assert c.e_orb == F(17, 8)
    c = Configuration.from_tokens("A1(1) E8")
    assert (c.L, c.K2, c.D) == (9, F(1, 3), F(1))
    c = Configuration.from_tokens("A6(1,1)")
    assert c.D == 169
    c = Configuration.from_tokens("D5(2)")
    assert c.e_orb is None
    assert c.D == 64


def test_e_orb_nonnegative_on_all_candidates():
    for index in (1, 2, 3):
        for config in screening.enumerate_candidates(index):
            e = config.e_orb
            if e is not None:
                assert e >= 0, config.name


def test_arithmetic_filter_examples():
    v = screening.arithmetic_filter(Configuration.from_tokens("K6"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert v.evidence["factorization"] == "2⁵·3"
    v = screening.arithmetic_filter(Configuration.from_tokens("A6(1,1)"))
    assert v.outcome is Outcome.PASS
    assert v.evidence["factorization"] == "13²"
    v = screening.arithmetic_filter(Configuration.from_tokens("A1(1) E8"))
    assert v.outcome is Outcome.PASS
    assert v.evidence["D"] == "1"


def test_bmy_filter():
    # K2 is index two and not a log del Pezzo surface, so K is ample.
    v = screening.bmy_filter(Configuration.from_tokens("K2"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert Fraction(v.evidence["three_e_orb"]) == F(51, 8)
    v = screening.bmy_filter(Configuration.from_tokens("K5"))
    assert v.outcome is Outcome.PASS
    # K1 A4 violates the inequality but an anti-ample canonical class is
    # allowed for it, so it passes overall.
    k1a4 = Configuration.from_tokens("K1 A4")
    assert k1a4.K2 > 3 * k1a4.e_orb
    v = screening.bmy_filter(k1a4)
    assert v.outcome is Outcome.PASS
    assert v.evidence == {"anti_ample_possible": True}
    # No imported data constrains the canonical class outside index two.
    v = screening.bmy_filter(Configuration.from_tokens("A4"))
    assert v.outcome is Outcome.NOT_APPLICABLE


def test_screen_gives_a_verdict_on_every_valid_token():
    # D4(1) and D4(2) have no canonical-square correction; A16, K20 and
    # A20(1,1) have a plumbing weight beyond the search bound.  Each filter
    # answers, and each answer replays.
    for tokens, filter_name in [("D4(1)", "arithmetic"), ("D4(2)", "arithmetic"),
                                ("A16", "donaldson"), ("K20", "donaldson"),
                                ("A20(1,1)", "donaldson")]:
        config = Configuration.from_tokens(tokens)
        verdicts = screening.screen(config)
        assert [v.filter for v in verdicts] == [f.name for f in screening.FILTERS]
        outcomes = {v.filter: v.outcome for v in verdicts}
        assert outcomes[filter_name] is Outcome.NOT_APPLICABLE, tokens
        assert all(screening.replay_verdict(config, v) for v in verdicts), tokens


def test_bmy_eliminates_only_k2_among_square_d_candidates(classified):
    report = classified(2)
    for r in report.candidates:
        if not r.verdict("arithmetic").obstructed:
            expect = r.config == _key("K2")
            assert r.verdict("bmy").obstructed == expect, r.config.name


def test_cyclic_h1_filter():
    v = screening.cyclic_h1_filter(Configuration.from_tokens("D8"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert v.evidence["non_cyclic"] == ["D8"]
    v = screening.cyclic_h1_filter(Configuration.from_tokens("A2(2,2) A4"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert v.evidence["gcd"] == 5
    v = screening.cyclic_h1_filter(Configuration.from_tokens("K5 A2"))
    assert v.outcome is Outcome.PASS


def test_classify_index1(classified):
    report = classified(1)
    got = {r.config for r in report.survivors}
    assert got == _keyset(tables.INDEX1_SURVIVORS)
    assert report.missing_realizable == ()
    assert report.unmarked_survivors == ()
    # D8 falls to non-cyclic homology, A8 and A7 to the diagonalization test.
    by_key = {r.config: r for r in report.candidates}
    assert by_key[_key("D8")].verdict("cyclic_h1").obstructed
    assert by_key[_key("A8")].verdict("donaldson").obstructed
    assert by_key[_key("A7")].verdict("donaldson").obstructed


def test_classify_index2(classified):
    report = classified(2)
    got = {r.config for r in report.survivors}
    assert got == _keyset(tables.INDEX2_SURVIVORS)
    assert report.missing_realizable == ()
    assert report.unmarked_survivors == ()
    by_key = {r.config: r for r in report.candidates}
    assert by_key[_key("K9")].verdict("donaldson").obstructed
    assert by_key[_key("K8")].verdict("donaldson").obstructed
    assert by_key[_key("K1 A8")].verdict("donaldson").obstructed
    assert by_key[_key("K2")].verdict("bmy").obstructed
    assert by_key[_key("K1 E6")].verdict("linking_form").obstructed
    assert by_key[_key("K1 E8")].verdict("spin_sum").obstructed


def test_classify_index3(classified):
    report = classified(3)
    got = {r.config for r in report.survivors}
    assert got == _keyset(tables.INDEX3_SURVIVORS)
    assert len(report.survivors) == 18
    assert report.missing_realizable == ()
    assert set(report.unmarked_survivors) == _keyset(tables.INDEX3_OPEN)
    by_key = {r.config: r for r in report.candidates}
    # The six case-3 eliminations via the diagonalization test.
    for tokens in ["A2(1,2) A7", "A2(1,2)", "A3(1,2)", "A6(1,2)",
                   "A9(1,2)", "A10(1,2)", "A2(2,2) A9", "A5(2,2) A6",
                   "A11(2,2)"]:
        assert by_key[_key(tokens)].verdict("donaldson").obstructed, tokens
    # Linking-form eliminations.
    for tokens in ["A2(1,2) E8", "A2(1,2) D5"]:
        assert by_key[_key(tokens)].verdict("linking_form").obstructed, tokens
    # Spin-sum eliminations.
    for tokens in ["A1(2) E8", "A3(2,2) E8", "D9(2)"]:
        assert by_key[_key(tokens)].verdict("spin_sum").obstructed, tokens
    # Case 5 dies entirely at the square-D test.
    for r in report.candidates:
        if screening.index3_case(r.config) == 5:
            assert r.verdict("arithmetic").obstructed


def test_filter_order_insensitivity(classified):
    # Every filter is a pure predicate of the configuration, so survivors do
    # not depend on evaluation order: recompute the surviving set from the
    # verdict lists under several permutations of the chain.
    import itertools
    for index in (2, 3):
        report = classified(index)
        baseline = {r.config for r in report.survivors}
        for perm in itertools.islice(itertools.permutations(range(6)), 0, 24, 5):
            survivors = set()
            for r in report.candidates:
                permuted = [r.verdicts[i] for i in perm]
                if not any(v.obstructed for v in permuted):
                    survivors.add(r.config)
            assert survivors == baseline


def test_evidence_replays_standalone(classified):
    for index in (1, 2, 3):
        report = classified(index)
        for r in report.candidates:
            for v in r.verdicts:
                assert screening.replay_verdict(r.config, v), (r.config.name, v.filter)


def test_warm_filters_run_no_import_statement(classified, monkeypatch):
    # A filter's module is imported on its first run only, not by an import
    # statement that runs again on every verdict.
    reports = [classified(index) for index in (1, 2, 3)]

    def replay_all():
        return all(screening.replay_verdict(r.config, v)
                   for report in reports for r in report.candidates for v in r.verdicts)

    assert replay_all()
    screening.classify(3)
    imported = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    assert replay_all()
    assert imported == []
    screening.classify(3)
    assert imported == []


def test_screen_and_replay_build_and_render_no_fraction(classified):
    # The filters and the report compute their rationals as integer pairs:
    # after a warm-up pass, replaying every verdict of indices 1-3, screening
    # every candidate and rendering the reports as JSON and markdown, each
    # configuration built afresh, builds and renders no Fraction.
    # Enumeration builds some, so it runs before the count.
    reports = [classified(index) for index in (1, 2, 3)]
    candidates = [c for index in (1, 2, 3) for c in screening.enumerate_candidates(index)]

    def replay_all():
        return all(screening.replay_verdict(Configuration(r.config.members), v)
                   for report in reports for r in report.candidates for v in r.verdicts)

    def screen_all():
        for config in candidates:
            screening.screen(Configuration(config.members))

    def render_all():
        for report in reports:
            fresh = report._replace(candidates=tuple(
                r._replace(config=Configuration(r.config.members)) for r in report.candidates))
            qhpp_report.report_to_json(fresh)
            qhpp_report.report_to_markdown(fresh)

    assert replay_all()
    screen_all()
    render_all()
    counts = {"__new__": 0, "__str__": 0}
    saved = {name: vars(Fraction)[name] for name in counts}
    real_new, real_str = Fraction.__new__, Fraction.__str__

    def counting_new(cls, *args, **kwargs):
        counts["__new__"] += 1
        return real_new(cls, *args, **kwargs)

    def counting_str(self):
        counts["__str__"] += 1
        return real_str(self)

    Fraction.__new__, Fraction.__str__ = staticmethod(counting_new), counting_str
    try:
        assert replay_all()
        replayed = dict(counts)
        screen_all()
        screened = dict(counts)
        render_all()
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)
    assert replayed == {"__new__": 0, "__str__": 0}
    assert screened == {"__new__": 0, "__str__": 0}
    assert counts == {"__new__": 0, "__str__": 0}


def test_filters_are_looked_up_on_their_modules_when_called(monkeypatch):
    # A filter replaced on its module after the first screen, as a tracing
    # wrapper replaces it, is the one that screen and replay_verdict call.
    config = screening.enumerate_candidates(1)[0]
    verdicts = screening.screen(config)
    called = []
    for module, name in ((screening, "cyclic_h1_filter"), (screening, "arithmetic_filter"),
                         (screening, "bmy_filter"), (lattice, "donaldson_obstruction"),
                         (lattice, "rebuild_donaldson"), (linking, "linking_obstruction"),
                         (floer, "spin_sum_obstruction")):
        def spy(*args, original=getattr(module, name), name=name, **kwargs):
            called.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    assert screening.screen(config) == verdicts
    assert called == ["cyclic_h1_filter", "arithmetic_filter", "bmy_filter",
                      "donaldson_obstruction", "linking_obstruction", "spin_sum_obstruction"]
    called.clear()
    assert all(screening.replay_verdict(config, v) for v in verdicts)
    assert called == ["cyclic_h1_filter", "arithmetic_filter", "bmy_filter",
                      "rebuild_donaldson", "linking_obstruction", "spin_sum_obstruction"]


def test_budget_is_honoured_after_a_warm_run(classified):
    # A verdict depends on the configuration and the budget alone: a search
    # that fits the default budget must not be reused under a smaller one.
    classified(3)
    with pytest.raises(lattice.ResourceBudgetExceeded):
        screening.classify(3, budget=10)


def test_five_singularity_cap():
    for index in (2, 3):
        for config in screening.enumerate_candidates(index):
            assert len(config.members) <= 4


def test_enumeration_rejects_other_indices():
    for index in (0, 4):
        with pytest.raises(ValueError, match="index must be 1, 2 or 3"):
            screening.enumerate_candidates(index)


def test_enumeration_is_deterministic():
    a = [c.name for c in screening.enumerate_candidates(3)]
    b = [c.name for c in screening.enumerate_candidates(3)]
    assert a == b


def _naive_arithmetic(members):
    """The arithmetic verdict by Fraction sums taken one term at a time, as
    (outcome, evidence, note)."""
    unknown = [t.name for t in members if t.dp_square is None]
    if unknown:
        return (Outcome.NOT_APPLICABLE, {"unknown_dp_square": unknown},
                "canonical-square correction unavailable")
    k2 = Fraction(9)
    for t in members:
        k2 -= t.n
        k2 -= t.dp_square
    d = k2 * math.prod(t.det_r for t in members)
    assert d.denominator == 1
    d = d.numerator
    evidence = {"K2": str(k2), "D": str(d)}
    if d <= 0:
        return Outcome.OBSTRUCTED, evidence, "D is not positive"
    evidence["factorization"] = exact.factor_string(d)
    if math.isqrt(d) ** 2 != d:
        return Outcome.OBSTRUCTED, evidence, f"D = {evidence['factorization']} is not a square"
    evidence["sqrt"] = math.isqrt(d)
    return Outcome.PASS, evidence, ""


def _naive_bmy(members):
    """The BMY verdict by Fraction sums and a Fraction comparison, as
    (outcome, evidence, note)."""
    if math.lcm(*(t.index for t in members)) != 2:
        return (Outcome.NOT_APPLICABLE, {},
                "no imported data constrains the sign of the canonical class")
    if Configuration(members) in set(map(Configuration, catalog.imported("log_del_pezzo_index2"))):
        return (Outcome.PASS, {"anti_ample_possible": True},
                "an anti-ample canonical class is not excluded")
    k2, e_orb = Fraction(9), Fraction(3)
    for t in members:
        k2 -= t.n
        k2 -= t.dp_square
        e_orb -= 1 - Fraction(1, t.group_order)
    evidence = {"K2": str(k2), "three_e_orb": str(3 * e_orb)}
    if k2 > 3 * e_orb:
        return (Outcome.OBSTRUCTED, evidence,
                f"K^2 = {k2} exceeds 3 e_orb = {3 * e_orb} with K ample")
    return Outcome.PASS, evidence, ""


@settings(max_examples=200, deadline=None)
@given(drawn.MEMBERS)
@example(drawn.BUDGET_EXHAUSTING)
@example(tuple(map(catalog.parse_token, ["K2"])))  # BMY obstructs
@example(tuple(map(catalog.parse_token, ["K1", "A4"])))  # a log del Pezzo type
@example(tuple(map(catalog.parse_token, ["K8", "A8"])))  # D < 0
@example(tuple(map(catalog.parse_token, ["D4(2)", "A1", "D4(1)"])))  # no corrections
def test_arithmetic_and_bmy_match_naive_fraction_arithmetic_on_drawn_configurations(members):
    # The configurations that replay is tested on, against filters whose
    # rationals are integer pairs.  Evidence lists members in sorted order.
    config = Configuration(members)
    for run, naive in ((screening.arithmetic_filter, _naive_arithmetic),
                       (screening.bmy_filter, _naive_bmy)):
        verdict = run(config)
        assert (verdict.outcome, verdict.evidence, verdict.note) == naive(config.members), config
