import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drawn
from qhpp import catalog, exact, floer, screening
from qhpp.configuration import Configuration, Outcome

F = Fraction


def test_base_case():
    assert floer.d_lens(1, 0, 0) == 0


def test_d_lens_rejects_bad_input():
    with pytest.raises(ValueError):
        floer.d_lens(4, 2, 0)
    with pytest.raises(ValueError):
        floer.d_lens(4, 5, 0)
    with pytest.raises(ValueError):
        floer.d_lens(4, 3, 4)
    with pytest.raises(ValueError):
        floer.d_lens(1, 1, 0)


def _d_lens_recursive(p, q, i):
    """The recursion of the module docstring, as written."""
    if p == 1:
        return F(0)
    return F(1, 4) - F((2 * i + 1 - p - q) ** 2, 4 * p * q) - _d_lens_recursive(q, p % q, i % q)


def test_d_lens_matches_the_recursion():
    # The unrolled walk against the recursion at every label of every L(p, q)
    # with p < 60.
    for p in range(1, 60):
        for q in range(p):
            if math.gcd(p, q) == 1:
                for i in range(p):
                    assert floer.d_lens(p, q, i) == _d_lens_recursive(p, q, i), (p, q, i)


def test_spin_labels():
    assert floer.spin_labels(4, 3) == {1, 3}
    assert floer.spin_labels(5, 4) == {4}
    assert floer.spin_labels(3, 1) == {0}
    for n in range(1, 51):
        assert floer.spin_labels(4 * n, 2 * n - 1) == {n - 1, 3 * n - 1}
    for p in range(2, 80):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                labels = floer.spin_labels(p, q)
                assert len(labels) == (2 if p % 2 == 0 else 1)


def test_spin_d_invariants_of_k1_link():
    # L(4,1): two spin structures with d-invariants -3/4 and 1/4.
    assert floer.spin_d_invariants(catalog.parse_token("K1")) == {F(-3, 4), F(1, 4)}
    # Orientation reversal L(4,3) carries the negated set.
    assert floer.spin_d_invariants(catalog.parse_token("A3")) == {F(3, 4), F(-1, 4)}


def test_spin_d_invariants_of_l24_7():
    assert floer.spin_d_invariants(catalog.parse_token("A3(2,2)")) == {F(-5, 4), F(3, 4)}


def test_spin_d_invariants_of_l6_1():
    assert floer.spin_d_invariants(catalog.parse_token("A1(2)")) == {F(-5, 4), F(1, 4)}


def test_an_closed_form_to_50():
    # A_n link L(n+1, n): spin d-invariants {-1/4, n/4} for odd n, {n/4} for
    # even n, with the individual labels pinned down as well.
    for n in range(1, 51):
        p, q = n + 1, n
        a = catalog.lookup("A", n)
        assert a.link == (p, q)
        if n % 2 == 1:
            assert floer.d_lens(p, q, (n - 1) // 2) == F(-1, 4)
            assert floer.d_lens(p, q, n) == F(n, 4)
            assert floer.spin_d_invariants(a) == {F(-1, 4), F(n, 4)}
        else:
            assert floer.d_lens(p, q, n) == F(n, 4)
            assert floer.spin_d_invariants(a) == {F(n, 4)}


def test_kn_closed_form_to_50():
    for n in range(1, 51):
        p, q = 4 * n, 2 * n - 1
        k = catalog.lookup("K", n)
        assert k.link == (p, q)
        if n % 2 == 1:
            assert floer.d_lens(p, q, n - 1) == F(-3, 4)
            assert floer.d_lens(p, q, 3 * n - 1) == F(1, 4)
            assert floer.spin_d_invariants(k) == {F(-3, 4), F(1, 4)}
        else:
            assert floer.d_lens(p, q, n - 1) == F(-1, 4)
            assert floer.d_lens(p, q, 3 * n - 1) == F(-1, 4)
            assert floer.spin_d_invariants(k) == {F(-1, 4)}


def test_v_trefoil():
    # The trefoil's V_s (V_0 = 1, V_s = 0 for s > 0) shifts the p surgery
    # away from L(p, 1) by 2 max(V_i, V_(p-i)): only at label 0.
    for p in range(1, 9):
        for i in range(p):
            shift = -floer.d_lens(p, 1 % p, i) - floer.d_trefoil_surgery(p, i)
            assert shift == (2 if i == 0 else 0), (p, i)
    for p, i in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            floer.d_trefoil_surgery(p, i)


def test_trefoil_surgeries_give_en_links():
    # +1, +2, +3 surgeries on the right-handed trefoil are the reversed
    # links of the E8, E7, E6 singularities.
    def values(p):
        return sorted(floer.d_trefoil_surgery(p, i) for i in range(p))
    assert values(1) == [F(-2)]
    assert values(2) == [F(-7, 4), F(-1, 4)]
    assert values(3) == [F(-3, 2), F(-1, 6), F(-1, 6)]


def test_link_d_invariants_en():
    e6 = catalog.lookup("E", 6)
    e7 = catalog.lookup("E", 7)
    e8 = catalog.lookup("E", 8)
    assert floer.link_d_invariants(e6) == (F(3, 2), F(1, 6), F(1, 6))
    assert floer.link_d_invariants(e7) == (F(7, 4), F(1, 4))
    assert floer.link_d_invariants(e8) == (F(2),)


def test_link_d_invariants_of_lens_links_match_the_closed_form():
    # d(L(p,1), i) = (p - (2i - p)^2) / (4p); the link of A_n is
    # L(n+1, n) = -L(n+1, 1), so its values are the negated ones.
    def closed_form(p, sign):
        return tuple(sorted((sign * F(p - (2 * i - p) ** 2, 4 * p) for i in range(p)),
                            reverse=True))

    for n in range(1, 40):
        assert floer.link_d_invariants(catalog.lookup("A", n)) == closed_form(n + 1, -1), n
    # The links of A1(1) and A1(2) are L(3, 1) and L(6, 1) themselves.
    assert floer.link_d_invariants(catalog.lookup("A(1)", 1)) == closed_form(3, 1)
    assert floer.link_d_invariants(catalog.lookup("A(2)", 1)) == closed_form(6, 1)


def test_link_d_invariants_of_a_tabulated_link_are_unavailable():
    with pytest.raises(floer.SpinDataUnavailable) as exc:
        floer.link_d_invariants(catalog.lookup("D(1)", 7))
    assert str(exc.value) == "d-invariants of D7(1) are not tabulated"


def test_d5_link_two_routes_agree():
    # The D5 link is the -4 surgery on the left trefoil; its spin values from
    # the surgery formula must match the D-series closed form n/4, (n - 4)/4.
    surgery_values = [-floer.d_trefoil_surgery(4, i) for i in range(4)]
    assert sorted(surgery_values) == [F(0), F(0), F(1, 4), F(5, 4)]
    spin_subset = frozenset(-floer.d_trefoil_surgery(4, i) for i in (0, 2))
    assert spin_subset == floer.spin_d_invariants(catalog.lookup("D", 5)) == {F(5, 4), F(1, 4)}


def test_d_family_spin_d_invariants():
    # D_n has spin d-invariants n/4 and (n - 4)/4, tabulated on its link or,
    # for D5, computed on its trefoil-surgery link.  Of the index-three
    # D_n(r) only D9(2) is tabulated; the others raise, naming the link.
    for n in range(4, 21):
        assert floer.spin_d_invariants(catalog.lookup("D", n)) == {F(n, 4), F(n - 4, 4)}
    for species in ("D(1)", "D(2)"):
        for n in range(4, 16):
            t = catalog.lookup(species, n)
            if t.name == "D9(2)":
                assert floer.spin_d_invariants(t) == {F(5, 4), F(9, 4)}
                continue
            with pytest.raises(floer.SpinDataUnavailable) as exc:
                floer.spin_d_invariants(t)
            assert str(exc.value) == f"spin d-invariants of {t.name} are not tabulated"


def test_spin_d_invariants_by_species():
    assert floer.spin_d_invariants(catalog.lookup("K", 1)) == {F(-3, 4), F(1, 4)}
    assert floer.spin_d_invariants(catalog.lookup("E", 8)) == {F(2)}
    assert floer.spin_d_invariants(catalog.lookup("E", 7)) == {F(7, 4), F(1, 4)}
    assert floer.spin_d_invariants(catalog.lookup("E", 6)) == {F(3, 2)}
    assert floer.spin_d_invariants(catalog.lookup("A", 2)) == {F(1, 2)}
    assert floer.spin_d_invariants(catalog.lookup("A(1)", 1)) == {F(-1, 2)}
    assert floer.spin_d_invariants(catalog.lookup("D", 9)) == {F(9, 4), F(5, 4)}
    assert floer.spin_d_invariants(catalog.lookup("D(2)", 9)) == {F(5, 4), F(9, 4)}


def test_spin_d_unavailable_species():
    for species, n in [("D(1)", 5), ("D(1)", 7), ("D(2)", 5), ("D(2)", 7)]:
        with pytest.raises(floer.SpinDataUnavailable):
            floer.spin_d_invariants(catalog.lookup(species, n))


def _euclid_depth(p, q):
    depth = 0
    while q > 0:
        p, q = q, p % q
        depth += 1
    return depth


def test_recursion_terminates_with_euclid_depth():
    # The recursion steps (p, q) -> (q, p mod q), i.e. one Euclidean
    # division per level, so its depth is the Euclidean step count (which
    # can exceed the continued-fraction length, e.g. for (8, 5)).
    assert _euclid_depth(8, 5) == 4
    assert len(exact.hj_expand(8, 5)) == 3
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            depth = 0
            pp, qq = p, q
            while pp != 1:
                pp, qq = qq, pp % qq
                depth += 1
            assert depth == _euclid_depth(p, q)
            assert depth <= 2 * len(exact.hj_expand(p, q))
            floer.d_lens(p, q, 0)  # must terminate


def _config(tokens):
    return Configuration.from_tokens(tokens)


def test_spin_sum_obstructed_cases():
    cases = {
        "K1 E8": ["5/4", "9/4"],
        "A1(2) E8": ["3/4", "9/4"],
        "A3(2,2) E8": ["3/4", "11/4"],
        "D9(2)": ["5/4", "9/4"],
    }
    for tokens, sums in cases.items():
        verdict = floer.spin_sum_obstruction(_config(tokens))
        assert verdict.outcome is Outcome.OBSTRUCTED, tokens
        assert verdict.evidence["sums"] == sums, tokens


def test_spin_sum_pass_cases():
    for tokens in ["K5", "K2 A2", "K1", "K1 A4", "A1(1) D7", "A1(1) A4 A1",
                   "A1(1) A3", "A1(2) A6", "A1(2)", "A2(2,2) A3",
                   "A2(1,2) E7", "A4(1,2) A1", "A2(1,2) A1", "E7", "D5",
                   "A1", "A2 A1"]:
        verdict = floer.spin_sum_obstruction(_config(tokens))
        assert verdict.outcome is Outcome.PASS, tokens
        assert "witness" in verdict.evidence


def test_spin_witness_is_the_first_choice_in_product_order():
    # Two choices attain 1/4.  In product order over the increasing values
    # the first is (3/4, 3/4, -5/4); ranked by their rendered strings,
    # "11/4" < "3/4" would put (11/4, -5/4, -5/4) first.
    config = _config("A15(1,1) A3(2,2) A1(2)")
    evidence = floer.spin_sum_obstruction(config).evidence
    assert evidence["per_member"] == [["A15(1,1)", ["3/4", "11/4"]],
                                      ["A3(2,2)", ["-5/4", "3/4"]],
                                      ["A1(2)", ["-5/4", "1/4"]]]
    hits = [strs for strs in itertools.product(*(vals for _, vals in evidence["per_member"]))
            if sum(map(Fraction, strs)) == Fraction(1, 4)]
    assert hits == [("3/4", "3/4", "-5/4"), ("11/4", "-5/4", "-5/4")]
    assert evidence["witness"] == ["3/4", "3/4", "-5/4"]


def test_spin_sum_not_applicable_cases():
    # Odd product: the spin condition does not apply.
    v = floer.spin_sum_obstruction(_config("A1(1) A6"))
    assert v.outcome is Outcome.NOT_APPLICABLE
    v = floer.spin_sum_obstruction(_config("A2(2,2) E8"))
    assert v.outcome is Outcome.NOT_APPLICABLE
    # Even product but unavailable data: explicitly no verdict.
    v = floer.spin_sum_obstruction(_config("D5(2)"))
    assert v.outcome is Outcome.NOT_APPLICABLE
    assert "unavailable" in v.evidence


def _naive_spin_sum(config):
    """The spin-sum evidence by Fraction sums taken one term at a time:
    (outcome, sums, witness), or None where the test does not apply.  The
    per-member values are the filter's inputs; only the sums are checked."""
    if math.prod(t.det_r for t in config.members) % 2:
        return None
    try:
        value_sets = [sorted(floer.spin_d_invariants(t)) for t in config.members]
    except floer.SpinDataUnavailable:
        return None
    total = {}
    for choice in itertools.product(*value_sets):
        s = Fraction(0)
        for v in choice:
            s += v
        total.setdefault(s, choice)
    sums = [str(s) for s in sorted(total)]
    witness = total.get(Fraction(1, 4))
    if witness is None:
        return Outcome.OBSTRUCTED, sums, None
    return Outcome.PASS, sums, [str(v) for v in witness]


def _assert_spin_sum_matches_naive(config):
    verdict = floer.spin_sum_obstruction(config)
    expected = _naive_spin_sum(config)
    if expected is None:
        assert verdict.outcome is Outcome.NOT_APPLICABLE, config
        return
    outcome, sums, witness = expected
    assert verdict.outcome is outcome, config
    assert verdict.evidence["sums"] == sums, config
    assert verdict.evidence.get("witness") == witness, config


def test_spin_sum_matches_naive_fraction_sums_on_every_candidate():
    for index in (1, 2, 3):
        for config in screening.enumerate_candidates(index):
            _assert_spin_sum_matches_naive(config)


@st.composite
def _lens_or_trefoil(draw):
    """A member whose link is a lens space or a trefoil surgery: every member
    of the A, K, A(r) and A(r,s) species, E_n, and D5."""
    species = draw(st.sampled_from(["A", "K", "A(1)", "A(2)", "A(1,1)", "A(1,2)", "A(2,2)", "E", "D"]))
    _, least, greatest, _ = catalog.SPECIES[species]
    if species == "D":
        least = greatest = 5
    return catalog.lookup(species, draw(st.integers(least, least + 20 if greatest is None else greatest)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_lens_or_trefoil(), min_size=1, max_size=4))
@example(tuple(map(catalog.parse_token, "A1 A1 A1".split())))  # three choices attain 1/4
@example(tuple(map(catalog.parse_token, "A3 A1 A1".split())))  # two, in different positions
def test_spin_sum_matches_naive_fraction_sums_on_random_multisets(members):
    _assert_spin_sum_matches_naive(Configuration(members))


@settings(max_examples=120, deadline=None)
@given(drawn.MEMBERS)
@example(drawn.BUDGET_EXHAUSTING)
def test_spin_sum_matches_naive_fraction_sums_on_drawn_configurations(members):
    # The configurations that replay is tested on: every species, including
    # those whose spin data is untabulated or whose link is no lens space.
    _assert_spin_sum_matches_naive(Configuration(members))
