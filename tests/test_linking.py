import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qhpp import catalog, exact, linking
from qhpp.configuration import Configuration, Outcome

F = Fraction


def test_lens_linking_form_values():
    # The reversed link of a lens-space member L(p, q) carries -q/p in [0, 1).
    forms = {token: linking.reversed_link_form(catalog.parse_token(token))
             for token in ("A1", "A3", "K1", "A2(1,2)", "A1(1)")}
    assert forms == {"A1": F(1, 2), "A3": F(1, 4), "K1": F(3, 4),
                     "A2(1,2)": F(4, 9), "A1(1)": F(2, 3)}
    assert [f.denominator for f in forms.values()] == [2, 4, 4, 9, 3]


def test_surgery_linking_form_values():
    # The reversed links of E6, E7, E8 and D5 are +3, +2, +1 and +4 surgeries
    # on the right trefoil, with forms -1/k.
    forms = {token: linking.reversed_link_form(catalog.parse_token(token))
             for token in ("E6", "E7", "E8", "D5")}
    assert forms == {"E6": F(2, 3), "E7": F(1, 2), "E8": 0, "D5": F(3, 4)}
    assert str(forms["E8"]) == "0"


def test_connected_sum_values():
    five_twelfths = linking.connected_sum_form([F(3, 4), F(2, 3)])
    assert five_twelfths == F(5, 12) and str(five_twelfths) == "5/12"
    seven_36 = linking.connected_sum_form([F(4, 9), F(3, 4)])
    assert seven_36 == F(7, 36)
    single = linking.connected_sum_form([F(4, 9)])
    assert single == F(4, 9)
    assert linking.connected_sum_form([]) == 0
    trivial = F(0)
    assert linking.connected_sum_form([trivial, F(4, 9)]) == F(4, 9)
    assert linking.connected_sum_form([trivial, trivial]) == trivial
    with pytest.raises(ValueError):
        linking.connected_sum_form([F(1, 4), F(1, 6)])


@st.composite
def _coprime_forms(draw, top=300, most=5):
    """Up to ``most`` forms c/n on pairwise coprime orders n <= ``top``, each
    c a unit mod n."""
    orders = []
    for n in draw(st.lists(st.integers(1, top), max_size=8)):
        if len(orders) < most and all(math.gcd(n, m) == 1 for m in orders):
            orders.append(n)
    units = [draw(st.sampled_from([c for c in range(n) if math.gcd(c, n) == 1]))
             for n in orders]
    return list(zip(units, orders))


@given(_coprime_forms())
def test_connected_sum_matches_the_integer_formula(pairs):
    # The composed form is sum c_i (N / n_i) mod N over N, the product of the
    # orders n_i, and its denominator is N itself.
    total = math.prod(n for _, n in pairs)
    value = sum(c * (total // n) for c, n in pairs) % total
    composed = linking.connected_sum_form(F(c, n) for c, n in pairs)
    assert composed.denominator == total
    assert composed.numerator == value


# Orders to 40, at most three: the verdict lists the unit squares modulo N.
@given(_coprime_forms(40, 3))
@example([])
@example([(0, 1), (0, 1)])
def test_boundary_verdict_composes_as_fraction_sums_do(pairs):
    forms = [F(c, n) for c, n in pairs]
    assert linking.boundary_verdict(forms).evidence["composed"] == str(sum(forms) % 1)


def test_boundary_verdict_refuses_a_large_modulus_before_any_table():
    # 1009 * 1013 = 1,022,117 is past the limit: the library refuses it with
    # the text that linkform prints, without tabulating half a million units.
    limit = linking.MAX_LINKFORM_MODULUS
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(ValueError) as raised:
        linking.boundary_verdict([F(1, 1009), F(1, 1013)])
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert str(raised.value) == f"the 7-digit composed modulus exceeds the linkform limit {limit}"
    assert elapsed < 0.5 and peak < 1_000_000
    # The limit is checked first, as linkform checked it, before coprimality.
    with pytest.raises(ValueError, match="^the 7-digit composed modulus"):
        linking.boundary_verdict([F(1, 2000), F(1, 1000)])


def test_negation_consistency_up_to_200():
    # -L(p,q) = L(p, p-q): the form of a reversal is the negation, mod 1.
    a1 = catalog.lookup("A", 1)
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                t = a1._replace(link=catalog.LensLink(p, q))
                assert linking.reversed_link_form(t) == F(p - q, p) == -F(q, p) % 1


def test_self_consistency_inverse_class_up_to_200():
    # The two generators of H_1(L(p,q)) given by the two ends of the linear
    # plumbing evaluate the form at q/p and at q^{-1}/p; these must be
    # isomorphic (q^{-1} = q * (q^{-1})^2 mod p).
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                qinv = pow(q, -1, p)
                assert linking.is_isomorphic(F(q, p), F(qinv, p))


def test_isomorphism_is_an_equivalence_relation():
    for n in range(2, 51):
        forms = [F(c, n) for c in range(1, n) if math.gcd(c, n) == 1]
        for f in forms:
            assert linking.is_isomorphic(f, f)
        for f in forms:
            for g in forms:
                assert linking.is_isomorphic(f, g) == linking.is_isomorphic(g, f)
        for f in forms:
            for g in forms:
                if not linking.is_isomorphic(f, g):
                    continue
                for h in forms:
                    if linking.is_isomorphic(g, h):
                        assert linking.is_isomorphic(f, h)


def test_isomorphism_of_different_orders_and_of_the_trivial_form():
    assert not linking.is_isomorphic(F(1, 3), F(1, 4))
    assert linking.is_isomorphic(F(0), F(0))


def test_isomorphism_matches_the_square_root_table():
    # is_isomorphic scans for a root of the ratio; the oracle looks the ratio
    # up among the square units, each found with its gcd.
    for n in range(2, 121):
        squares = exact.unit_square_roots(n)
        units = [c for c in range(1, n) if math.gcd(c, n) == 1]
        for a in units:
            inverse = pow(a, -1, n)
            f = F(a, n)
            for b in units:
                expected = b * inverse % n in squares
                assert linking.is_isomorphic(f, F(b, n)) == expected, (n, a, b)


def _config(tokens):
    return Configuration.from_tokens(tokens)


def test_linking_obstruction_known_cases():
    cases = {
        "K1 E6": ("5/12", 7, 12),
        "A2(1,2) D5": ("7/36", 29, 36),
        "A2(1,2) E8": ("4/9", 5, 9),
    }
    for tokens, (composed, residue, modulus) in cases.items():
        verdict = linking.linking_obstruction(_config(tokens))
        assert verdict.outcome is Outcome.OBSTRUCTED, tokens
        assert verdict.evidence["composed"] == composed
        assert verdict.evidence["residue"] == residue
        assert verdict.evidence["modulus"] == modulus


def test_linking_obstruction_pass_for_realizable_configs():
    for tokens in ["K5", "K2 A2", "K1", "K1 A4", "A1", "A4", "A2 A1", "D5",
                   "E8", "E7", "E6", "A1(1)", "A1(1) A3", "A1(1) A4 A1",
                   "A1(1) A6", "A1(1) E8", "A6(1,1)", "A10(1,1)",
                   "A2(1,2) A4", "A2(1,2) A1", "A4(1,2) A1", "A2(1,2) E7",
                   "A1(2)", "A1(2) A6", "A2(2,2) A3", "A6(2,2)"]:
        verdict = linking.linking_obstruction(_config(tokens))
        assert verdict.outcome is Outcome.PASS, tokens


def test_linking_obstruction_unknown_form_is_not_applicable():
    verdict = linking.linking_obstruction(_config("A1(1) D7"))
    assert verdict.outcome is Outcome.NOT_APPLICABLE
    verdict = linking.linking_obstruction(_config("D5(2)"))
    assert verdict.outcome is Outcome.NOT_APPLICABLE


def test_linking_obstruction_rejects_non_cyclic_members():
    # Non-cyclic link homology, or orders that share a factor, leave the
    # boundary homology non-cyclic, and the test does not apply.
    for tokens in ["D8", "A1 A3"]:
        verdict = linking.linking_obstruction(_config(tokens))
        assert verdict.outcome is Outcome.NOT_APPLICABLE, tokens
        assert verdict.evidence == {}
        assert verdict.note == "boundary homology is not cyclic; test precondition fails"


def test_reversed_link_forms():
    k1 = catalog.lookup("K", 1)
    assert linking.reversed_link_form(k1) == F(3, 4)
    e6 = catalog.lookup("E", 6)
    assert linking.reversed_link_form(e6) == F(2, 3)
    e8 = catalog.lookup("E", 8)
    assert linking.reversed_link_form(e8) == 0
    d5 = catalog.lookup("D", 5)
    assert linking.reversed_link_form(d5) == F(3, 4)
    d7 = catalog.lookup("D", 7)
    assert linking.reversed_link_form(d7) is None
