"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import itertools
import math
from fractions import Fraction

import expected_tables as tables
from lattice_oracle import brute_force_orbits, orbit_min
from qhpp import catalog, exact, floer, lattice, linking, screening
from qhpp.configuration import Configuration

F = Fraction


def _report(num, name, ok):
    print(f"acceptance {num}: {name}: {'PASS' if ok else 'FAIL'}")


def _check(num, name, condition):
    _report(num, name, condition)
    assert condition, f"acceptance criterion {num} ({name}) failed"


def _key(tokens):
    return Configuration.from_tokens(tokens)


def test_criterion_1_en_link_d_invariants():
    got = {n: floer.link_d_invariants(catalog.lookup("E", n)) for n in (6, 7, 8)}
    ok = (sorted(got[6]) == [F(1, 6), F(1, 6), F(3, 2)]
          and sorted(got[7]) == [F(1, 4), F(7, 4)]
          and sorted(got[8]) == [F(2)])
    _check(1, "E6/E7/E8 link d-invariants via the surgery formula", ok)


def test_criterion_2_spin_d_closed_forms():
    ok = True
    for n in range(1, 51):
        a = floer.spin_d_invariants(catalog.lookup("A", n))
        want_a = {F(-1, 4), F(n, 4)} if n % 2 == 1 else {F(n, 4)}
        k = floer.spin_d_invariants(catalog.lookup("K", n))
        want_k = {F(-3, 4), F(1, 4)} if n % 2 == 1 else {F(-1, 4)}
        ok = ok and a == want_a and k == want_k
    _check(2, "A_n and K_n spin d-invariant closed forms to n = 50", ok)


def test_criterion_3_embedding_instances():
    instances = [
        ([[-9]], 2, [-1]),
        ([[-8]], 2, [-2]),
        ([[-2, -10, -2]], 4, [-4, -1]),
        ([[-2, -9, -2]], 4, [-2]),
        ([[-2, -2, -2], [-9]], 5, [-4, -1]),
        ([[-3, -2, -2, -2], [-8]], 6, [-18, -2]),
        ([[-3, -2, -2, -2]], 5, [-1]),
        ([[-3, -3, -2, -2]], 5, [-2]),
        ([[-3, -6, -2, -2]], 5, [-5]),
        ([[-3, -9, -2, -2]], 5, [-2]),
        ([[-3, -10, -2, -2]], 5, [-1]),
        ([[-2, -2, -3, -2, -2], [-10]], 7, [-6, -6]),
        ([[-2, -2, -6, -2, -2], [-7]], 7, [-6, -6]),
        ([[-2, -2, -12, -2, -2]], 6, [-6]),
    ]
    ok = True
    for chains, rank, squares in instances:
        embs = lattice.enumerate_embeddings(chains, rank)
        got = sorted(lattice.complement_witness(e).square for e in embs)
        ok = ok and len(embs) == len(squares) and got == sorted(squares)
    _check(3, "orbit counts and complement squares of the embedding figures", ok)


def test_criterion_4_orbit_enumeration_oracle():
    instances = [
        ([[-9]], 2), ([[-8]], 2), ([[-5]], 2), ([[-2]], 2),
        ([[-2, -2]], 3), ([[-3], [-2]], 3), ([[-2, -2, -2]], 4),
        ([[-2, -10, -2]], 4), ([[-2, -9, -2]], 4), ([[-2, -6, -2]], 4),
        ([[-3, -5, -3]], 4), ([[-3, -9, -3]], 4), ([[-4], [-4]], 3),
        ([[-2], [-2], [-2]], 4), ([[-6, -2]], 3), ([[-2, -2], [-7]], 4),
    ]
    ok = True
    for chains, rank in instances:
        oracle = brute_force_orbits(chains, rank)
        fast = {orbit_min(e.vectors, rank)
                for e in lattice.enumerate_embeddings(chains, rank)}
        ok = ok and oracle == fast
    _check(4, "backtracking enumerator equals brute-force orbit partition", ok)


def test_criterion_5_d_tables():
    got2 = {}
    for config in screening.enumerate_candidates(2):
        verdict = screening.arithmetic_filter(config)
        if verdict.obstructed:
            got2[config] = verdict.evidence["factorization"]
    ok = got2 == {_key(t): d for t, d in tables.INDEX2_ELIMINATED.items()}

    expected_cases = {1: tables.INDEX3_CASE1, 2: tables.INDEX3_CASE2,
                      3: tables.INDEX3_CASE3, 4: tables.INDEX3_CASE4,
                      5: tables.INDEX3_CASE5, 6: tables.INDEX3_CASE6}
    counts = {1: 13, 2: 19, 3: 33, 4: 58, 5: 4, 6: 4}
    for case, expected in expected_cases.items():
        configs = screening.enumerate_index3_case(case)
        got = {c: exact.factor_string(int(c.D)) for c in configs}
        ok = ok and got == {_key(t): d for t, d in expected.items()}
        ok = ok and len(configs) == counts[case]
    _check(5, "index-2 and index-3 D tables with identical factorizations", ok)


def test_criterion_6_linking_verdicts():
    expected = {
        "K1 E6": ("5/12", 7, 12),
        "A2(1,2) D5": ("7/36", 29, 36),
        "A2(1,2) E8": ("4/9", 5, 9),
    }
    ok = True
    for tokens, (composed, residue, modulus) in expected.items():
        v = linking.linking_obstruction(Configuration.from_tokens(tokens))
        ok = (ok and v.obstructed and v.evidence["composed"] == composed
              and v.evidence["residue"] == residue
              and v.evidence["modulus"] == modulus)
    _check(6, "linking-form verdicts with composed forms and residues", ok)


def test_criterion_7_spin_sum_verdicts():
    expected = {
        "K1 E8": ["5/4", "9/4"],
        "A1(2) E8": ["3/4", "9/4"],
        "A3(2,2) E8": ["3/4", "11/4"],
        "D9(2)": ["5/4", "9/4"],
    }
    ok = True
    for tokens, sums in expected.items():
        v = floer.spin_sum_obstruction(Configuration.from_tokens(tokens))
        ok = ok and v.obstructed and v.evidence["sums"] == sums
    _check(7, "spin d-invariant sum verdicts with attempted-sum evidence", ok)


def test_criterion_8_end_to_end_classification(classified):
    rep1 = classified(1)
    ok = {r.config for r in rep1.survivors} == {_key(t) for t in tables.INDEX1_SURVIVORS}
    rep2 = classified(2)
    ok = ok and {r.config for r in rep2.survivors} == \
        {_key(t) for t in tables.INDEX2_SURVIVORS}
    rep3 = classified(3)
    ok = ok and {r.config for r in rep3.survivors} == \
        {_key(t) for t in tables.INDEX3_SURVIVORS}
    ok = ok and set(rep3.unmarked_survivors) == \
        {_key(t) for t in tables.INDEX3_OPEN}
    ok = ok and rep1.unmarked_survivors == () and rep2.unmarked_survivors == ()
    for rep in (rep1, rep2, rep3):
        ok = ok and rep.missing_realizable == ()
    _check(8, "classification endpoints for indices 1, 2 and 3", ok)


def test_criterion_9_property_suite(classified):
    ok = True
    # Continued-fraction round trip up to p = 200.
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                ok = ok and exact.hj_value(exact.hj_expand(p, q)) == (p, q)
    # Linking-form self-consistency up to p = 200: reversal negates the
    # form, and the two boundary generators give isomorphic classes.
    a1 = catalog.lookup("A", 1)
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                t = a1._replace(link=catalog.LensLink(p, q))
                ok = ok and linking.reversed_link_form(t) == -F(q, p) % 1
                ok = ok and linking.is_isomorphic(F(q, p), F(pow(q, -1, p), p))
    # Recursion termination: depth equals the Euclidean step count.
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                depth, pp, qq = 0, p, q
                while pp != 1:
                    pp, qq = qq, pp % qq
                    depth += 1
                steps, a, b = 0, p, q
                while b:
                    a, b = b, a % b
                    steps += 1
                ok = ok and depth == steps
                floer.d_lens(p, q, 0)
    # Orbifold Euler characteristic is nonnegative on every candidate.
    for index in (1, 2, 3):
        for config in screening.enumerate_candidates(index):
            e = config.e_orb
            ok = ok and (e is None or e >= 0)
    # Filter order does not change the surviving sets.
    for index in (2, 3):
        report = classified(index)
        baseline = {r.config for r in report.survivors}
        for perm in itertools.permutations(range(6)):
            survivors = {r.config for r in report.candidates
                         if not any(r.verdicts[i].obstructed for i in perm)}
            ok = ok and survivors == baseline
    _check(9, "property suite (round trips, consistency, order-insensitivity)", ok)
