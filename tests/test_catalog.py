import math
from fractions import Fraction

import pytest

from qhpp import catalog, exact
from qhpp.catalog import LensLink, TabulatedLink, TrefoilSurgeryLink
from qhpp.configuration import Configuration


def test_lookup_k2():
    t = catalog.lookup("K", 2)
    assert t.det_r == 8
    assert t.group_order == 8
    assert t.dp_square == Fraction(-1)
    assert t.link == LensLink(8, 3)
    assert t.n == 2


def test_lookup_a4():
    t = catalog.lookup("A", 4)
    assert t.det_r == 5
    assert t.group_order == 5
    assert t.link == LensLink(5, 4)
    assert t.dp_square == 0


def test_lookup_a22_n6():
    t = catalog.lookup("A(2,2)", 6)
    assert t.det_r == 51
    assert t.link == LensLink(51, 16)
    assert t.dp_square == Fraction(-8, 3)


def test_lookup_errors():
    for species, n in [("D", 3), ("E", 5), ("E", 9), ("A", 0), ("K", 0),
                       ("A(1,1)", 2), ("A(1,2)", 1), ("A(2,2)", 1),
                       ("D(1)", 3), ("A(1)", 2)]:
        with pytest.raises(ValueError):
            catalog.lookup(species, n)
    with pytest.raises(ValueError):
        catalog.lookup("B", 2)


def test_gorenstein_invariants():
    for n in range(1, 20):
        a = catalog.lookup("A", n)
        assert a.det_r == a.group_order == n + 1
        assert a.n == n
        assert a.link == LensLink(n + 1, n)
    for n in range(4, 15):
        d = catalog.lookup("D", n)
        assert d.det_r == 4
        assert d.group_order == 4 * (n - 2)
        assert d.h1_kind == ("cyclic" if n % 2 else "Z2+Z2")
    e6, e7, e8 = (catalog.lookup("E", n) for n in (6, 7, 8))
    assert (e6.det_r, e7.det_r, e8.det_r) == (3, 2, 1)
    assert (e6.group_order, e7.group_order, e8.group_order) == (24, 48, 120)
    assert e6.link == TrefoilSurgeryLink(-3)
    assert e8.link == TrefoilSurgeryLink(-1)


def test_index3_links_match_table():
    assert catalog.lookup("A(1)", 1).link == LensLink(3, 1)
    assert catalog.lookup("A(2)", 1).link == LensLink(6, 1)
    assert catalog.lookup("A(1,2)", 2).link == LensLink(9, 5)
    assert catalog.lookup("A(1,1)", 3).link == LensLink(12, 7)
    for n in range(3, 12):
        assert catalog.lookup("A(1,1)", n).link == LensLink(9 * n - 15, 6 * n - 11)
    for n in range(2, 12):
        assert catalog.lookup("A(1,2)", n).link == LensLink(9 * n - 9, 6 * n - 7)
        assert catalog.lookup("A(2,2)", n).link == LensLink(9 * n - 3, 3 * n - 2)


def test_index3_dp_squares():
    assert catalog.lookup("A(1)", 1).dp_square == Fraction(-1, 3)
    assert catalog.lookup("A(2)", 1).dp_square == Fraction(-8, 3)
    for n in range(3, 10):
        assert catalog.lookup("A(1,1)", n).dp_square == Fraction(-4, 3)
    for n in range(2, 10):
        assert catalog.lookup("A(1,2)", n).dp_square == Fraction(-2)
        assert catalog.lookup("A(2,2)", n).dp_square == Fraction(-8, 3)
    for n in range(5, 12):
        assert catalog.lookup("D(1)", n).dp_square == Fraction(-2, 3)
        assert catalog.lookup("D(2)", n).dp_square == Fraction(-4, 3)


def test_d4_index3_dp_square_is_a_hard_error():
    for species in ("D(1)", "D(2)"):
        t = catalog.lookup(species, 4)
        assert t.dp_square is None
        with pytest.raises(ValueError, match="dp_square is not defined for D4"):
            Configuration([t]).K2


def test_dp_square_times_det_is_an_integer():
    # A correction with denominator 3 comes with a determinant divisible by 3,
    # so Configuration.D = K^2 * prod(det_r) is an integer on every multiset.
    for species, (_, least, greatest, _) in catalog.SPECIES.items():
        top = least + 60 if greatest is None else greatest
        for n in range(least, top + 1):
            t = catalog.lookup(species, n)
            if t.dp_square is not None:
                assert (t.dp_square * t.det_r).denominator == 1, t.name


def test_index3_noncyclic_h1():
    for species in ("D(1)", "D(2)"):
        for n in range(4, 12):
            t = catalog.lookup(species, n)
            assert t.det_r == 12
            assert t.h1_kind == ("cyclic" if n % 2 else "Z6+Z2")
            assert isinstance(t.link, TabulatedLink)
            assert t.group_order is None


def _lens_members():
    """59 members of the lens-space species."""
    instances = [catalog.lookup("A", n) for n in range(1, 15)]
    instances += [catalog.lookup("K", n) for n in range(1, 12)]
    instances += [catalog.lookup("A(1)", 1), catalog.lookup("A(2)", 1)]
    instances += [catalog.lookup("A(1,1)", n) for n in range(3, 13)]
    instances += [catalog.lookup("A(1,2)", n) for n in range(2, 13)]
    instances += [catalog.lookup("A(2,2)", n) for n in range(2, 13)]
    return instances


def test_curve_count_matches_resolution_graph_length():
    # For every cyclic species the resolution is the linear plumbing on the
    # continued-fraction expansion of the link, so its length must be the
    # curve count n.
    for t in _lens_members():
        cf = exact.hj_expand(t.link.p, t.link.q)
        assert len(cf) == t.n, t.name


def _adjunction_oracle(p, q):
    """Invariants of the resolution of the cyclic quotient singularity with
    link L(p, q), from its chain of curves alone and with no package code.

    The chain carries the weights b of the Hirzebruch-Jung expansion of p/q;
    its intersection matrix M has -b_i on the diagonal and 1 beside it.
    Adjunction, K.E_i = b_i - 2 on each rational curve E_i, gives the
    discrepancy vector a of K = sum a_i E_i as the solution of M a = b - 2.
    Returns (b, a^T M a, lcm of the denominators of a, |det M|): the curve
    count, the canonical-square correction, the index and the determinant.
    """
    b = []
    while q:
        c = -(-p // q)
        b.append(c)
        p, q = q, c * q - p
    k = len(b)
    m = [[-b[i] if i == j else int(abs(i - j) == 1) for j in range(k)] for i in range(k)]
    # Gauss-Jordan elimination on [M | b - 2]; M is negative definite, so
    # every pivot is nonzero and det M is their product.
    rows = [[Fraction(x) for x in m[i]] + [Fraction(b[i] - 2)] for i in range(k)]
    det = Fraction(1)
    for c in range(k):
        det *= rows[c][c]
        for r in range(k):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    a = [rows[i][k] / rows[i][i] for i in range(k)]
    square = sum(a[i] * m[i][j] * a[j] for i in range(k) for j in range(k))
    return b, square, math.lcm(*(x.denominator for x in a)), abs(det)


def test_lens_members_match_the_adjunction_oracle():
    for t in _lens_members():
        b, square, index, det = _adjunction_oracle(t.link.p, t.link.q)
        assert t.dp_square == square, t.name
        assert t.index == index, t.name
        assert t.det_r == det, t.name
        assert t.n == len(b), t.name


def test_members_of_index_at_most_two_have_a_group_order():
    # So Configuration.e_orb, which the bmy filter reads at index two, is
    # defined on every index-two configuration.
    for species, (index, least, greatest, _) in catalog.SPECIES.items():
        if index > 2:
            continue
        top = least + 12 if greatest is None else greatest
        for n in range(least, top + 1):
            assert catalog.lookup(species, n).group_order is not None, (species, n)


def test_h1_order_equals_det():
    instances = [catalog.lookup("A", n) for n in range(1, 15)]
    instances += [catalog.lookup("K", n) for n in range(1, 12)]
    instances += [catalog.lookup("D", n) for n in range(4, 12)]
    instances += [catalog.lookup("E", n) for n in (6, 7, 8)]
    instances += [catalog.lookup("A(2,2)", n) for n in range(2, 10)]
    instances += [catalog.lookup("D(2)", n) for n in range(4, 10)]
    # A lens space L(p, q) and an integral k-surgery have cyclic H_1 of
    # order p and |k|; a tabulated link has none to compare against.
    for t in instances:
        if isinstance(t.link, catalog.LensLink):
            order = t.link.p
        elif isinstance(t.link, catalog.TrefoilSurgeryLink):
            order = abs(t.link.framing)
        else:
            continue
        assert order == t.det_r
        assert t.h1_kind == "cyclic"


def test_imported_list_sizes():
    # The Gorenstein list has 58 types: 27 with K nontrivial, 31 with K trivial.
    sizes = {"gorenstein_k_nontrivial": 27, "gorenstein_k_trivial": 31,
             "log_del_pezzo_index2": 18, "realizable_index1": 7,
             "realizable_index2": 4, "realizable_index3": 16}
    assert {name: len(catalog.imported(name)) for name in sizes} == sizes
    assert catalog.imported("realizable_index1") is catalog.imported("realizable_index1")


def test_imported_list_membership():
    def keys(lists):
        return {tuple(sorted((t.species, t.n) for t in ms)) for ms in lists}

    k_trivial = keys(catalog.imported("gorenstein_k_trivial"))
    assert tuple(sorted([("A", 3), ("A", 3), ("A", 1), ("A", 1), ("A", 1)])) in k_trivial
    k_nontrivial = keys(catalog.imported("gorenstein_k_nontrivial"))
    assert (("A", 8),) in k_nontrivial
    assert k_trivial.isdisjoint(k_nontrivial)
    an18 = keys(catalog.imported("log_del_pezzo_index2"))
    assert tuple(sorted([("K", 1), ("K", 1), ("A", 7)])) in an18


def test_token_round_trip():
    for token in ["A4", "D5", "E8", "K5", "A1(1)", "A1(2)", "A2(1,2)",
                  "A6(1,1)", "A11(2,2)", "D5(2)", "D9(1)"]:
        t = catalog.parse_token(token)
        assert t.name == token
        assert catalog.parse_token(t.name) == t


def test_species_table_round_trips_every_member():
    # Each species' members parse back from their names, from the least n
    # to the greatest (or 12 past the least); n outside that range raises.
    for species, (_, least, greatest, _) in catalog.SPECIES.items():
        top = least + 12 if greatest is None else greatest
        for n in range(least, top + 1):
            t = catalog.lookup(species, n)
            assert (t.species, t.n) == (species, n)
            assert catalog.parse_token(t.name) == t
        outside = [least - 1] + ([] if greatest is None else [greatest + 1])
        for n in outside:
            with pytest.raises(ValueError):
                catalog.lookup(species, n)
            with pytest.raises(ValueError):
                catalog.parse_token(f"{species[0]}{n}{species[1:]}")
    # n is read through operator.index, so a float is refused, not built into
    # a record such as "A2.5" with link L(3.5, 2.5).
    with pytest.raises(TypeError):
        catalog.lookup("A", 2.5)


def test_parse_token_rejects_garbage():
    for bad in ["A", "X4", "A4(3,1)", "A0", "K5(1)", "E8(1,2)", "A2(1,3)"]:
        with pytest.raises(ValueError):
            catalog.parse_token(bad)

