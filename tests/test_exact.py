import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qhpp import exact


def test_hj_expand_known_values():
    assert exact.hj_expand(9, 1) == (9,)
    assert exact.hj_expand(36, 19) == (2, 10, 2)
    assert exact.hj_expand(9, 4) == (3, 2, 2, 2)
    assert exact.hj_expand(12, 7) == (2, 4, 2)
    assert exact.hj_expand(4, 3) == (2, 2, 2)


def test_hj_value_known_values():
    assert exact.hj_value([2]) == (2, 1)
    assert exact.hj_value([2, 2, 3, 2, 2]) == (15, 11)
    assert exact.hj_value([3, 10, 2, 2]) == (81, 28)
    assert exact.hj_value([2, 2, 12, 2, 2]) == (96, 65)


def test_hj_round_trip_exhaustive_to_200():
    for p in range(2, 201):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            cf = exact.hj_expand(p, q)
            assert all(a >= 2 for a in cf)
            assert exact.hj_value(cf) == (p, q)


def test_hj_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        exact.hj_expand(4, 4)
    with pytest.raises(ValueError):
        exact.hj_expand(4, 0)
    with pytest.raises(ValueError):
        exact.hj_expand(4, 6)
    with pytest.raises(ValueError):
        exact.hj_expand(9, 6)  # gcd 3


def test_exact_helpers_reject_zero_and_floats():
    with pytest.raises(ValueError):
        exact.factorize(0)
    with pytest.raises(TypeError):
        exact.hj_expand(2.0, 1)


def test_hj_value_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        exact.hj_value([])
    with pytest.raises(ValueError):
        exact.hj_value([2, 1, 2])
    with pytest.raises(ValueError):
        exact.hj_value([0])


def test_first_shared_factor():
    assert exact.first_shared_factor([]) is None
    assert exact.first_shared_factor([4, 9, 25, 7]) is None
    assert exact.first_shared_factor([5, 6, 9]) == (1, 2, 3)
    # The first pair in (i, j) order, not the one that closes first.
    assert exact.first_shared_factor([2, 3, 3, 2]) == (0, 3, 2)


def test_is_square_unit_mod_known_values():
    assert 7 not in exact.unit_square_roots(12)
    assert 29 not in exact.unit_square_roots(36)
    assert 5 not in exact.unit_square_roots(9)
    for n in range(2, 60):
        assert 1 in exact.unit_square_roots(n)


def test_is_square_unit_mod_agrees_with_enumeration():
    for n in range(2, 101):
        units = [c for c in range(1, n) if math.gcd(c, n) == 1]
        squares = {u * u % n for u in units}
        for c in units:
            assert (c in exact.unit_square_roots(n)) == (c in squares)


def test_unit_squares_mod_matches_the_full_range():
    # The half-range scan must give the squares of the definition, u over
    # 1..n-1, each with its least root in that range.
    for n in range(2, 501):
        least = {}
        for u in range(1, n):
            if math.gcd(u, n) == 1:
                least.setdefault(u * u % n, u)
        assert exact.unit_square_roots(n) == least, n
    with pytest.raises(ValueError):
        exact.unit_square_roots(1)


def test_is_square_unit_mod_rejects_non_units():
    # A square unit is a unit, so no residue sharing a factor with n is one.
    for c, n in ((4, 12), (0, 5)):
        assert math.gcd(c, n) != 1 and c not in exact.unit_square_roots(n)
    for n in range(2, 101):
        assert all(math.gcd(s, n) == 1 for s in exact.unit_square_roots(n))


class PairRational:
    """Independent big-integer pair arithmetic used as an oracle."""

    def __init__(self, num, den=1):
        if den == 0:
            raise ZeroDivisionError
        if den < 0:
            num, den = -num, -den
        g = math.gcd(abs(num), den)
        g = g or 1
        self.num, self.den = num // g, den // g

    def add(self, o):
        return PairRational(self.num * o.den + o.num * self.den, self.den * o.den)

    def sub(self, o):
        return PairRational(self.num * o.den - o.num * self.den, self.den * o.den)

    def mul(self, o):
        return PairRational(self.num * o.num, self.den * o.den)

    def div(self, o):
        return PairRational(self.num * o.den, self.den * o.num)


def test_rational_arithmetic_matches_pair_oracle():
    rng = random.Random(20260810)
    for _ in range(10000):
        a_num, b_num = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
        a_den, b_den = rng.randint(1, 10**6), rng.randint(1, 10**6)
        a, b = Fraction(a_num, a_den), Fraction(b_num, b_den)
        oa, ob = PairRational(a_num, a_den), PairRational(b_num, b_den)
        op = rng.choice("+-*/")
        if op == "+":
            got, want = a + b, oa.add(ob)
        elif op == "-":
            got, want = a - b, oa.sub(ob)
        elif op == "*":
            got, want = a * b, oa.mul(ob)
        else:
            if b == 0:
                continue
            got, want = a / b, oa.div(ob)
        assert got.denominator > 0
        assert math.gcd(abs(got.numerator), got.denominator) == 1
        assert (got.numerator, got.denominator) == (want.num, want.den)


def test_factor_string():
    assert exact.factor_string(1) == "1"
    assert exact.factor_string(84) == "2²·3·7"
    assert exact.factor_string(169) == "13²"
    assert exact.factor_string(96) == "2⁵·3"
    assert exact.factor_string(2**10) == "2¹⁰"
    for n in range(1, 500):
        total = 1
        for prime, exp in exact.factorize(n):
            total *= prime**exp
        assert total == n


# Hilbert symbols against local solubility.  For squarefree a and b,
# z^2 = a x^2 + b y^2 has a nonzero p-adic solution if and only if it has one
# modulo HILBERT_MODULI[p] with x, y, z not all divisible by p.
HILBERT_MODULI = {2: 2**5, 3: 3**3, 5: 5**3, 7: 7**2}


def _locally_soluble(a, b, p, m, squares):
    # Values z^2 - a x^2 mod m, each with whether it came from an x or z prime to p.
    left = {}
    for sx in squares:
        for sz in squares:
            v = (sz - a * sx) % m
            left[v] = left.get(v, False) or bool(sx % p or sz % p)
    return any((b * sy) % m in left and (left[(b * sy) % m] or sy % p) for sy in squares)


def _squarefree(n):
    return all(n % (d * d) for d in range(2, math.isqrt(abs(n)) + 1))


def test_hilbert_symbol_matches_local_solubility():
    values = [n for n in range(-30, 31) if n and _squarefree(n)]
    checked = 0
    for p, m in HILBERT_MODULI.items():
        squares = sorted({x * x % m for x in range(m)})
        for a in values:
            for b in values:
                expected = 1 if _locally_soluble(a, b, p, m, squares) else -1
                assert exact.hilbert_symbol(a, b, p) == expected, (a, b, p)
                checked += 1
    assert checked == 5776


def _primes_dividing(n):
    n, d, out = abs(n), 2, []
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


_nonzero = st.integers(-10**6, 10**6).filter(bool)


@given(_nonzero, _nonzero)
def test_hilbert_symbol_reciprocity(a, b):
    # The product over all places is 1: the finite places give the real symbol,
    # which is -1 only for two negative numbers.  Only primes dividing 2ab count.
    product = math.prod(exact.hilbert_symbol(a, b, p) for p in _primes_dividing(2 * a * b))
    assert product == (-1 if a < 0 and b < 0 else 1)


@given(_nonzero, st.sampled_from([2, 3, 5, 7, 11, 13, 10007]))
def test_hilbert_symbol_of_a_and_minus_a_is_one(a, p):
    assert exact.hilbert_symbol(a, -a, p) == 1
    if a != 1:
        assert exact.hilbert_symbol(a, 1 - a, p) == 1


def test_hilbert_symbol_rejects_zero_and_non_primes():
    for args in [(0, 1, 2), (1, 0, 3), (1, 1, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            exact.hilbert_symbol(*args)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
@example(6, 3)
@example(-4, 2)
@example(0, 5)
def test_ratio_str_renders_as_fraction_does(num, den):
    assert exact.ratio_str(num, den) == str(Fraction(num, den))
