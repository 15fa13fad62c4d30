"""Exact integer and rational arithmetic primitives.

All quantities in this package (d-invariants, canonical squares, orbifold
Euler characteristics, linking-form values) are exact rationals; nothing is
ever rounded.  The filters hold a rational as an integer pair (numerator,
denominator > 0), added over one denominator, compared by cross-multiplying
and rendered by ``ratio_str``; ``fractions.Fraction``, the public type, is
built only where a caller reads one.  Integers are unbounded, so nothing can
overflow or lose exactness.
"""

from __future__ import annotations

import math


def hj_expand(p: int, q: int) -> tuple[int, ...]:
    """Hirzebruch-Jung continued fraction of p/q.

    Returns the unique expansion p/q = [a_1, ..., a_l] with every a_i >= 2,
    where [a_1, ..., a_l] = a_1 - 1/(a_2 - 1/(... - 1/a_l)).

    Requires 0 < q < p and gcd(p, q) = 1.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise TypeError("p and q must be integers")
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got (p, q) = ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got ({p}, {q})")
    coeffs = []
    while q > 0:
        a = -(-p // q)  # ceiling division
        coeffs.append(a)
        p, q = q, a * q - p
    return tuple(coeffs)


def hj_value(coeffs) -> tuple[int, int]:
    """Evaluate a Hirzebruch-Jung continued fraction to a reduced (p, q).

    Inverse of :func:`hj_expand`; every coefficient must be >= 2.
    """
    coeffs = tuple(coeffs)
    if not coeffs:
        raise ValueError("empty coefficient sequence")
    if any(not isinstance(a, int) or a < 2 for a in coeffs):
        raise ValueError(f"all coefficients must be integers >= 2, got {coeffs}")
    # Evaluate from the right: value = a - 1/rest, kept as p/q in lowest terms.
    p, q = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        p, q = a * p - q, p
    assert math.gcd(p, q) == 1 and p > q > 0
    return p, q


def is_perfect_square(n: int) -> bool:
    """True iff n is the square of an integer (n >= 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r = math.isqrt(n)
    return r * r == n


def ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den >= 1, without building the Fraction."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


def first_shared_factor(values) -> tuple[int, int, int] | None:
    """The first pair of positions i < j of a sequence whose values share a
    factor, as (i, j, gcd); None when the values are pairwise coprime."""
    for i, a in enumerate(values):
        for j in range(i + 1, len(values)):
            g = math.gcd(a, values[j])
            if g != 1:
                return i, j, g
    return None


def unit_square_roots(n: int) -> dict[int, int]:
    """Each square unit u^2 mod n, gcd(u, n) = 1, mapped to its least root u.
    u <= n/2 suffices, as n - u has the same square and is a unit exactly
    when u is; u runs downwards, so the least root is written last."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return {u * u % n: u for u in range(n // 2, 0, -1) if math.gcd(u, n) == 1}


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """The Hilbert symbol (a, b)_p of nonzero integers at a prime p, which is
    not tested for primality: 1 if z^2 = a x^2 + b y^2 has a nonzero p-adic
    solution, else -1 (Serre, "A Course in Arithmetic", Ch. III, Thm. 1)."""
    if not a or not b or p < 2:
        raise ValueError(f"need nonzero a and b and a prime p, got ({a}, {b}, {p})")
    s = t = 0
    while a % p == 0:
        a, s = a // p, s + 1
    while b % p == 0:
        b, t = b // p, t + 1
    if p == 2:
        # (-1)^(e(a) e(b) + s w(b) + t w(a)): e(u) = [u = 3 mod 4], w(u) = [u = +-3 mod 8].
        odd = (a % 4 == 3 == b % 4) + s * (b % 8 in (3, 5)) + t * (a % 8 in (3, 5))
    else:
        # (-1)^(s t (p-1)/2) (a/p)^t (b/p)^s, by Euler's criterion.
        half = (p - 1) // 2
        odd = s * t * half + (t % 2 and pow(a, half, p) != 1) + (s % 2 and pow(b, half, p) != 1)
    return -1 if odd % 2 else 1


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def factor_string(n: int) -> str:
    """Render n >= 1 as a prime factorization string, e.g. 84 -> '2²·3·7'."""
    if n == 1:
        return "1"
    parts = []
    for prime, exp in factorize(n):
        if exp == 1:
            parts.append(str(prime))
        else:
            parts.append(f"{prime}{str(exp).translate(_SUPERSCRIPTS)}")
    return "·".join(parts)
