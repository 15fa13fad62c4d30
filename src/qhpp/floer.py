"""Heegaard Floer d-invariants of lens spaces and trefoil surgeries.

Lens-space d-invariants follow the recursion

    d(L(p,q), i) = 1/4 - (2i + 1 - p - q)^2 / (4pq) - d(L(q, p mod q), i mod q)

grounded at d(L(1,0), 0) = d(S^3) = 0, for L(p,q) oriented as -p/q surgery
on the unknot.  Surgeries on the right-handed trefoil reduce to lens values
through the mapping-cone surgery formula with V_0 = 1 and V_s = 0 for s > 0.
Orientation reversal enters in exactly one place: d(-Y, s) = -d(Y, s).
Each link's spin d-invariants are computed once per process, keyed on the
link descriptor, and kept sorted together with their rendered strings.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .catalog import LensLink, SingularityType, TrefoilSurgeryLink
from .configuration import Configuration, ObstructionVerdict, Outcome

SPIN_SUM_TARGET = Fraction(1, 4)


class SpinDataUnavailable(Exception):
    """Spin d-invariants of this link are neither computable nor tabulated."""


def _validate_lens(p: int, q: int, i: int) -> None:
    if p == 1:
        if q != 0:
            raise ValueError(f"L(1,q) must be written L(1,0), got q={q}")
    elif not (0 < q < p and math.gcd(p, q) == 1):
        raise ValueError(f"invalid lens space parameters (p, q) = ({p}, {q})")
    if not 0 <= i < p:
        raise ValueError(f"spin-c label {i} out of range for L({p},{q})")


def d_lens(p: int, q: int, i: int) -> Fraction:
    """d-invariant d(L(p,q), i), with L(p,q) the -p/q surgery on the unknot.

    The recursion is unrolled: walk the Euclidean chain down to L(1, 0), then
    fold back from d(S^3) = 0 in the integers 4p d(L(p,q), i).  L(p,q) bounds
    a negative definite plumbing of determinant p, so 4p d is an integer and
    each step divides exactly by q.
    """
    _validate_lens(p, q, i)
    chain = []
    while p != 1:
        chain.append((p, q, i))
        p, q, i = q, p % q, i % q
    scaled = 0
    for p, q, i in reversed(chain):
        scaled = p - ((2 * i + 1 - p - q) ** 2 + p * scaled) // q
    return Fraction(scaled, 4 * p)


def spin_labels(p: int, q: int) -> frozenset[int]:
    """Spin-c labels of L(p,q) induced by spin structures.

    These are the integers among (q-1)/2 and (p+q-1)/2: one label for odd p,
    two for even p.
    """
    _validate_lens(p, q, 0)
    labels = set()
    if (q - 1) % 2 == 0:
        labels.add((q - 1) // 2)
    if (p + q - 1) % 2 == 0:
        labels.add((p + q - 1) // 2)
    return frozenset(labels)


def d_trefoil_surgery(p: int, i: int) -> Fraction:
    """d-invariant of integral p surgery on the right-handed trefoil at label
    i, read off L(p, 1), the p surgery on the unknot."""
    if p < 1:
        raise ValueError(f"invalid surgery coefficient {p}")
    if not 0 <= i < p:
        raise ValueError(f"spin-c label {i} out of range for {p} surgery")
    # The mapping-cone term 2 max(V_i, V_(p-i)), with V_0 = 1 and V_s = 0 for
    # s > 0: as p - i >= 1, it is 2 at label 0 and 0 elsewhere.
    return -d_lens(p, 1 % p, i) - 2 * (i == 0)


def link_d_invariants(t: SingularityType) -> tuple[Fraction, ...]:
    """The full d-invariant multiset of the link of t, sorted descending."""
    link = t.link
    if isinstance(link, LensLink):
        vals = [d_lens(link.p, link.q, i) for i in range(link.p)]
    elif isinstance(link, TrefoilSurgeryLink):
        k = -link.framing
        vals = [-d_trefoil_surgery(k, i) for i in range(k)]
    else:
        raise SpinDataUnavailable(f"d-invariants of {link.name} are not tabulated")
    return tuple(sorted(vals, reverse=True))


def spin_d_invariants(t: SingularityType) -> frozenset[Fraction]:
    """d-invariants of the link of t at its spin structures, by the kind of
    link: a lens space from the recursion, a trefoil k-surgery from the
    surgery formula at the spin labels of L(k, 1), whose spin-c labels it
    shares, and a tabulated link from its table entry, raising
    SpinDataUnavailable (never an empty set) where it has none."""
    return frozenset(_spin_values(t.link)[0])


@lru_cache(maxsize=None)
def _spin_values(link) -> tuple[tuple[Fraction, ...], tuple[str, ...]]:
    """The spin d-invariants of ``link`` in increasing order, and their strings."""
    if isinstance(link, LensLink):
        values = {d_lens(link.p, link.q, i) for i in spin_labels(link.p, link.q)}
    elif isinstance(link, TrefoilSurgeryLink):
        k = -link.framing
        values = {-d_trefoil_surgery(k, i) for i in spin_labels(k, 1 % k)}
    elif link.spin_d is None:
        raise SpinDataUnavailable(f"spin d-invariants of {link.name} are not tabulated")
    else:
        values = link.spin_d
    values = tuple(sorted(values))
    return values, tuple(map(str, values))


def _ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, without building the Fraction."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


def spin_sum_obstruction(config: Configuration) -> ObstructionVerdict:
    """Connected-sum spin d-invariant test.

    When the product of the link homology orders is even, the boundary of
    the curve-complement 4-manifold is spin, which forces some choice of one
    spin d-invariant per singularity to sum to exactly 1/4.  OBSTRUCTED means
    no choice attains 1/4; the evidence lists every attempted sum, added in
    integers over one denominator, and the first choice that attains 1/4.
    """
    name = "spin_sum"
    if config.h1_product % 2 == 1:
        return ObstructionVerdict(
            name, Outcome.NOT_APPLICABLE,
            {"h1_product": config.h1_product},
            note="product of link homology orders is odd",
        )
    try:
        value_sets = [_spin_values(t.link) for t in config.members]
    except SpinDataUnavailable as exc:
        return ObstructionVerdict(
            name, Outcome.NOT_APPLICABLE,
            {"h1_product": config.h1_product, "unavailable": str(exc)},
            note="spin d-invariant data unavailable; no verdict",
        )
    per_member = [[t.name, list(strs)] for t, (_, strs) in zip(config.members, value_sets)]
    den = math.lcm(SPIN_SUM_TARGET.denominator,
                   *(v.denominator for vs, _ in value_sets for v in vs))
    scaled = [[v.numerator * (den // v.denominator) for v in vals] for vals, _ in value_sets]
    target = SPIN_SUM_TARGET.numerator * (den // SPIN_SUM_TARGET.denominator)
    sums = sorted(set(map(sum, product(*scaled))))
    evidence = {
        "h1_product": config.h1_product,
        "per_member": per_member,
        "sums": [_ratio_str(s, den) for s in sums],
        "target": str(SPIN_SUM_TARGET),
    }
    if target in sums:
        choices = zip(product(*scaled), product(*(strs for _, strs in value_sets)))
        evidence["witness"] = next(list(strs) for ints, strs in choices if sum(ints) == target)
        return ObstructionVerdict(name, Outcome.PASS, evidence)
    return ObstructionVerdict(name, Outcome.OBSTRUCTED, evidence)
