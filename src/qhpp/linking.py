"""Linking forms on cyclic groups and the boundary linking-form obstruction.

A nondegenerate symmetric form on Z/n valued in Q/Z is recorded by the
value lambda(g, g) = c/n on a generator, a Fraction in [0, 1) whose
denominator is the group order n (c is a unit mod n; the trivial group
carries 0).  Two forms c/n and c'/n are isomorphic exactly when
c' = c u^2 (mod n) for a unit u.  The lens space L(p,q) carries the form
q/p, a +k surgery on any knot carries -1/k, and the form of an orientation
reversal is the negation.  ``reversed_link_form`` computes each link's form
once per process, keyed on the link descriptor (not on the member record).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import exact
from .catalog import LensLink, SingularityType, TrefoilSurgeryLink
from .configuration import Configuration, ObstructionVerdict, Outcome


def reversed_link_form(t: SingularityType) -> Fraction | None:
    """Linking form of the orientation-reversed link of t, or None if unknown."""
    return _reversed_form(t.link)


@lru_cache(maxsize=None)
def _reversed_form(link) -> Fraction | None:
    if isinstance(link, LensLink):
        # The negation of q/p, the form of L(p, q).
        return Fraction(link.p - link.q, link.p)
    if isinstance(link, TrefoilSurgeryLink):
        # The link is a negative surgery on the left trefoil; its reversal is
        # the positive k surgery on the right trefoil, with form -1/k.
        k = -link.framing
        return Fraction(k - 1, k)
    return None


def connected_sum_form(forms) -> Fraction:
    """Compose forms on groups of pairwise coprime order over the diagonal
    generator (1, ..., 1) of the product group: the Fraction of ``_composed``."""
    return Fraction(*_composed(forms))


def _composed(forms) -> tuple[int, int]:
    """The connected sum as (c, N), N the product of the orders, added in integers; c is a unit."""
    forms = list(forms)
    orders = [f.denominator for f in forms]
    pair = exact.first_shared_factor(orders)
    if pair is not None:
        i, j, _ = pair
        raise ValueError(f"orders {orders[i]} and {orders[j]} are not coprime")
    total = math.prod(orders)
    return sum(f.numerator * (total // f.denominator) for f in forms) % total, total


def is_isomorphic(f: Fraction, g: Fraction) -> bool:
    """Whether two cyclic forms are isomorphic (equal up to a unit square)."""
    n = f.denominator
    if n != g.denominator:
        return False
    if n == 1:
        return True
    ratio = g.numerator * pow(f.numerator, -1, n) % n
    # A root of the unit ratio is a unit; u and n - u have the same square.
    return any(u * u % n == ratio for u in range(1, n // 2 + 1))


def linking_obstruction(config: Configuration) -> ObstructionVerdict:
    """Boundary linking-form test.

    The complement of the singularities is a 4-manifold with intersection
    form (N), N the product of the link homology orders, so its boundary
    carries the form (-1/N).  The boundary is also the sum of the reversed
    links, whose composed form c/N must therefore satisfy -c = u^2 (mod N)
    for a unit u.  The test needs cyclic boundary homology: a member with
    non-cyclic H_1, orders that are not pairwise coprime, or a member with
    untabulated linking form yields NOT_APPLICABLE.
    """
    name = "linking_form"
    if not (config.shared_factor is None
            and all(t.h1_kind == "cyclic" for t in config.members)):
        return ObstructionVerdict(
            name, Outcome.NOT_APPLICABLE, {},
            note="boundary homology is not cyclic; test precondition fails")
    forms = []
    for t in config.members:
        f = reversed_link_form(t)
        if f is None:
            return ObstructionVerdict(
                name, Outcome.NOT_APPLICABLE,
                {"unknown_form": t.name},
                note=f"linking form of the link of {t.name} is not tabulated",
            )
        forms.append(f)
    return boundary_verdict(forms)


def boundary_verdict(forms) -> ObstructionVerdict:
    """The square-unit test on the connected sum of ``forms``: the composed
    form c/N passes when -c = u^2 (mod N) for a unit u, i.e. when it is
    isomorphic to (-1/N).  Raises ValueError on orders that are not
    pairwise coprime."""
    name = "linking_form"
    composed, modulus = _composed(forms)
    evidence = {"composed": exact.ratio_str(composed, modulus), "modulus": modulus}
    if modulus == 1:
        return ObstructionVerdict(name, Outcome.PASS, evidence)
    residue = (-composed) % modulus
    evidence.update(required_class=f"-1/{modulus}", residue=residue)
    roots = exact.unit_square_roots(modulus)
    if residue in roots:
        evidence["unit"] = roots[residue]
        return ObstructionVerdict(name, Outcome.PASS, evidence)
    evidence["unit_squares"] = sorted(roots)
    return ObstructionVerdict(
        name, Outcome.OBSTRUCTED, evidence,
        note=f"{residue} is not a square unit modulo {modulus}",
    )
