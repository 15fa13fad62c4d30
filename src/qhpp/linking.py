"""Linking forms on cyclic groups and the boundary linking-form obstruction.

A nondegenerate symmetric form on Z/n valued in Q/Z is recorded by the
residue c with lambda(g, g) = c/n on a generator; two forms c/n and c'/n are
isomorphic exactly when c' = c u^2 (mod n) for a unit u.  The lens space
L(p,q) carries the form q/p, a +k surgery on any knot carries -1/k, and the
form of an orientation reversal is the negation.
"""

from __future__ import annotations

import math

from . import exact
from .catalog import LensLink, SingularityType, TrefoilSurgeryLink
from .configuration import Configuration, ObstructionVerdict, Outcome, Record

__all__ = [
    "CyclicLinkingForm",
    "lens_linking_form",
    "reversed_link_form",
    "connected_sum_form",
    "is_isomorphic",
    "linking_obstruction",
    "boundary_verdict",
]


class CyclicLinkingForm(Record):
    """The form lambda(g,g) = value/order on a generator g of Z/order."""
    _fields = ("order", "value")

    def __init__(self, order: int, value: int):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        if order == 1:
            if value != 0:
                raise ValueError("the trivial group carries only the zero form")
        elif not (0 < value < order and math.gcd(value, order) == 1):
            raise ValueError(f"form value must be a reduced unit residue, got {value}/{order}")
        self.__dict__.update(order=order, value=value)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def negate(self) -> "CyclicLinkingForm":
        return CyclicLinkingForm(self.order, (-self.value) % self.order)

    def __str__(self):
        return "0" if self.is_trivial else f"{self.value}/{self.order}"


def lens_linking_form(p: int, q: int) -> CyclicLinkingForm:
    """Linking form of L(p,q): the class (q/p) on Z/p."""
    return CyclicLinkingForm(p, q)


def reversed_link_form(t: SingularityType) -> CyclicLinkingForm | None:
    """Linking form of the orientation-reversed link of t, or None if unknown."""
    link = t.link
    if isinstance(link, LensLink):
        return lens_linking_form(link.p, link.q).negate()
    if isinstance(link, TrefoilSurgeryLink):
        # The link is a negative surgery on the left trefoil; its reversal is
        # the positive k surgery on the right trefoil, with form -1/k.
        k = -link.framing
        return CyclicLinkingForm(k, k - 1)
    return None


def connected_sum_form(forms) -> CyclicLinkingForm:
    """Compose forms on groups of pairwise coprime order over the diagonal
    generator (1, ..., 1) of the product group."""
    forms = list(forms)
    orders = [f.order for f in forms]
    pair = exact.first_shared_factor(orders)
    if pair is not None:
        i, j, _ = pair
        raise ValueError(f"orders {orders[i]} and {orders[j]} are not coprime")
    total = math.prod(orders)
    value = sum(f.value * (total // f.order) for f in forms) % total
    return CyclicLinkingForm(total, value)


def is_isomorphic(f: CyclicLinkingForm, g: CyclicLinkingForm) -> bool:
    """Whether two cyclic forms are isomorphic (equal up to a unit square)."""
    if f.order != g.order:
        return False
    if f.is_trivial:
        return True
    n = f.order
    ratio = g.value * pow(f.value, -1, n) % n
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
    if not (config.dets_pairwise_coprime()
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
    composed = connected_sum_form(forms)
    modulus = composed.order
    evidence = {"composed": str(composed), "modulus": modulus}
    if composed.is_trivial:
        return ObstructionVerdict(name, Outcome.PASS, evidence)
    residue = (-composed.value) % modulus
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
