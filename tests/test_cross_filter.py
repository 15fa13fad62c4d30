"""Theorems that tie the inputs of separate filters together.

The linking-form filter reads each member's reversed link form; the
Donaldson filter reads the plumbing that the reversed link bounds.  The
boundary of a plumbing with intersection form G carries the form -G^(-1)
on its discriminant group (Nikulin, "Integral symmetric bilinear forms and
some of their applications", 1979, §1), so the two inputs must agree.  The
oracle here reads that form off the chain continuants and imports nothing
from the package.
"""

import math

from qhpp import catalog, lattice, linking


def _chain_discriminant_form(weights):
    """(order, value) of the form -G^(-1) of a negative definite linear chain:
    on Z/D_l, generated by the dual of the last vertex, it is D_(l-1)/D_l,
    where D_k = a_k D_(k-1) - D_(k-2) are the continuants of a_k = -w_k."""
    before, last = 0, 1
    for w in weights:
        before, last = last, -w * last - before
    return last, before % last


def _isomorphic(order, a, b):
    """Whether a/order and b/order differ by the square of a unit."""
    return order == 1 or any(a * u * u % order == b
                             for u in range(1, order) if math.gcd(u, order) == 1)


def _lens_members():
    for species, (_, least, greatest, _) in catalog.SPECIES.items():
        for n in range(least, (least + 12 if greatest is None else greatest) + 1):
            t = catalog.lookup(species, n)
            if isinstance(t.link, catalog.LensLink):
                yield t


def test_reversed_link_form_is_the_plumbing_discriminant_form():
    members = list(_lens_members())
    assert len(members) == 67
    for t in members:
        form = linking.reversed_link_form(t)
        order, value = _chain_discriminant_form(lattice.plumbing_for_reversed_link(t))
        assert order == form.denominator == t.det_r, t.name
        assert _isomorphic(order, form.numerator, value), t.name
