"""Registry of quotient-singularity species and imported classification lists.

Each species record carries the numerical invariants consumed by the
screening pipeline: the determinant of the exceptional sublattice (equal to
the order of H_1 of the singularity link), the local group order, the
canonical-square correction of the resolution, the isomorphism type of H_1
of the link, and the link: a lens space, a trefoil surgery, or a named
Seifert manifold that carries its tabulated spin d-invariants.  Member n of
a species has n exceptional curves in its minimal resolution.  ``lookup``
builds one record per (species, n) and the whole process shares it, so
tokens and configurations that name a member hold the same object.  Other
modules branch on the kind of link, never on a species key.

Classification theorems that this package *imports* rather than derives
(the Gorenstein 58-type list, the Alexeev-Nikulin index-two log del Pezzo
list, and the realizable-type lists) are stored as plain-text data files in
``qhpp/data``.  ``imported(name)`` parses ``qhpp/data/<name>.txt`` on first
use and keeps it: "gorenstein_k_nontrivial" (27 types) and
"gorenstein_k_trivial" (31) split the Gorenstein list by whether K is
numerically trivial, "log_del_pezzo_index2" holds 18 types and
"realizable_index<i>" the realizable types of index i.  File format: one
singularity multiset per line as whitespace-separated species tokens ("K5",
"A2(1,2)", "D5(2)", with repeats written out), ``#`` starting a comment.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple


# --------------------------------------------------------------------------
# Link descriptors
# --------------------------------------------------------------------------

class LensLink(NamedTuple):
    """The lens space L(p, q), oriented as -p/q surgery on the unknot."""
    p: int
    q: int


class TrefoilSurgeryLink(NamedTuple):
    """Surgery on the left-handed trefoil with the given (negative) framing."""
    framing: int


class TabulatedLink(NamedTuple):
    """A Seifert-fibered link known only through tabulated invariants: its
    d-invariants at the spin structures, or None where none are tabulated."""
    name: str
    spin_d: frozenset[Fraction] | None


Link = LensLink | TrefoilSurgeryLink | TabulatedLink


# --------------------------------------------------------------------------
# Species
# --------------------------------------------------------------------------

_LETTER_RANK = {"E": 0, "D": 1, "A": 2, "K": 3}


class SingularityType(NamedTuple):
    species: str
    n: int
    index: int
    det_r: int
    group_order: int | None
    # Canonical-square correction of the minimal resolution; None for D4(1)
    # and D4(2), which their non-cyclic H_1 eliminates before any formula
    # reads it.
    dp_square: Fraction | None
    h1_kind: str  # H_1 of the link: "cyclic", "Z2+Z2" or "Z6+Z2"; its order is det_r
    link: Link

    @property
    def name(self) -> str:
        return f"{self.species[0]}{self.n}{self.species[1:]}"

    def sort_key(self):
        return (0 if self.index > 1 else 1, -self.n, _LETTER_RANK[self.species[0]], self.species)


def _lens(pq, dp: Fraction):
    """Member n of a lens-space species with link L(p, q) = L(*pq(n)): it has
    n curves, cyclic H_1, and its determinant and group order equal p."""
    def member(n):
        p, q = pq(n)
        return p, p, dp, "cyclic", LensLink(p, q)
    return member


def _d_index3(r: int, dp: Fraction, spin_d: dict):
    """Member n of D(r): H_1 of order 12, cyclic for odd n; spin d-invariants
    spin_d[n] where tabulated, and no group order (no screening formula reads it)."""
    return lambda n: (12, None, dp if n >= 5 else None, "cyclic" if n % 2 else "Z6+Z2",
                      TabulatedLink(f"D{n}({r})", spin_d.get(n)))


# The species table: key -> (index, least n, greatest n or None, member),
# where member(n) gives (det_r, group_order, dp_square, h1_kind, link).  A key
# is its token with the number removed ("A4" -> "A", "A2(1,2)" -> "A(1,2)",
# "A1(1)" -> "A(1)"), and member n has n curves.
SPECIES = {
    "A": (1, 1, None, _lens(lambda n: (n + 1, n), Fraction(0))),
    "D": (1, 4, None, lambda n: (4, 4 * (n - 2), Fraction(0), "cyclic" if n % 2 else "Z2+Z2",
                                 TrefoilSurgeryLink(-4) if n == 5 else TabulatedLink(
                                     f"D{n}", frozenset({Fraction(n, 4), Fraction(n - 4, 4)})))),
    "E": (1, 6, 8, lambda n: (9 - n, {6: 24, 7: 48, 8: 120}[n], Fraction(0), "cyclic",
                              TrefoilSurgeryLink(n - 9))),
    "K": (2, 1, None, _lens(lambda n: (4 * n, 2 * n - 1), Fraction(-1))),
    "A(1)": (3, 1, 1, _lens(lambda n: (3, 1), Fraction(-1, 3))),
    "A(2)": (3, 1, 1, _lens(lambda n: (6, 1), Fraction(-8, 3))),
    "A(1,1)": (3, 3, None, _lens(lambda n: (9 * n - 15, 6 * n - 11), Fraction(-4, 3))),
    "A(1,2)": (3, 2, None, _lens(lambda n: (9 * n - 9, 6 * n - 7), Fraction(-2))),
    "A(2,2)": (3, 2, None, _lens(lambda n: (9 * n - 3, 3 * n - 2), Fraction(-8, 3))),
    "D(1)": (3, 4, None, _d_index3(1, Fraction(-2, 3), {})),
    # The reversed link of D9(2) is the Seifert manifold (-1; 1/2, 1/2, 3/19)
    # with spin d-invariants -5/4 and -9/4; negated back to the link itself.
    "D(2)": (3, 4, None, _d_index3(2, Fraction(-4, 3),
                                   {9: frozenset({Fraction(5, 4), Fraction(9, 4)})})),
}


@lru_cache(maxsize=None, typed=True)
def lookup(species: str, n: int) -> SingularityType:
    """The fully populated invariant record for one singularity species,
    built once per process: every call with the same (species, n) returns
    the same record.  Raises TypeError if n is not an integer; the cache
    keys on argument types, so 2.0 is refused even after 2 was built."""
    if type(n) is not int:
        return lookup(species, operator.index(n))
    if species not in SPECIES:
        raise ValueError(f"unknown species {species!r}")
    index, least, greatest, member = SPECIES[species]
    if not least <= n <= (n if greatest is None else greatest):
        bound = (f"n >= {least}" if greatest is None
                 else f"n in ({', '.join(map(str, range(least, greatest + 1)))})")
        raise ValueError(f"{species[0]}{n}{species[1:]}: need {bound}")
    return SingularityType(species, n, index, *member(n))


# --------------------------------------------------------------------------
# Token parsing ("A4", "K5", "A2(1,2)", "D5(2)", "A1(1)")
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^([ADEK])(\d+)(\(\d(?:,\d)?\))?$")


def parse_token(token: str) -> SingularityType:
    """Parse one species token such as 'A4', 'K5', 'A2(1,2)' or 'D5(2)'."""
    m = _TOKEN_RE.match(token.strip())
    species = m and m[1] + (m[3] or "")
    if species not in SPECIES:
        raise ValueError(f"unrecognized singularity token {token!r}")
    return lookup(species, int(m[2]))


# --------------------------------------------------------------------------
# Imported classification data
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def imported(name: str) -> tuple[tuple[SingularityType, ...], ...]:
    """The imported list ``qhpp/data/<name>.txt``, parsed on first use: each
    line's members in file order."""
    # Imported here: the verbs that read no list do not pay for it at start-up.
    from importlib import resources
    text = (resources.files(__package__) / "data" / f"{name}.txt").read_text()
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return tuple(tuple(map(parse_token, line.split())) for line in lines if line)
