"""Registry of quotient-singularity species and imported classification lists.

Each species record carries the numerical invariants consumed by the
screening pipeline: the determinant of the exceptional sublattice (equal to
the order of H_1 of the singularity link), the local group order, the number
of exceptional curves in the minimal resolution, the canonical-square
correction of the resolution, the isomorphism type of H_1 of the link, and a
description of the link itself (a lens space, a surgery on the trefoil, or a
named Seifert manifold with tabulated data).

Classification theorems that this package *imports* rather than derives
(the Gorenstein 58-type list, the Alexeev-Nikulin index-two log del Pezzo
list, and the realizable-type lists) are stored as plain-text data files in
``qhpp/data`` and parsed here, each on first use.  File format: one
singularity multiset per line as whitespace-separated species tokens ("K5",
"A2(1,2)", "D5(2)", with repeats written out), ``#`` starting a comment.
"""

from __future__ import annotations

import re
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

__all__ = [
    "LensLink",
    "TrefoilSurgeryLink",
    "TabulatedLink",
    "H1",
    "SingularityType",
    "lookup",
    "parse_token",
    "parse_multiset",
    "format_multiset",
    "GORENSTEIN_K_NONTRIVIAL",
    "GORENSTEIN_K_TRIVIAL",
    "GORENSTEIN_58",
    "LOG_DEL_PEZZO_INDEX2_18",
    "REALIZABLE_INDEX1_7",
    "REALIZABLE_INDEX2_4",
    "REALIZABLE_INDEX3_16",
]


# --------------------------------------------------------------------------
# Link and H1 descriptors
# --------------------------------------------------------------------------

class LensLink(NamedTuple):
    """The lens space L(p, q), oriented as -p/q surgery on the unknot."""
    p: int
    q: int

    def __str__(self):
        return f"L({self.p},{self.q})"


class TrefoilSurgeryLink(NamedTuple):
    """Surgery on the left-handed trefoil with the given (negative) framing."""
    framing: int

    def __str__(self):
        return f"S3_{self.framing}(left trefoil)"


class TabulatedLink(NamedTuple):
    """A Seifert-fibered link known only through tabulated invariants."""
    name: str

    def __str__(self):
        return self.name


Link = LensLink | TrefoilSurgeryLink | TabulatedLink


class H1(NamedTuple):
    """Isomorphism type of H_1 of a singularity link.

    ``kind`` is "cyclic", "Z2+Z2", or "Z6+Z2"; ``order`` is the group order.
    """
    kind: str
    order: int

    @property
    def is_cyclic(self) -> bool:
        return self.kind == "cyclic"

    def __str__(self):
        if self.kind == "cyclic":
            return f"Z{self.order}" if self.order > 1 else "0"
        return self.kind


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
    curve_count: int
    known_dp_square: Fraction | None
    h1_link: H1
    link: Link

    @property
    def dp_square(self) -> Fraction:
        """Canonical-square correction of the minimal resolution at this point.

        Unset for D4(1)/D4(2): both are eliminated by their non-cyclic H_1
        before any formula consumes the value, so reading it is a hard error.
        """
        if self.known_dp_square is None:
            raise ValueError(f"dp_square is not defined for {self.name}")
        return self.known_dp_square

    @property
    def name(self) -> str:
        if self.species in ("A", "D", "E", "K"):
            return f"{self.species}{self.n}"
        if self.species in ("A1(1)", "A1(2)"):
            return self.species
        letter, suffix = self.species[0], self.species[1:]
        return f"{letter}{self.n}{suffix}"

    def sort_key(self):
        letter = self.species[0]
        return (
            0 if self.index > 1 else 1,
            -self.curve_count,
            _LETTER_RANK[letter],
            -self.n,
            self.species,
        )

    def __str__(self):
        return self.name


def _cyclic_index3(species: str, n: int, p: int, q: int, dp: Fraction) -> SingularityType:
    # Cyclic quotient: local group is cyclic of order p, the link order.
    return SingularityType(
        species=species, n=n, index=3, det_r=p, group_order=p,
        curve_count=n if species.startswith("A(") else 1,
        known_dp_square=dp, h1_link=H1("cyclic", p), link=LensLink(p, q),
    )


def lookup(species: str, n: int) -> SingularityType:
    """The fully populated invariant record for one singularity species."""
    if species == "A":
        if n < 1:
            raise ValueError(f"A{n}: need n >= 1")
        return SingularityType("A", n, 1, n + 1, n + 1, n, Fraction(0),
                               H1("cyclic", n + 1), LensLink(n + 1, n))
    if species == "D":
        if n < 4:
            raise ValueError(f"D{n}: need n >= 4")
        h1 = H1("Z2+Z2", 4) if n % 2 == 0 else H1("cyclic", 4)
        link = TrefoilSurgeryLink(-4) if n == 5 else TabulatedLink(f"D{n}")
        return SingularityType("D", n, 1, 4, 4 * (n - 2), n, Fraction(0), h1, link)
    if species == "E":
        if n not in (6, 7, 8):
            raise ValueError(f"E{n}: need n in (6, 7, 8)")
        group = {6: 24, 7: 48, 8: 120}[n]
        return SingularityType("E", n, 1, 9 - n, group, n, Fraction(0),
                               H1("cyclic", 9 - n), TrefoilSurgeryLink(n - 9))
    if species == "K":
        if n < 1:
            raise ValueError(f"K{n}: need n >= 1")
        return SingularityType("K", n, 2, 4 * n, 4 * n, n, Fraction(-1),
                               H1("cyclic", 4 * n), LensLink(4 * n, 2 * n - 1))
    if species == "A1(1)":
        if n != 1:
            raise ValueError("A1(1) has no parameter other than 1")
        return _cyclic_index3(species, 1, 3, 1, Fraction(-1, 3))
    if species == "A1(2)":
        if n != 1:
            raise ValueError("A1(2) has no parameter other than 1")
        return _cyclic_index3(species, 1, 6, 1, Fraction(-8, 3))
    if species == "A(1,1)":
        if n < 3:
            raise ValueError(f"A{n}(1,1): need n >= 3")
        return _cyclic_index3(species, n, 9 * n - 15, 6 * n - 11, Fraction(-4, 3))
    if species == "A(1,2)":
        if n < 2:
            raise ValueError(f"A{n}(1,2): need n >= 2")
        return _cyclic_index3(species, n, 9 * n - 9, 6 * n - 7, Fraction(-2))
    if species == "A(2,2)":
        if n < 2:
            raise ValueError(f"A{n}(2,2): need n >= 2")
        return _cyclic_index3(species, n, 9 * n - 3, 3 * n - 2, Fraction(-8, 3))
    if species in ("D(1)", "D(2)"):
        if n < 4:
            raise ValueError(f"D{n}{species[1:]}: need n >= 4")
        h1 = H1("Z6+Z2", 12) if n % 2 == 0 else H1("cyclic", 12)
        dp = None
        if n >= 5:
            dp = Fraction(-2, 3) if species == "D(1)" else Fraction(-4, 3)
        # Local group order for these non-cyclic species is not consumed by
        # any screening formula and is not tabulated here.
        return SingularityType(species, n, 3, 12, None, n, dp, h1,
                               TabulatedLink(f"D{n}({species[2]})"))
    raise ValueError(f"unknown species {species!r}")


# --------------------------------------------------------------------------
# Token parsing ("A4", "K5", "A2(1,2)", "D5(2)", "A1(1)")
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^([ADEK])(\d+)(?:\((\d(?:,\d)?)\))?$")


def parse_token(token: str) -> SingularityType:
    """Parse one species token such as 'A4', 'K5', 'A2(1,2)' or 'D5(2)'."""
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ValueError(f"unrecognized singularity token {token!r}")
    letter, n, args = m.group(1), int(m.group(2)), m.group(3)
    if args is None:
        return lookup(letter, n)
    if args in ("1", "2"):
        if letter == "A":
            if n != 1:
                raise ValueError(f"unrecognized singularity token {token!r}")
            return lookup(f"A1({args})", 1)
        if letter == "D":
            return lookup(f"D({args})", n)
        raise ValueError(f"unrecognized singularity token {token!r}")
    if letter == "A" and args in ("1,1", "1,2", "2,2"):
        return lookup(f"A({args})", n)
    raise ValueError(f"unrecognized singularity token {token!r}")


def parse_multiset(line: str) -> tuple[SingularityType, ...]:
    """Parse a whitespace-separated list of species tokens, sorted canonically."""
    members = tuple(parse_token(tok) for tok in line.split())
    if not members:
        raise ValueError("empty singularity multiset")
    return tuple(sorted(members, key=lambda t: t.sort_key()))


def format_multiset(members) -> str:
    """Compact display name: members grouped with multiplicity prefixes."""
    members = sorted(members, key=lambda t: t.sort_key())
    parts = []
    i = 0
    while i < len(members):
        j = i
        while j < len(members) and members[j] == members[i]:
            j += 1
        count = j - i
        parts.append((str(count) if count > 1 else "") + members[i].name)
        i = j
    return "".join(parts)


# --------------------------------------------------------------------------
# Imported classification data
# --------------------------------------------------------------------------

def _load_list(filename: str) -> tuple[tuple[SingularityType, ...], ...]:
    text = (resources.files(__package__) / "data" / filename).read_text()
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_multiset(line))
    return tuple(out)


_LIST_FILES = {"GORENSTEIN_K_NONTRIVIAL": "gorenstein_k_nontrivial.txt",
               "GORENSTEIN_K_TRIVIAL": "gorenstein_k_trivial.txt",
               "LOG_DEL_PEZZO_INDEX2_18": "log_del_pezzo_index2.txt",
               "REALIZABLE_INDEX1_7": "realizable_index1.txt",
               "REALIZABLE_INDEX2_4": "realizable_index2.txt",
               "REALIZABLE_INDEX3_16": "realizable_index3.txt"}


def __getattr__(name):
    """Each imported list, parsed on first use and then kept as a module global."""
    if name == "GORENSTEIN_58":
        value = __getattr__("GORENSTEIN_K_NONTRIVIAL") + __getattr__("GORENSTEIN_K_TRIVIAL")
    elif name in _LIST_FILES:
        value = _load_list(_LIST_FILES[name])
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
