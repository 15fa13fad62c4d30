"""Singularity configurations and obstruction verdicts.

A configuration is the multiset of quotient singularities hypothetically
carried by a rational homology projective plane with H_1(smooth locus) = 0.
Its derived invariants (number of exceptional curves, canonical square,
determinant product, orbifold Euler characteristic) feed every screening
filter.  Filters report ObstructionVerdict records whose evidence payload can
be re-checked without re-running the originating search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce

from . import catalog
from .catalog import SingularityType

__all__ = ["Outcome", "ObstructionVerdict", "Configuration"]


class Outcome(Enum):
    PASS = "PASS"
    OBSTRUCTED = "OBSTRUCTED"
    NOT_APPLICABLE = "NOT_APPLICABLE"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of one screening filter applied to one configuration.

    ``evidence`` is a JSON-serializable payload (fractions appear as strings)
    sufficient to re-verify an OBSTRUCTED or PASS outcome standalone.
    """
    filter: str
    outcome: Outcome
    evidence: dict = field(default_factory=dict, compare=False)
    note: str = ""

    @property
    def obstructed(self) -> bool:
        return self.outcome is Outcome.OBSTRUCTED

    def to_json(self) -> dict:
        out = {"filter": self.filter, "outcome": self.outcome.value, "evidence": self.evidence}
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class Configuration:
    """A multiset of singularity types with derived global invariants."""
    members: tuple[SingularityType, ...]

    @classmethod
    def of(cls, members) -> "Configuration":
        ms = tuple(sorted(members, key=lambda t: t.sort_key()))
        if not ms:
            raise ValueError("a configuration needs at least one singularity")
        return cls(ms)

    @classmethod
    def from_tokens(cls, line: str) -> "Configuration":
        return cls.of(catalog.parse_multiset(line))

    @property
    def name(self) -> str:
        return catalog.format_multiset(self.members)

    @cached_property
    def L(self) -> int:
        """Total number of exceptional curves in the minimal resolution."""
        return sum(t.curve_count for t in self.members)

    @cached_property
    def index(self) -> int:
        return reduce(math.lcm, (t.index for t in self.members), 1)

    @cached_property
    def K2(self) -> Fraction:
        """Canonical square: 9 - L minus the per-singularity corrections."""
        return Fraction(9) - self.L + sum((-t.dp_square for t in self.members), Fraction(0))

    @cached_property
    def h1_product(self) -> int:
        out = 1
        for t in self.members:
            out *= t.det_r
        return out

    @cached_property
    def D(self) -> Fraction:
        """K^2 times the product of the link homology orders."""
        return self.K2 * self.h1_product

    @cached_property
    def e_orb(self) -> Fraction | None:
        """Orbifold Euler characteristic; None when a local group order is
        not tabulated (non-cyclic index-three species)."""
        total = Fraction(3)
        for t in self.members:
            if t.group_order is None:
                return None
            total -= 1 - Fraction(1, t.group_order)
        return total

    def dets_pairwise_coprime(self) -> bool:
        dets = [t.det_r for t in self.members]
        return all(math.gcd(a, b) == 1
                   for i, a in enumerate(dets) for b in dets[i + 1:])

    def key(self) -> tuple:
        """Hashable multiset identity, independent of formatting."""
        return tuple(sorted((t.species, t.n) for t in self.members))

    def __str__(self):
        return self.name
