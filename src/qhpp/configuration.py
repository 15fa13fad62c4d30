"""Singularity configurations, obstruction verdicts and the search budget.

A configuration is the multiset of quotient singularities hypothetically
carried by a rational homology projective plane with H_1(smooth locus) = 0.
Its derived invariants (number of exceptional curves, canonical square,
determinant product, orbifold Euler characteristic) feed every screening
filter.  Filters report ObstructionVerdict records whose evidence payload can
be re-checked without re-running the originating search.  The extension
budget of the embedding search is defined here, with the other names every
command loads, so that reading its default loads no search code.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import groupby
from typing import NamedTuple

from . import catalog, exact
from .catalog import SingularityType

DEFAULT_BUDGET = 10_000_000


class ResourceBudgetExceeded(RuntimeError):
    """The embedding search exceeded its extension budget."""


class Outcome(Enum):
    PASS = "PASS"
    OBSTRUCTED = "OBSTRUCTED"
    NOT_APPLICABLE = "NOT_APPLICABLE"

    def __str__(self):
        return self.value


class ObstructionVerdict(NamedTuple):
    """Outcome of one screening filter applied to one configuration.

    ``evidence`` is a JSON-serializable payload (fractions appear as strings)
    sufficient to re-verify an OBSTRUCTED or PASS outcome standalone, kept
    as given.
    """
    filter: str
    outcome: Outcome
    evidence: dict
    note: str = ""

    @property
    def obstructed(self) -> bool:
        return self.outcome is Outcome.OBSTRUCTED

    def to_json(self) -> dict:
        out = {"filter": self.filter, "outcome": self.outcome.value, "evidence": self.evidence}
        if self.note:
            out["note"] = self.note
        return out


class _memo:
    """``functools.cached_property`` without its lock: the first read stores
    the value in the instance ``__dict__``, where later reads find it before
    this non-data descriptor, as Python 3.12's version does.  The lock of
    3.11's version more than doubles the cost of a first read, and replay
    first-reads several invariants of every configuration it parses."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class _ConfigurationFields(NamedTuple):
    members: tuple[SingularityType, ...]


class Configuration(_ConfigurationFields):
    """A multiset of singularity types, sorted by ``SingularityType.sort_key``
    when built, so equal multisets are equal configurations; derived
    invariants are cached in the instance ``__dict__`` (no ``__slots__``)."""

    def __new__(cls, members) -> "Configuration":
        ms = tuple(sorted(members, key=SingularityType.sort_key))
        if not ms:
            raise ValueError("a configuration needs at least one singularity")
        return super().__new__(cls, ms)

    @classmethod
    def from_tokens(cls, line: str) -> "Configuration":
        return cls(map(catalog.parse_token, line.split()))

    @property
    def name(self) -> str:
        """Compact display name: members grouped with multiplicity prefixes."""
        counts = ((t, sum(1 for _ in run)) for t, run in groupby(self.members))
        return "".join((str(n) if n > 1 else "") + t.name for t, n in counts)

    @_memo
    def L(self) -> int:
        """Total number of exceptional curves in the minimal resolution."""
        return sum(t.n for t in self.members)

    @_memo
    def index(self) -> int:
        return reduce(math.lcm, (t.index for t in self.members), 1)

    @_memo
    def K2_pair(self) -> tuple[int, int]:
        """K^2 = 9 - L minus the corrections, over one denominator; ``K2`` is its Fraction."""
        for t in self.members:
            if t.dp_square is None:
                raise ValueError(f"dp_square is not defined for {t.name}")
        squares = [t.dp_square for t in self.members]
        den = math.lcm(*(s.denominator for s in squares))
        num = sum(s.numerator * (den // s.denominator) for s in squares)
        return (9 - self.L) * den - num, den

    @_memo
    def K2(self) -> Fraction:
        return Fraction(*self.K2_pair)

    @_memo
    def h1_product(self) -> int:
        return math.prod(t.det_r for t in self.members)

    @_memo
    def D(self) -> int:
        """K^2 times the product of the link homology orders: an integer, as
        every correction with denominator 3 belongs to a determinant divisible by 3."""
        num, den = self.K2_pair
        d, rest = divmod(top := num * self.h1_product, den)
        if rest:
            raise ValueError(f"D = {exact.ratio_str(top, den)} of {self.name} is not an integer")
        return d

    @_memo
    def e_orb_pair(self) -> tuple[int, int] | None:
        """Orbifold Euler number 3 - sum(1 - 1/|G|) over one denominator (``e_orb``: its
        Fraction); None when a group order is untabulated (non-cyclic index-three species)."""
        orders = [t.group_order for t in self.members]
        if None in orders:
            return None
        den = math.lcm(*orders)
        return (3 - len(orders)) * den + sum(den // g for g in orders), den

    @_memo
    def e_orb(self) -> Fraction | None:
        return None if self.e_orb_pair is None else Fraction(*self.e_orb_pair)

    @_memo
    def shared_factor(self) -> tuple[int, int, int] | None:
        """``exact.first_shared_factor`` of the members' determinants."""
        return exact.first_shared_factor([t.det_r for t in self.members])
