"""Candidate enumeration and the full screening pipeline.

For each index the engine first enumerates every singularity configuration
allowed by the elementary constraints (imported Gorenstein classification,
pairwise coprimality of the link homology orders, cyclic link homology,
positivity of the canonical square, the five-singularity bound), then runs
the obstruction filters of the ``FILTERS`` table in its order:

    cyclic_h1, arithmetic (square D), bmy, donaldson, linking_form, spin_sum

Every filter is an independent predicate of the configuration and the search
budget, so the surviving set does not depend on the order of application.
A configuration survives when no filter reports OBSTRUCTED.  All but
``donaldson`` search nothing and replay a verdict by running again.  Each
call looks its filter up on the filter's module.  The modules of the last
three filters (``lattice``, ``linking`` and ``floer``) load once, when such
a filter first runs, so enumerating candidates loads none of them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

from . import catalog, exact
from .catalog import SingularityType
from .configuration import DEFAULT_BUDGET, Configuration, ObstructionVerdict, Outcome

# The non-Gorenstein families as (case, species): the K family of index two
# (case None), then the six index-three cases.  Case 4 pools the A1(2)
# species with the A(2,2) family: both carry the same canonical-square
# correction.  No member has more than 11 curves, as L < 9 - dp_square <=
# 9 + 8/3.
_FAMILIES = ((None, "K"), (1, "A(1)"), (2, "A(1,1)"), (3, "A(1,2)"),
             (4, "A(2)"), (4, "A(2,2)"), (5, "D(1)"), (6, "D(2)"))
_MAX_BASE_CURVES = 11
_CASE_OF_SPECIES = {species: case for case, species in _FAMILIES}


def _cyclic_members(species: str, curve_bound: int) -> list[SingularityType]:
    """The members of a species with at most ``curve_bound`` curves (member
    n has n) whose link has cyclic H_1, which the boundary cyclicity
    constraint requires: this drops D_n, D_n(1) and D_n(2) with even n."""
    _, least, greatest, _ = catalog.SPECIES[species]
    top = curve_bound if greatest is None else min(greatest, curve_bound)
    members = (catalog.lookup(species, n) for n in range(least, top + 1))
    return [t for t in members if t.h1_kind == "cyclic"]


@lru_cache(maxsize=None)
def _gorenstein_pool(curve_budget: int) -> tuple[SingularityType, ...]:
    """Rational double points with cyclic link homology fitting the budget,
    built once per budget."""
    return tuple(t for species in "ADE" for t in _cyclic_members(species, curve_budget))


def _extend_base(base: SingularityType, curve_budget: int, modulus: int) -> list[Configuration]:
    """All configurations {base} + Gorenstein extras within the curve budget.

    Extras are pairwise coprime in det; against the base they are coprime
    at the primes that divide ``modulus``, or at every prime when it is 0.
    At most four singularities in total: a configuration with five is
    Gorenstein (type 2A3 3A1), which no non-Gorenstein base matches.
    """
    pool = [t for t in _gorenstein_pool(curve_budget)
            if math.gcd(base.det_r, t.det_r, modulus) == 1]
    out = []
    for size in range(0, 4):
        for extras in combinations_with_replacement(pool, size):
            if sum(t.n for t in extras) > curve_budget:
                continue
            if exact.first_shared_factor([t.det_r for t in extras]) is not None:
                continue
            out.append(Configuration((base,) + extras))
    return out


def _sorted_configs(configs) -> tuple[Configuration, ...]:
    # Ties go by the sorted (species, n) pairs, not by sort_key order, which
    # would reorder the index-2 and index-3 candidates that the output lists.
    return tuple(sorted(configs, key=lambda c: (
        c.members[0].sort_key(), c.L, sorted((t.species, t.n) for t in c.members))))


def enumerate_candidates(index: int) -> tuple[Configuration, ...]:
    """All candidate configurations of the given index for a rational
    homology projective plane whose smooth locus has trivial H_1."""
    if index == 1:
        # Numerically trivial K is excluded when H_1 of the smooth locus
        # vanishes, so only the 27 imported types with K nontrivial remain;
        # keep those with pairwise coprime determinants.
        configs = map(Configuration, catalog.imported("gorenstein_k_nontrivial"))
        return _sorted_configs(c for c in configs if c.shared_factor is None)
    if index not in (2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {index}")
    # Index two has exactly one K: two K's have determinants 4n and 4m with
    # common factor 4.  Each index-three case is sorted on its own.
    cases: dict[int | None, list[Configuration]] = {}
    for case, species in _FAMILIES:
        if (case is None) != (index == 2):  # a family of the other index
            continue
        # Case-4 generation screens coprimality against the index-three
        # member only at the primes 2 and 3; overlaps at larger primes stay
        # in the candidate table and fall to the arithmetic or
        # diagonalization filters.
        modulus = 6 if case == 4 else 0
        out = cases.setdefault(case, [])
        for base in _cyclic_members(species, _MAX_BASE_CURVES):
            lmax = math.ceil(9 - base.dp_square) - 1  # the largest L with 9 - L - dp > 0
            if base.n <= lmax:
                out.extend(_extend_base(base, lmax - base.n, modulus))
    return tuple(c for configs in cases.values() for c in _sorted_configs(configs))


def index3_case(config: Configuration) -> int:
    """Which of the six index-three case families a candidate belongs to."""
    case = _CASE_OF_SPECIES.get(config.members[0].species)
    if case is None:
        raise ValueError(f"{config.name} has no index-three member")
    return case


def enumerate_index3_case(case: int) -> tuple[Configuration, ...]:
    return tuple(c for c in enumerate_candidates(3) if index3_case(c) == case)


# --------------------------------------------------------------------------
# Filters
# --------------------------------------------------------------------------

def cyclic_h1_filter(config: Configuration) -> ObstructionVerdict:
    """H_1 of the boundary must be cyclic: every link's H_1 cyclic and the
    orders pairwise coprime."""
    name = "cyclic_h1"
    non_cyclic = [t for t in config.members if t.h1_kind != "cyclic"]
    if non_cyclic:
        return ObstructionVerdict(
            name, Outcome.OBSTRUCTED,
            {"non_cyclic": [t.name for t in non_cyclic],
             "h1": {t.name: t.h1_kind for t in non_cyclic}},
            note="link homology is not cyclic",
        )
    if config.shared_factor is not None:
        i, j, g = config.shared_factor
        a, b = config.members[i].name, config.members[j].name
        return ObstructionVerdict(
            name, Outcome.OBSTRUCTED, {"non_coprime": [a, b], "gcd": g},
            note=f"|H1| of {a} and {b} share the factor {g}",
        )
    return ObstructionVerdict(name, Outcome.PASS, {"h1_product": config.h1_product})


def arithmetic_filter(config: Configuration) -> ObstructionVerdict:
    """K^2 times the product of link homology orders must be a nonzero
    perfect square."""
    name = "arithmetic"
    unknown = [t.name for t in config.members if t.dp_square is None]
    if unknown:
        return ObstructionVerdict(name, Outcome.NOT_APPLICABLE, {"unknown_dp_square": unknown},
                                  note="canonical-square correction unavailable")
    d = config.D
    evidence = {"K2": exact.ratio_str(*config.K2_pair), "D": str(d)}
    if d <= 0:
        return ObstructionVerdict(name, Outcome.OBSTRUCTED, evidence,
                                  note="D is not positive")
    evidence["factorization"] = exact.factor_string(d)
    if not exact.is_perfect_square(d):
        return ObstructionVerdict(name, Outcome.OBSTRUCTED, evidence,
                                  note=f"D = {evidence['factorization']} is not a square")
    evidence["sqrt"] = math.isqrt(d)
    return ObstructionVerdict(name, Outcome.PASS, evidence)


def bmy_filter(config: Configuration) -> ObstructionVerdict:
    """Orbifold Bogomolov-Miyaoka-Yau test, K^2 <= 3 e_orb.

    Only applies when the canonical class is known to be ample, i.e. when
    K^2 > 0 and imported classification data rules out an anti-ample
    canonical class.  Such data exists for index two only: the index-two
    log del Pezzo list.
    """
    name = "bmy"
    if config.index != 2:
        return ObstructionVerdict(
            name, Outcome.NOT_APPLICABLE, {},
            note="no imported data constrains the sign of the canonical class")
    if config in _index2_log_del_pezzo():
        return ObstructionVerdict(
            name, Outcome.PASS, {"anti_ample_possible": True},
            note="an anti-ample canonical class is not excluded")
    (k2, k2_den), (e, e_den) = config.K2_pair, config.e_orb_pair  # index 2: group orders known
    evidence = {"K2": exact.ratio_str(k2, k2_den), "three_e_orb": exact.ratio_str(3 * e, e_den)}
    if k2 * e_den > 3 * e * k2_den:
        return ObstructionVerdict(
            name, Outcome.OBSTRUCTED, evidence,
            note=f"K^2 = {evidence['K2']} exceeds 3 e_orb = {evidence['three_e_orb']} with K ample")
    return ObstructionVerdict(name, Outcome.PASS, evidence)


@lru_cache(maxsize=None)
def _index2_log_del_pezzo() -> frozenset:
    return frozenset(map(Configuration, catalog.imported("log_del_pezzo_index2")))


@lru_cache(maxsize=None)
def _module(name: str):
    """The module ``qhpp.<name>``, imported on the first request only, by the
    builtin that an import statement calls (so ``-X importtime`` lists it)."""
    return getattr(__import__(__package__, fromlist=(name,)), name)


# --------------------------------------------------------------------------
# The filter table
# --------------------------------------------------------------------------

class Filter(NamedTuple):
    """One screening filter.  ``run(config, budget)`` gives its verdict;
    ``rebuild(config, evidence)`` gives it again from saved evidence,
    searching nothing (``_reruns`` fills both with one function), and may
    raise on malformed evidence (``replay_verdict`` reads that as a failure)."""
    name: str
    run: Callable[[Configuration, int], ObstructionVerdict]
    rebuild: Callable[[Configuration, object], ObstructionVerdict]


def _reruns(name: str, run: Callable[[Configuration, object], ObstructionVerdict]) -> Filter:
    return Filter(name, run, run)


# Each function looks its filter up on the filter's module when called, not
# at import, so a filter replaced there (say, by a tracing wrapper) is the one
# that runs.
FILTERS = (
    _reruns("cyclic_h1", lambda config, _: cyclic_h1_filter(config)),
    _reruns("arithmetic", lambda config, _: arithmetic_filter(config)),
    _reruns("bmy", lambda config, _: bmy_filter(config)),
    Filter("donaldson",
           lambda config, budget: _module("lattice").donaldson_obstruction(config, budget),
           lambda config, evidence: _module("lattice").rebuild_donaldson(config, evidence)),
    _reruns("linking_form", lambda config, _: _module("linking").linking_obstruction(config)),
    _reruns("spin_sum", lambda config, _: _module("floer").spin_sum_obstruction(config)),
)
_FILTERS_BY_NAME = {f.name: f for f in FILTERS}


# --------------------------------------------------------------------------
# Classification
# --------------------------------------------------------------------------

class CandidateReport(NamedTuple):
    config: Configuration
    verdicts: tuple[ObstructionVerdict, ...]

    @property
    def survived(self) -> bool:
        return not any(v.obstructed for v in self.verdicts)

    def verdict(self, filter_name: str) -> ObstructionVerdict:
        return next(v for v in self.verdicts if v.filter == filter_name)


class ClassificationReport(NamedTuple):
    """The screened candidates of one index."""
    index: int
    candidates: tuple[CandidateReport, ...]
    realizable: tuple[Configuration, ...]

    @property
    def survivors(self) -> tuple[CandidateReport, ...]:
        return tuple(r for r in self.candidates if r.survived)

    def is_realizable(self, config: Configuration) -> bool:
        return config in self.realizable

    @property
    def unmarked_survivors(self) -> tuple[Configuration, ...]:
        """Survivors with no imported realization: open cases."""
        return tuple(r.config for r in self.survivors if not self.is_realizable(r.config))

    @property
    def cross_checks(self) -> dict:
        survivors = {r.config for r in self.survivors}
        missing = [c.name for c in self.realizable if c not in survivors]
        return {
            "every_realizable_type_survives": not missing,
            "missing_realizable": missing,
            "survivors": [r.config.name for r in self.survivors],
            "unmarked_survivors": [c.name for c in self.unmarked_survivors],
        }


def screen(config: Configuration,
           budget: int = DEFAULT_BUDGET) -> tuple[ObstructionVerdict, ...]:
    """Run the full ordered filter chain on one configuration."""
    return tuple(f.run(config, budget) for f in FILTERS)


def classify(index: int, budget: int = DEFAULT_BUDGET) -> ClassificationReport:
    """Screen every candidate of the given index and assemble the report."""
    reports = tuple(CandidateReport(config, screen(config, budget))
                    for config in enumerate_candidates(index))
    return ClassificationReport(index, reports, realizable(index))


def realizable(index: int) -> tuple[Configuration, ...]:
    """The configurations of the imported realizable list of one index."""
    return tuple(map(Configuration, catalog.imported(f"realizable_index{index}")))


def replay_verdict(config: Configuration, verdict: ObstructionVerdict) -> bool:
    """Re-derive a saved verdict from the configuration, searching nothing:
    rebuild it from its evidence and require the saved outcome and evidence.

    False when the filter is unknown, the evidence is malformed, or the
    outcome or evidence does not follow; never raises on such input.
    """
    try:
        fresh = _FILTERS_BY_NAME[verdict.filter].rebuild(config, verdict.evidence)
        return fresh.outcome is verdict.outcome and fresh.evidence == verdict.evidence
    except (KeyError, TypeError, ValueError, IndexError):
        return False
