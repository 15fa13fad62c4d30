"""Derived invariants of a configuration against naive Fraction formulas,
summed one term at a time from the species records' fields."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhpp import catalog
from qhpp.configuration import Configuration


@st.composite
def _member(draw):
    """A member of any species, n from its least to its greatest (or 12 past
    the least)."""
    species = draw(st.sampled_from(sorted(catalog.SPECIES)))
    _, least, greatest, _ = catalog.SPECIES[species]
    return catalog.lookup(species, draw(st.integers(least, least + 12 if greatest is None else greatest)))


def _naive_K2(members):
    total = Fraction(9)
    for t in members:
        total -= t.n
        total -= t.dp_square
    return total


def _naive_e_orb(members):
    total = Fraction(3)
    for t in members:
        total -= 1 - Fraction(1, t.group_order)
    return total


@settings(max_examples=300, deadline=None)
@given(st.lists(_member(), min_size=1, max_size=4))
def test_derived_invariants_match_naive_fraction_sums(members):
    config = Configuration(members)
    # Members in any order give one configuration: the constructor sorts them.
    assert Configuration.from_tokens(" ".join(t.name for t in members)).members == config.members
    if any(t.dp_square is None for t in members):
        for name in ("K2", "D"):
            with pytest.raises(ValueError):
                getattr(config, name)
    else:
        K2 = _naive_K2(members)
        assert type(config.K2) is Fraction and config.K2 == K2
        assert type(config.D) is int and config.D == K2 * math.prod(t.det_r for t in members)
    if any(t.group_order is None for t in members):
        assert config.e_orb is None
    else:
        assert type(config.e_orb) is Fraction and config.e_orb == _naive_e_orb(members)


def test_derived_invariants_known_values():
    config = Configuration.from_tokens("A2(1,2) E8")
    assert (config.K2, config.D, config.e_orb) == (1, 9, 1 + Fraction(1, 9) + Fraction(1, 120))
    config = Configuration.from_tokens("A1(1) A1(2) K3")
    assert config.K2 == 9 - 5 + Fraction(1, 3) + Fraction(8, 3) + 1
    with pytest.raises(ValueError):
        Configuration.from_tokens("D4(1) A1").K2
    assert Configuration.from_tokens("D5(2) A1").e_orb is None


def test_empty_configuration_is_refused():
    with pytest.raises(ValueError, match="at least one singularity"):
        Configuration([])


def test_name_compact_style():
    # Members grouped in sort order, with multiplicity prefixes.
    assert Configuration.from_tokens("A3 A1 A3 A1 A1").name == "2A33A1"
    assert Configuration.from_tokens("E8 A1(1)").name == "A1(1)E8"
    assert Configuration.from_tokens("A7 K1 K1").name == "2K1A7"
