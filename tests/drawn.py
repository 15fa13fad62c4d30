"""Configurations drawn from every species, shared by the replay test and
the spin-sum oracle test: 1-3 members, each from its species' least n up to
7 past it (or to its greatest), 69 members in all."""

from hypothesis import strategies as st

from qhpp import catalog


@st.composite
def _near_least_member(draw):
    species = draw(st.sampled_from(sorted(catalog.SPECIES)))
    _, least, greatest, _ = catalog.SPECIES[species]
    top = least + 7 if greatest is None else min(least + 7, greatest)
    return catalog.lookup(species, draw(st.integers(least, top)))


MEMBERS = st.lists(_near_least_member(), min_size=1, max_size=3)

# 2A10(1,1)K6 exhausts the embedding search at budget 200,000.
BUDGET_EXHAUSTING = [catalog.lookup("A(1,1)", 10), catalog.lookup("A(1,1)", 10),
                     catalog.lookup("K", 6)]
