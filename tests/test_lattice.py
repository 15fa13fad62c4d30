import contextlib
import itertools
import json
import math
import time
import tracemalloc
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhpp import catalog, lattice
from qhpp.configuration import Configuration, Outcome


@contextlib.contextmanager
def _bare_search():
    """The search without the rational test in front of it, which refutes
    some corank-one instances before any search: the search alone must still
    find no orbit there, and its spend is locked on them too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_rationally_embeds", lambda chains: True)
        yield


@pytest.fixture
def bare_search():
    with _bare_search():
        yield


def test_plumbing_for_reversed_link():
    assert lattice.plumbing_for_reversed_link(catalog.lookup("A", 8)) == (-9,)
    assert lattice.plumbing_for_reversed_link(catalog.lookup("K", 9)) == (-2, -10, -2)
    assert lattice.plumbing_for_reversed_link(catalog.lookup("A(2,2)", 2)) == \
        (-2, -2, -3, -2, -2)
    assert lattice.plumbing_for_reversed_link(catalog.lookup("K", 1)) == (-2, -2, -2)
    with pytest.raises(ValueError):
        lattice.plumbing_for_reversed_link(catalog.lookup("E", 8))


# The twelve lattice-embedding instances analyzed case by case: expected
# orbit counts and complement-square multisets.
EMBEDDING_INSTANCES = [
    ("X(9,1) in rank 2", [[-9]], 2, [-1]),
    ("X(8,1) in rank 2", [[-8]], 2, [-2]),
    ("X(36,19) in rank 4", [[-2, -10, -2]], 4, [-4, -1]),
    ("X(32,17) in rank 4", [[-2, -9, -2]], 4, [-2]),
    ("X(4,3)+X(9,1) in rank 5", [[-2, -2, -2], [-9]], 5, [-4, -1]),
    ("X(9,4)+X(8,1) in rank 6", [[-3, -2, -2, -2], [-8]], 6, [-18, -2]),
    ("X(9,4) in rank 5", [[-3, -2, -2, -2]], 5, [-1]),
    ("X(18,7) in rank 5", [[-3, -3, -2, -2]], 5, [-2]),
    ("X(45,16) in rank 5", [[-3, -6, -2, -2]], 5, [-5]),
    ("X(72,25) in rank 5", [[-3, -9, -2, -2]], 5, [-2]),
    ("X(81,28) in rank 5", [[-3, -10, -2, -2]], 5, [-1]),
    ("X(15,11)+X(10,1) in rank 7", [[-2, -2, -3, -2, -2], [-10]], 7, [-6, -6]),
    ("X(42,29)+X(7,1) in rank 7", [[-2, -2, -6, -2, -2], [-7]], 7, [-6, -6]),
    ("X(96,65) in rank 6", [[-2, -2, -12, -2, -2]], 6, [-6]),
]


@pytest.mark.parametrize("name,chains,rank,squares", EMBEDDING_INSTANCES,
                         ids=[c[0] for c in EMBEDDING_INSTANCES])
def test_embedding_instances(name, chains, rank, squares):
    embeddings = lattice.enumerate_embeddings(chains, rank)
    assert len(embeddings) == len(squares)
    got = sorted(lattice.complement_witness(e).square for e in embeddings)
    assert got == sorted(squares)


def _gram(vectors):
    """The Gram matrix of the vectors in -Z^N."""
    return [[-sum(map(mul, a, b)) for b in vectors] for a in vectors]


def _comprehension_chain_gram(chains):
    """The plumbing Gram matrix built entry by entry from (chain, position,
    weight) triples."""
    verts = [(ci, pi, w) for ci, chain in enumerate(chains) for pi, w in enumerate(chain)]
    return [[wi if i == j else int(ci == cj and abs(pi - pj) == 1)
             for j, (cj, pj, _) in enumerate(verts)]
            for i, (ci, pi, wi) in enumerate(verts)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-30, -2), min_size=1, max_size=6), min_size=1, max_size=4))
def test_chain_gram_matches_the_comprehension(chains):
    gram = lattice.chain_gram(chains)
    assert gram == _comprehension_chain_gram(chains)
    # Rows are distinct lists, so a caller may write to one row alone.
    assert len({id(row) for row in gram}) == len(gram)


def test_gram_constraints_hold_post_hoc():
    for _, chains, rank, _ in EMBEDDING_INSTANCES:
        verts = [(ci, pi, w) for ci, ch in enumerate(chains) for pi, w in enumerate(ch)]
        for emb in lattice.enumerate_embeddings(chains, rank):
            gram = _gram(emb.vectors)
            assert gram == lattice.chain_gram(chains)
            for i, (ci, pi, wi) in enumerate(verts):
                for j, (cj, pj, wj) in enumerate(verts):
                    if i == j:
                        expected = wi
                    elif ci == cj and abs(pi - pj) == 1:
                        expected = 1
                    else:
                        expected = 0
                    assert gram[i][j] == expected


def _realizes_by_nested_loops(rows, gram):
    """The lower triangle of ``gram`` against minus the dot products, one
    entry at a time."""
    if len(rows) != len(gram):
        return False
    for i in range(len(rows)):
        for j in range(i + 1):
            dot = 0
            for x, y in zip(rows[i], rows[j]):
                dot += x * y
            if gram[i][j] != -dot:
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rank: st.lists(
    st.lists(st.integers(-3, 3), min_size=rank, max_size=rank), min_size=1, max_size=6)))
@example([[1, 1], [1, 0]])
def test_realizes_matches_a_nested_loop_oracle(rows):
    # The rows' own Gram matrix, every one-entry edit of it (an edit above the
    # diagonal is not read), and the matrix without its last row.
    gram = _gram(rows)
    edits = [gram, gram[:-1]]
    for i, j in itertools.product(range(len(rows)), repeat=2):
        edited = [row[:] for row in gram]
        edited[i][j] += 1
        edits.append(edited)
    for g in edits:
        assert lattice._realizes(rows, g) is _realizes_by_nested_loops(rows, g), (rows, g)
    assert lattice._realizes(rows, gram)


def test_complement_witness_properties():
    for _, chains, rank, _ in EMBEDDING_INSTANCES:
        nverts = sum(len(c) for c in chains)
        det_plumb = abs(_chain_det(chains))
        for emb in lattice.enumerate_embeddings(chains, rank):
            wit = lattice.complement_witness(emb)
            g = 0
            for x in wit.generator:
                g = _gcd(g, x)
            assert g == 1  # primitive
            for v in emb.vectors:
                assert sum(a * b for a, b in zip(wit.generator, v)) == 0
            assert wit.square < 0
            # det Gram(embedding + complement) = det(plumbing) * square;
            # its absolute value is the squared index of the full sublattice.
            index_squared = det_plumb * abs(wit.square)
            assert math.isqrt(index_squared) ** 2 == index_squared
        assert nverts == rank - 1


def _gcd(a, b):
    import math
    return math.gcd(a, abs(b))


def _chain_det(chains):
    det = 1
    for chain in chains:
        d_prev, d = 1, chain[0]
        for w in chain[1:]:
            d_prev, d = d, w * d - d_prev
        det *= d
    return det


def test_complement_witness_a8_is_unit_vector():
    emb, = lattice.enumerate_embeddings([[-9]], 2)
    wit = lattice.complement_witness(emb)
    assert sorted(abs(x) for x in wit.generator) == [0, 1]
    assert wit.square == -1


def test_complement_requires_corank_one():
    emb, = lattice.enumerate_embeddings([[-9]], 2)
    padded = lattice.PlumbingEmbedding(
        tuple(v + (0,) for v in emb.vectors), 3)
    with pytest.raises(ValueError):
        lattice.complement_witness(padded)


def test_complement_rejects_dependent_vectors():
    twice = lattice.PlumbingEmbedding(((1, -1, 0), (1, -1, 0)), 3)
    with pytest.raises(ValueError, match="linearly dependent"):
        lattice.complement_witness(twice)


# ---------------------------------------------------------------------------
# Brute-force oracle: full assignment enumeration plus explicit orbit
# partition under the signed-permutation group, with its own canonical form.
# ---------------------------------------------------------------------------

from lattice_oracle import act as _act
from lattice_oracle import brute_force_orbits as _brute_force_orbits
from lattice_oracle import complement_generator as _complement_generator
from lattice_oracle import orbit_min as _orbit_min
from lattice_oracle import signed_permutations as _signed_permutations

ORACLE_INSTANCES = [
    ([[-9]], 2), ([[-8]], 2), ([[-5]], 2), ([[-2]], 2), ([[-4]], 2),
    ([[-2, -2]], 3), ([[-3], [-2]], 3), ([[-2, -2, -2]], 4),
    ([[-2, -10, -2]], 4), ([[-2, -9, -2]], 4), ([[-2, -6, -2]], 4),
    ([[-3, -5, -3]], 4), ([[-3, -9, -3]], 4), ([[-2, -3, -2], [-3]], 4),
    ([[-4], [-4]], 3), ([[-2], [-2], [-2]], 4), ([[-6, -2]], 3),
    ([[-3, -3]], 4), ([[-2, -2], [-7]], 4), ([[-5], [-2]], 4),
]


@pytest.mark.parametrize("chains,rank", ORACLE_INSTANCES,
                         ids=[str(c) for c, _ in ORACLE_INSTANCES])
def test_enumerator_matches_brute_force_oracle(chains, rank):
    oracle = _brute_force_orbits(chains, rank)
    fast = {_orbit_min(e.vectors, rank)
            for e in lattice.enumerate_embeddings(chains, rank)}
    assert fast == oracle


@st.composite
def _small_matrices(draw):
    """Up to 4 x 4 integer matrices with entries in -2..2, some columns zero."""
    rank = draw(st.integers(1, 4))
    zero = draw(st.sets(st.integers(0, rank - 1)))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                         min_size=1, max_size=4))
    return tuple(tuple(0 if c in zero else x for c, x in enumerate(row)) for row in rows), rank


@settings(max_examples=150, deadline=None)
@given(_small_matrices(), _small_matrices())
@example((((1, 0),), 2), (((1,),), 1))  # the zero column must come last
def test_canonical_form_matches_the_orbit_minimum(matrix, other):
    rows, rank = matrix
    form = lattice.canonical_form(rows)
    # The form lies in the orbit and is the same for every matrix of it, so
    # two matrices share it exactly when they share the orbit minimum.
    assert _orbit_min(form, rank) == _orbit_min(rows, rank)
    assert _column_key(form, rank) == _column_key(rows, rank)
    assert {lattice.canonical_form(_act(g, rows)) for g in _signed_permutations(rank)} == {form}
    other, other_rank = other
    if other_rank == rank and len(other) == len(rows):
        assert (lattice.canonical_form(other) == form) == \
            (_orbit_min(other, rank) == _orbit_min(rows, rank))
    # Zero columns sort last, so the used coordinates are a prefix.
    used = sum(any(col) for col in zip(*rows))
    assert not any(x for row in form for x in row[used:])


@st.composite
def _chains_in_small_rank(draw):
    rank = draw(st.integers(3, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    assume(sum(sizes) <= rank)
    chains = [draw(st.lists(st.integers(-10, -2), min_size=n, max_size=n)) for n in sizes]
    return chains, rank


def _assert_matches_brute_force(chains, rank):
    fast = [_orbit_min(e.vectors, rank) for e in lattice.enumerate_embeddings(chains, rank)]
    assert len(set(fast)) == len(fast)
    assert set(fast) == _brute_force_orbits(chains, rank)


@settings(max_examples=40, deadline=None)
@given(_chains_in_small_rank())
def test_random_chains_match_brute_force_oracle(instance):
    _assert_matches_brute_force(*instance)


@settings(max_examples=40, deadline=None)
@given(_chains_in_small_rank())
def test_random_chains_match_brute_force_oracle_on_the_bare_search(instance):
    with _bare_search():
        _assert_matches_brute_force(*instance)


# ---------------------------------------------------------------------------
# Naive oracle: vertices in input order, every vector of each norm tried, and
# partial assignments kept one per multiset of columns up to sign.  It reaches
# the ranks of the paper's searches and of the embedding benchmark pool.
# ---------------------------------------------------------------------------

from lattice_oracle import column_key as _column_key
from lattice_oracle import naive_orbits as _naive_orbits
from lattice_oracle import untrimmed_hasse_test as _untrimmed_hasse_test

POOL_FILE = Path(__file__).resolve().parents[1] / "bench" / "embed_pool.json"


def _assert_matches_naive(chains, rank, orbit_rows):
    keys = [_column_key(rows, rank) for rows in orbit_rows]
    naive = _naive_orbits(chains, rank)
    assert len(keys) == len(set(keys)) == len(naive)
    assert set(keys) == set(naive)


@pytest.mark.parametrize("index", [1, 2, 3])
def test_donaldson_orbits_match_naive_oracle(classified, index):
    searches = {}
    for report in classified(index).candidates:
        evidence = report.verdict("donaldson").evidence
        if "orbits" in evidence:
            key = (tuple(map(tuple, evidence["chains"])), evidence["ambient_rank"])
            searches[key] = [tuple(map(tuple, o["vectors"])) for o in evidence["orbits"]]
    for (chains, rank), orbit_rows in searches.items():
        _assert_matches_naive(chains, rank, orbit_rows)
    assert searches


def test_benchmark_pool_matches_naive_oracle():
    instances = json.loads(POOL_FILE.read_text())["instances"]
    assert len(instances) == 18
    for inst in instances:
        chains, rank = inst["chains"], inst["rank"]
        embeddings = lattice.enumerate_embeddings(chains, rank)
        assert len(embeddings) == inst["orbits"]
        _assert_matches_naive(chains, rank, [e.vectors for e in embeddings])


@st.composite
def _chains_in_rank_5_to_7(draw):
    rank = draw(st.integers(5, 7))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    assume(rank - 2 <= sum(sizes) <= rank)
    chains = [draw(st.lists(st.integers(-7, -2), min_size=n, max_size=n)) for n in sizes]
    return chains, rank


@settings(max_examples=25, deadline=None)
@given(_chains_in_rank_5_to_7())
def test_random_chains_match_naive_oracle(instance):
    chains, rank = instance
    _assert_matches_naive(chains, rank,
                          [e.vectors for e in lattice.enumerate_embeddings(chains, rank)])


@settings(max_examples=25, deadline=None)
@given(_chains_in_rank_5_to_7())
def test_random_chains_match_naive_oracle_on_the_bare_search(instance):
    chains, rank = instance
    with _bare_search():
        _assert_matches_naive(chains, rank,
                              [e.vectors for e in lattice.enumerate_embeddings(chains, rank)])


# Orbit counts above the paper's sizes, measured with an earlier, independent
# implementation of the search (a numpy scan of every vector of each norm).
RANK_8_TO_10_INSTANCES = [
    ([[-2, -2, -2, -2], [-10], [-2, -6, -2]], 9, 6),
    ([[-5, -2, -6, -2, -2, -2], [-2, -2], [-3]], 10, 4),
    ([[-2, -2, -2, -8, -2, -2, -2, -2, -2]], 10, 2),
    ([[-11, -2, -2, -2], [-2, -2, -3]], 8, 0),
    ([[-2, -2, -12, -2, -2], [-3, -3]], 8, 0),
]


@pytest.mark.parametrize("chains,rank,orbits", RANK_8_TO_10_INSTANCES,
                         ids=[str(c) for c, _, _ in RANK_8_TO_10_INSTANCES])
def test_rank_8_to_10_orbit_counts(chains, rank, orbits):
    embeddings = lattice.enumerate_embeddings(chains, rank)
    assert len(embeddings) == orbits
    gram = lattice.chain_gram(chains)
    assert all(_gram(e.vectors) == gram for e in embeddings)


def _donaldson_searches(classified):
    """The distinct (chains, ambient rank) of the Donaldson searches of
    indices 1-3."""
    searches = {}
    for index in (1, 2, 3):
        for report in classified(index).candidates:
            evidence = report.verdict("donaldson").evidence
            if "orbits" in evidence:
                searches[tuple(map(tuple, evidence["chains"])), evidence["ambient_rank"]] = None
    return list(searches)


def _witnesses_checked(searches):
    checked = 0
    for chains, rank in searches:
        for emb in lattice.enumerate_embeddings(chains, rank):
            assert lattice.complement_witness(emb).generator == \
                _complement_generator(emb.vectors, rank)
            checked += 1
    return checked


def test_complement_witness_matches_minor_oracle(classified):
    searches = [(c, r) for _, c, r, _ in EMBEDDING_INSTANCES]
    searches += [(c, r) for c, r, _ in RANK_8_TO_10_INSTANCES]
    assert _witnesses_checked(searches) == 31
    searches = _donaldson_searches(classified)
    assert len(searches) == 130 and _witnesses_checked(searches) == 127


@st.composite
def _corank_one_matrices(draw):
    """n x (n + 1) integer matrices, n <= 6, entries in -3..3; in half the
    draws no entry is +-1, so the first pivot is not a unit."""
    n = draw(st.integers(1, 6))
    entries = st.sampled_from((-3, -2, 0, 2, 3)) if draw(st.booleans()) else st.integers(-3, 3)
    return draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_corank_one_matrices())
@example([[2, 3, 0], [3, 2, 1]])  # the first pivot, 2, is not a unit
def test_complement_witness_matches_minor_oracle_on_random_matrices(rows):
    rank = len(rows) + 1
    want = _complement_generator(rows, rank)
    assume(want is not None)
    wit = lattice.complement_witness(lattice.PlumbingEmbedding(tuple(map(tuple, rows)), rank))
    assert wit == (want, -sum(x * x for x in want))


@settings(max_examples=200, deadline=None)
@given(_corank_one_matrices(), st.data())
def test_complement_witness_rejects_random_dependent_rows(rows, data):
    # One row replaced by an integer combination of the others (zero if
    # there are none) leaves the rows dependent.
    k = data.draw(st.integers(0, len(rows) - 1))
    others = rows[:k] + rows[k + 1:]
    factors = data.draw(st.lists(st.integers(-2, 2), min_size=len(others), max_size=len(others)))
    rows[k] = [sum(f * row[c] for f, row in zip(factors, others)) for c in range(len(rows) + 1)]
    assert _complement_generator(rows, len(rows) + 1) is None
    with pytest.raises(ValueError, match="linearly dependent"):
        lattice.complement_witness(
            lattice.PlumbingEmbedding(tuple(map(tuple, rows)), len(rows) + 1))


@pytest.mark.parametrize("index", [1, 2, 3])
def test_donaldson_complements_match_minor_oracle(classified, index):
    checked = 0
    for report in classified(index).candidates:
        evidence = report.verdict("donaldson").evidence
        for orbit in evidence.get("orbits", ()):
            assert tuple(orbit["complement"]) == \
                _complement_generator(orbit["vectors"], evidence["ambient_rank"])
            checked += 1
    assert checked > 0


# The fewest extensions each search needs: one unit is one candidate
# coordinate value.  ``--budget``, DEFAULT_BUDGET and the admission budget of
# the embedding benchmark pool all count in this unit, so it must not move;
# the figures move only with the search tree, here lightest vertices first.
# The rational test settles two of these instances and eight of the pool's
# before any search, so the locks hold the bare search.
BUDGET_LOCK = [
    ([[-2, -2, -2, -2], [-10], [-2, -6, -2]], 9, 410),
    ([[-5, -2, -6, -2, -2, -2], [-2, -2], [-3]], 10, 1193),
    ([[-2, -2, -2, -8, -2, -2, -2, -2, -2]], 10, 236),
    ([[-11, -2, -2, -2], [-2, -2, -3]], 8, 167),
    ([[-2, -2, -12, -2, -2], [-3, -3]], 8, 94),
    ([[-16] + [-2] * 8], 10, 113),
    ([[-2, -10, -2]], 4, 43),
]


@pytest.mark.parametrize("chains,rank,budget", BUDGET_LOCK,
                         ids=[str(c) for c, _, _ in BUDGET_LOCK])
def test_budget_unit_is_locked(bare_search, chains, rank, budget):
    lattice.enumerate_embeddings(chains, rank, budget=budget)
    with pytest.raises(lattice.ResourceBudgetExceeded):
        lattice.enumerate_embeddings(chains, rank, budget=budget - 1)


# The fewest extensions each search of bench/embed_pool.json needs, in file
# order: the benchmark's own instances hold the search tree in place too.
POOL_BUDGETS = [309, 758, 863, 167, 147, 409, 275, 103, 203, 331, 410, 2630, 236, 238,
                156, 260, 1193, 1110]


def test_pool_budgets_are_locked(bare_search):
    instances = json.loads(POOL_FILE.read_text())["instances"]
    assert len(instances) == len(POOL_BUDGETS) and sum(POOL_BUDGETS) == 9798
    for inst, budget in zip(instances, POOL_BUDGETS):
        chains, rank = inst["chains"], inst["rank"]
        lattice.enumerate_embeddings(chains, rank, budget=budget)
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice.enumerate_embeddings(chains, rank, budget=budget - 1)


from lattice_oracle import column_table as _column_table


def _table(rows, used):
    """The search's column table of ``rows``, folded from the empty table one
    row at a time, as the search grows it."""
    table = ()
    for j, row in enumerate(rows):
        table = lattice._grow_table(table, j, row, used)
    return table


@st.composite
def _walk_states(draw):
    used = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=used, max_size=used),
                         min_size=1, max_size=4))
    placed = tuple(tuple(row) + (0, 0) for row in rows)
    dots = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    return placed, used, dots, draw(st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(_walk_states())
@example(((), 0, [], 5))  # no row placed yet: the root is the one part
def test_used_parts_match_a_brute_force_scan(state):
    # Every u in Z^used with |u|^2 <= norm and the required dot products,
    # nonincreasing on each run of equal columns, once each.
    placed, used, dots, norm = state
    cols = list(zip(*placed))[:used]
    box = range(-math.isqrt(norm), math.isqrt(norm) + 1)
    expected = sorted(
        (u, norm - sum(x * x for x in u)) for u in itertools.product(box, repeat=used)
        if sum(x * x for x in u) <= norm
        and all(sum(map(mul, u, row)) == d for row, d in zip(placed, dots))
        and all(u[c] <= u[c - 1] for c in range(1, used) if cols[c] == cols[c - 1]))
    parts, spent = lattice._used_parts(_table(placed, used), dots, norm, 0, 10**9)
    assert sorted(parts) == expected
    # Each part tried one value at its last coordinate; with none, nothing is tried.
    assert spent >= len(parts) if used else spent == 0


def test_walk_raises_as_soon_as_the_budget_is_spent():
    # Run to the end, this walk tries 2,279,376 values and keeps 365,705
    # parts; a walk that checked its count only on return would pay for all
    # of them before it raised.
    used = 12
    placed = (tuple(range(used, 0, -1)),)
    table = _table(placed, used)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice._used_parts(table, [0], 16, 0, 5_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert time.perf_counter() - start < 2.0
    # The count starts from the search's earlier spend and is held against
    # what the budget has left.
    table = _table(placed, 6)
    parts, cost = lattice._used_parts(table, [0], 16, 0, 10_000)
    assert lattice._used_parts(table, [0], 16, 10_000 - cost, 10_000) == (parts, 10_000)
    with pytest.raises(lattice.ResourceBudgetExceeded):
        lattice._used_parts(table, [0], 16, 10_001 - cost, 10_000)


from lattice_oracle import WalkBudgetExceeded as _WalkBudgetExceeded
from lattice_oracle import reference_walk as _reference_walk


def _compare_walks(walk, table, dots, norm, spent, budget):
    """``walk``'s parts and spend on one state, after asserting that the
    reference walk finds the same parts in the same order and spends the
    same, or that both raise, and that ``dots`` comes back unchanged."""
    before = list(dots)
    try:
        want = _reference_walk(table, before, norm, spent, budget)
    except _WalkBudgetExceeded:
        want = None
    try:
        got = walk(table, dots, norm, spent, budget)
    except lattice.ResourceBudgetExceeded:
        assert want is None and dots == before
        raise
    assert got == want and dots == before
    return got


@settings(max_examples=300, deadline=None)
@given(_walk_states(), st.integers(0, 40))
@example((((1, 0, 0),), 1, [1], 1), 0)  # the root's one forced value must not edit dots
@example((((1, 2, 0, 0),), 2, [0], 2), 0)  # siblings must not share their parent's gaps
def test_walk_matches_the_reference_walk(state, budget):
    # The same tree, walked in the same order: every part in place, the same
    # spend, and a raise at the same budgets.
    placed, used, dots, norm = state
    table = _table(placed, used)
    _compare_walks(lattice._used_parts, table, dots, norm, 0, 10**9)
    with contextlib.suppress(lattice.ResourceBudgetExceeded):
        _compare_walks(lattice._used_parts, table, dots, norm, 0, budget)


def _walks_match_the_reference(chains, rank, budget=lattice.DEFAULT_BUDGET):
    """Run one search with every coordinate walk it makes compared with the
    reference walk.  Returns the number of walks compared."""
    walk = lattice._used_parts
    checked = 0

    def compare(*state):
        nonlocal checked
        checked += 1
        return _compare_walks(walk, *state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_used_parts", compare)
        lattice.enumerate_embeddings(chains, rank, budget=budget)
    return checked


def test_walk_matches_the_reference_on_the_pool(bare_search):
    instances = json.loads(POOL_FILE.read_text())["instances"]
    checked = [_walks_match_the_reference(inst["chains"], inst["rank"]) for inst in instances]
    assert len(checked) == 18 and all(checked)
    # One unit short, both walks raise in the same walk of the search.
    for inst, budget in zip(instances, POOL_BUDGETS):
        with pytest.raises(lattice.ResourceBudgetExceeded):
            _walks_match_the_reference(inst["chains"], inst["rank"], budget - 1)


def test_walk_matches_the_reference_on_the_donaldson_searches(classified):
    searches = _donaldson_searches(classified)
    assert len(searches) == 130
    with _bare_search():
        checked = [_walks_match_the_reference(chains, rank) for chains, rank in searches]
    assert all(checked)


@settings(max_examples=200, deadline=None)
@given(_walk_states())
def test_folded_table_equals_a_rebuild(state):
    # Any matrix, canonical or not, with zero and equal columns among others.
    placed, used, _, _ = state
    assert _table(placed, used) == _column_table(placed, used)


def _grown_tables_match_a_rebuild(chains, rank, budget=lattice.DEFAULT_BUDGET):
    """Run one search, rebuilding from scratch the table of every state it
    walks and comparing it with the table the state grew from its parent's.
    Returns the number of tables compared."""
    grow = lattice._grow_table
    # The root state's table is the empty tuple, which has no rows.
    rows_of = {id(()): ((), ())}
    checked = 0

    def grow_and_check(table, j, row, used):
        nonlocal checked
        grown = grow(table, j, row, used)
        rows = rows_of[id(table)][1] + (row,)
        assert j == len(rows) - 1
        assert grown == _column_table(rows, used), rows
        # The table is kept alive with its rows, so its id is not reused.
        rows_of[id(grown)] = (grown, rows)
        checked += 1
        return grown

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_grow_table", grow_and_check)
        try:
            lattice.enumerate_embeddings(chains, rank, budget=budget)
        except lattice.ResourceBudgetExceeded:
            pass
    return checked


def test_carried_tables_equal_a_rebuild_on_the_pool(bare_search):
    instances = json.loads(POOL_FILE.read_text())["instances"]
    checked = [_grown_tables_match_a_rebuild(inst["chains"], inst["rank"])
               for inst in instances]
    assert len(checked) == 18 and all(checked)


@settings(max_examples=40, deadline=None)
@given(_chains_in_rank_5_to_7())
def test_carried_tables_equal_a_rebuild_on_random_chains(instance):
    chains, rank = instance
    _grown_tables_match_a_rebuild(chains, rank, budget=20_000)


@settings(max_examples=40, deadline=None)
@given(_chains_in_rank_5_to_7())
def test_carried_tables_equal_a_rebuild_on_random_chains_on_the_bare_search(instance):
    chains, rank = instance
    with _bare_search():
        _grown_tables_match_a_rebuild(chains, rank, budget=20_000)


def _square_partitions(rest, slots):
    """Every nonincreasing tuple of at most ``slots`` positive integers whose
    squares sum to ``rest``, by a scan of all such tuples."""
    box = range(math.isqrt(rest), 0, -1)
    return {parts for n in range(slots + 1)
            for parts in itertools.combinations_with_replacement(box, n)
            if sum(x * x for x in parts) == rest}


def test_fresh_parts_match_a_brute_force_scan():
    for rest in range(17):
        for slots in range(min(rest, 12) + 1):
            shapes, units = lattice._fresh_parts(rest, slots)
            assert list(shapes) == sorted(_square_partitions(rest, slots), reverse=True)
            assert units >= len(shapes) or rest == 0
        # More slots than rest cannot be filled, so the search keys on
        # min(slots, rest) and charges the same units.
        for slots in range(rest + 1, 13):
            assert lattice._fresh_parts(rest, slots) == lattice._fresh_parts(rest, rest)


def test_fresh_shapes_memo_ignores_history_and_budget(bare_search):
    # Units are charged in full at each use of a memoized shape list, so a
    # warm cache neither saves budget nor changes a result.
    instances = json.loads(POOL_FILE.read_text())["instances"]
    cold = []
    for inst in instances:
        lattice._fresh_parts.cache_clear()
        cold.append(lattice.enumerate_embeddings(inst["chains"], inst["rank"]))
    lattice._fresh_parts.cache_clear()
    for inst, budget, expected in zip(instances, POOL_BUDGETS, cold):
        chains, rank = inst["chains"], inst["rank"]
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice.enumerate_embeddings(chains, rank, budget=budget - 1)
        assert lattice.enumerate_embeddings(chains, rank, budget=budget) == expected


# ---------------------------------------------------------------------------
# The rational test in front of corank-one searches: a Hasse invariant -1 of
# the chains' positive form plus <det> proves that nothing embeds.
# ---------------------------------------------------------------------------

def _is_rational_square(q):
    q = Fraction(q)
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _ldl_pivots(gram):
    """Diagonal of the LDL elimination of the positive definite -gram, in
    rationals, rows in order."""
    m = [[Fraction(-x) for x in row] for row in gram]
    pivots = []
    for k in range(len(m)):
        pivots.append(m[k][k])
        for i in range(k + 1, len(m)):
            factor = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= factor * m[k][j]
    return pivots


_drawn_chains = st.lists(st.lists(st.integers(-16, -2), min_size=1, max_size=6),
                         min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(_drawn_chains)
def test_continuant_pivots_match_a_rational_elimination(chains):
    pairs, det = lattice._pivots(chains)
    exact_pivots = _ldl_pivots(lattice.chain_gram(chains))
    assert len(pairs) == len(exact_pivots) and det == math.prod(exact_pivots)
    for k, ((prefix, pivot), d) in enumerate(zip(pairs, exact_pivots)):
        assert _is_rational_square(pivot * d)
        assert _is_rational_square(prefix * math.prod(exact_pivots[:k]))


@st.composite
def _corank_one_chains(draw, ranks, weights):
    rank = draw(st.integers(*ranks))
    # rank - 1 vertices cut into one to three chains.
    cuts = [0, *sorted(draw(st.sets(st.integers(1, rank - 2), max_size=2))), rank - 1]
    chains = [draw(st.lists(st.integers(*weights), min_size=b - a, max_size=b - a))
              for a, b in zip(cuts, cuts[1:])]
    return chains, rank


@settings(max_examples=40, deadline=None)
@given(_corank_one_chains((3, 4), (-10, -2)))
def test_refuted_chains_have_no_brute_force_orbit(instance):
    chains, rank = instance
    assume(not lattice._rationally_embeds(chains))
    assert _brute_force_orbits(chains, rank) == set()
    assert lattice.enumerate_embeddings(chains, rank, budget=0) == []


@settings(max_examples=25, deadline=None)
@given(_corank_one_chains((5, 7), (-7, -2)))
def test_refuted_chains_have_no_naive_orbit(instance):
    chains, rank = instance
    assume(not lattice._rationally_embeds(chains))
    assert _naive_orbits(chains, rank) == {}
    assert lattice.enumerate_embeddings(chains, rank, budget=0) == []


def _assert_trimmed_hasse_test_agrees(chains):
    pairs, det = lattice._pivots(chains)
    assert lattice._rationally_embeds(chains) is \
        _untrimmed_hasse_test(pairs, det, lattice._SMALL_ODD_PRIMES), chains


def test_trimmed_hasse_test_matches_the_untrimmed_one(classified):
    chain_sets = {chains for chains, _ in _donaldson_searches(classified)}
    chain_sets |= {tuple(map(tuple, inst["chains"]))
                   for inst in json.loads(POOL_FILE.read_text())["instances"]}
    assert len(chain_sets) == 148
    for chains in chain_sets:
        _assert_trimmed_hasse_test_agrees(chains)


@settings(max_examples=300, deadline=None)
@given(_drawn_chains)
def test_trimmed_hasse_test_matches_the_untrimmed_one_on_random_chains(chains):
    _assert_trimmed_hasse_test_agrees(chains)


def _settled_unsearched(chains, rank):
    """True if the search returns [] at budget 0, False if it must search."""
    try:
        assert lattice.enumerate_embeddings(chains, rank, budget=0) == []
    except lattice.ResourceBudgetExceeded:
        return False
    return True


def test_rational_test_refutes_eight_pool_instances():
    instances = json.loads(POOL_FILE.read_text())["instances"]
    refuted = [inst for inst in instances if _settled_unsearched(inst["chains"], inst["rank"])]
    assert len(refuted) == 8 and all(inst["orbits"] == 0 for inst in refuted)
    # The one pool instance without an embedding that the test leaves to the search.
    assert [inst["chains"] for inst in instances if inst["orbits"] == 0 and inst not in refuted] \
        == [[[-4, -2, -2, -2, -2, -2, -3, -6]]]


def test_rational_test_refutes_every_empty_donaldson_search(classified):
    searches = {}
    for index in (1, 2, 3):
        for report in classified(index).candidates:
            evidence = report.verdict("donaldson").evidence
            if "orbits" in evidence:
                key = (tuple(map(tuple, evidence["chains"])), evidence["ambient_rank"])
                searches[key] = bool(evidence["orbits"])
    assert len(searches) == 130 and sum(not found for found in searches.values()) == 74
    for (chains, rank), found in searches.items():
        assert _settled_unsearched(chains, rank) is not found, chains


def test_rational_test_applies_at_corank_one_only():
    # The two BUDGET_LOCK instances without an embedding are refuted in rank 8
    # at any budget; one more coordinate and the search runs, and spends.
    for chains in ([[-11, -2, -2, -2], [-2, -2, -3]], [[-2, -2, -12, -2, -2], [-3, -3]]):
        assert lattice.enumerate_embeddings(chains, 8, budget=0) == []
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice.enumerate_embeddings(chains, 9, budget=0)
    # The five that embed pass the test, and their search spends as before.
    passed = [(chains, rank, budget) for chains, rank, budget in BUDGET_LOCK
              if lattice._rationally_embeds(chains)]
    assert len(passed) == 5
    for chains, rank, budget in passed:
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice.enumerate_embeddings(chains, rank, budget=budget - 1)


def test_orbit_representatives_are_inequivalent():
    for chains, rank in [([[-2, -10, -2]], 4), ([[-2, -2, -2], [-9]], 5)]:
        embeddings = lattice.enumerate_embeddings(chains, rank)
        mins = [_orbit_min(e.vectors, rank) for e in embeddings]
        assert len(set(mins)) == len(embeddings)


def test_budget_exhaustion_is_loud():
    with pytest.raises(lattice.ResourceBudgetExceeded):
        lattice.enumerate_embeddings([[-2, -2, -3, -2, -2], [-10]], 7, budget=50)


def test_budget_bounds_the_work_before_it_runs_out():
    # Norm 16 has 840,500 vectors in Z^10; the search must not build them
    # before its first budget check.
    chains = [[-16] + [-2] * 8]
    tracemalloc.start()
    try:
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice.enumerate_embeddings(chains, 10, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert len(lattice.enumerate_embeddings(chains, 10)) == 1


def test_search_rank_is_bounded_by_the_weights():
    # No vector of norm w uses more than w coordinates, so a huge ambient
    # rank costs the same budget as rank 5 and only pads the rows with zeros.
    chains, budget = [[-2, -2]], 7
    small = lattice.enumerate_embeddings(chains, 5, budget=budget)
    tracemalloc.start()
    try:
        huge = lattice.enumerate_embeddings(chains, 10**5, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    pad = (0,) * (10**5 - 5)
    assert [e.vectors for e in huge] == \
        [tuple(row + pad for row in e.vectors) for e in small]
    for rank in (5, 10**5):
        with pytest.raises(lattice.ResourceBudgetExceeded):
            lattice.enumerate_embeddings(chains, rank, budget=budget - 1)
    for chains, rank in [([[-4], [-2, -2]], 8), ([[-2, -10, -2]], 14)]:
        padded = [tuple(row + (0,) * 3 for row in e.vectors)
                  for e in lattice.enumerate_embeddings(chains, rank)]
        assert [e.vectors for e in lattice.enumerate_embeddings(chains, rank + 3)] == padded


def test_input_validation():
    with pytest.raises(ValueError):
        lattice.enumerate_embeddings([[-1]], 2)
    with pytest.raises(ValueError):
        lattice.enumerate_embeddings([[-17]], 2)
    with pytest.raises(ValueError):
        lattice.enumerate_embeddings([[]], 2)
    with pytest.raises(ValueError):
        lattice.enumerate_embeddings([[-2, -2], [-2]], 2)
    # Weights and rank are read as integers, never truncated or parsed.
    with pytest.raises(TypeError):
        lattice.enumerate_embeddings([[-2.9, -2]], 3)
    with pytest.raises(TypeError):
        lattice.enumerate_embeddings([["-2", -2]], 3)
    with pytest.raises(TypeError):
        lattice.enumerate_embeddings([[-2, -2]], 3.7)
    # No chains at all: the empty assignment, at corank one as elsewhere.
    for rank in (0, 1, 3):
        assert lattice.enumerate_embeddings([], rank, budget=0) == \
            [lattice.PlumbingEmbedding((), rank)]


def test_deterministic_output():
    a = lattice.enumerate_embeddings([[-2, -10, -2]], 4)
    b = lattice.enumerate_embeddings([[-2, -10, -2]], 4)
    assert a == b


def _config(tokens):
    return Configuration.from_tokens(tokens)


def test_donaldson_obstructed_cases():
    v = lattice.donaldson_obstruction(_config("A8"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert [o["square"] for o in v.evidence["orbits"]] == [-1]
    assert v.evidence["target_square"] == -9

    v = lattice.donaldson_obstruction(_config("K1 A8"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert sorted(o["square"] for o in v.evidence["orbits"]) == [-4, -1]
    assert v.evidence["target_square"] == -36

    v = lattice.donaldson_obstruction(_config("A2(1,2) A7"))
    assert v.outcome is Outcome.OBSTRUCTED
    assert sorted(o["square"] for o in v.evidence["orbits"]) == [-18, -2]
    assert v.evidence["target_square"] == -72


def test_donaldson_pass_cases():
    for tokens in ["A4", "A1", "A2 A1", "K1", "K5", "K2 A2", "K1 A4",
                   "A1(1)", "A6(1,1)", "A10(1,1)", "A1(2)", "A6(2,2)"]:
        v = lattice.donaldson_obstruction(_config(tokens))
        assert v.outcome is Outcome.PASS, tokens
        witness = v.evidence["orbits"][v.evidence["witness_orbit"]]
        assert witness["square"] == v.evidence["target_square"]


def test_rebuild_donaldson_matches_the_search(classified):
    # Rebuilt from its evidence after a JSON round trip, every Donaldson
    # verdict of indices 1-3 is the one the search gave.
    for index in (1, 2, 3):
        for report in classified(index).candidates:
            verdict = report.verdict("donaldson")
            evidence = json.loads(json.dumps(verdict.evidence))
            rebuilt = lattice.rebuild_donaldson(report.config, evidence)
            assert (rebuilt.outcome, rebuilt.evidence, rebuilt.note) == \
                (verdict.outcome, verdict.evidence, verdict.note), report.config.name


def test_donaldson_not_applicable_for_non_lens_links():
    for tokens in ["E8", "A1(1) D7", "K2 E6", "D5"]:
        v = lattice.donaldson_obstruction(_config(tokens))
        assert v.outcome is Outcome.NOT_APPLICABLE, tokens


def test_bench_tracer_patches_the_installed_package(monkeypatch):
    # The benchmark's per-layer trace wraps qhpp functions by module
    # attribute; renaming one must fail here, not only under the benchmark.
    monkeypatch.syspath_prepend(str(POOL_FILE.parent))
    from tracing import Tracer

    from qhpp import floer, linking, screening
    modules = (screening, lattice, linking, floer)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    with tracer:
        orbits = lattice.enumerate_embeddings([[-2, -10, -2]], 4)
        witness = lattice.complement_witness(orbits[0])
    assert [dict(vars(m)) for m in modules] == before
    assert witness == lattice.complement_witness(orbits[0])
    metrics = tracer.export()
    assert metrics["lattice.searches"] == 1
    assert metrics["lattice.orbits"] == metrics["lattice.canonical_form_calls"] == len(orbits)
    assert metrics["lattice.witness_calls"] == 1
