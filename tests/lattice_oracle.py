"""Independent oracles for embedding-orbit enumeration.

``brute_force_orbits`` enumerates every Gram-respecting vector assignment
directly (no pruning, no partial-orbit identification) and partitions the
results into orbits by applying the whole signed-permutation group, using an
orbit-minimum canonical form unrelated to the production one.  It is
factorial in the rank, so it runs at rank 4 and below.

``naive_orbits`` reaches rank 10: it places vertices in input order, tries
every vector of each norm, and keeps one partial assignment per multiset of
columns taken up to sign.

Neither shares code with ``qhpp.lattice``: candidate vectors come from a plain
scan of the cube and from a recursive generator.

``column_table`` builds the search's per-state column table from scratch,
one column at a time from the last, as the search did before it carried each
state's table over from its parent.

``reference_walk`` is the search's coordinate walk as it was before a
column with one candidate value was resolved in place: every node, forced or
not, is pushed to the stack and popped again, and every nonzero child copies
its parent's gap list.

``untrimmed_hasse_test`` is the corank-one rational test as the search ran it
before it skipped the pairs of pivots a prime does not divide: every pair's
Hilbert symbol at every prime it tries.
"""

import itertools
import math
from math import isqrt

from qhpp.exact import hilbert_symbol


def signed_permutations(rank):
    for perm in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            yield perm, signs


def act(group_element, assignment):
    perm, signs = group_element
    return tuple(tuple(signs[c] * row[perm[c]] for c in range(len(signs)))
                 for row in assignment)


def orbit_min(assignment, rank):
    return min(act(g, assignment) for g in signed_permutations(rank))


def norm_vectors(norm, rank):
    """Every integer vector of Z^rank whose coordinate squares sum to norm."""
    side = range(-math.isqrt(norm), math.isqrt(norm) + 1)
    return [v for v in itertools.product(side, repeat=rank)
            if sum(x * x for x in v) == norm]


def brute_force_orbits(chains, rank):
    verts = [(ci, pi, w) for ci, ch in enumerate(chains) for pi, w in enumerate(ch)]

    def required(a, b):
        return -1 if (a[0] == b[0] and abs(a[1] - b[1]) == 1) else 0

    pools = {}
    for _, _, w in verts:
        if -w not in pools:
            pools[-w] = norm_vectors(-w, rank)

    complete = []

    def place(assignment):
        k = len(assignment)
        if k == len(verts):
            complete.append(tuple(assignment))
            return
        for vec in pools[-verts[k][2]]:
            if all(sum(x * y for x, y in zip(vec, assignment[j]))
                   == required(verts[k][:2], verts[j][:2]) for j in range(k)):
                place(assignment + [vec])

    place([])
    # Each orbit's images are computed once; the other members of an orbit
    # are then recognised by lookup.
    orbits, seen = set(), set()
    for a in complete:
        if a not in seen:
            images = {act(g, a) for g in signed_permutations(rank)}
            seen |= images
            orbits.add(min(images))
    return orbits


def complement_generator(vectors, rank):
    """Primitive generator of the orthogonal complement of rank - 1 integer
    vectors in Z^rank, first nonzero entry positive, or None when the
    vectors are linearly dependent.

    Entry i is (-1)^i times the maximal minor with column i deleted: the
    cofactor expansion of the square matrix that repeats one row shows it is
    orthogonal to every row.  Minors are expanded along their top row, with
    the minors of the rows below memoised by column set.
    """
    rows = [tuple(v) for v in vectors]
    assert len(rows) == rank - 1 and all(len(v) == rank for v in rows)
    memo = {(): 1}

    def minor(cols):
        # Determinant of the last len(cols) rows on the given columns.
        if cols not in memo:
            row = rows[len(rows) - len(cols)]
            memo[cols] = sum((-1) ** k * row[c] * minor(cols[:k] + cols[k + 1:])
                             for k, c in enumerate(cols) if row[c])
        return memo[cols]

    gen = [(-1) ** i * minor(tuple(c for c in range(rank) if c != i))
           for i in range(rank)]
    g = math.gcd(*gen)
    if g == 0:
        return None
    if next(x for x in gen if x) < 0:
        g = -g
    return tuple(x // g for x in gen)


def _vectors_of_norm(norm, rank):
    """Every vector of Z^rank whose coordinate squares sum to norm, built by
    choosing the first coordinate and recursing on the rest."""
    if rank == 0:
        if norm == 0:
            yield ()
        return
    bound = math.isqrt(norm)
    for x in range(-bound, bound + 1):
        for rest in _vectors_of_norm(norm - x * x, rank - 1):
            yield (x,) + rest


def column_key(rows, rank):
    """The multiset of the columns of ``rows``, each taken up to sign: a
    complete invariant of the rows under signed permutations of Z^rank."""
    counts = {}
    for c in range(rank):
        col = tuple(row[c] for row in rows)
        key = frozenset((col, tuple(-x for x in col)))
        counts[key] = counts.get(key, 0) + 1
    return frozenset(counts.items())


def naive_orbits(chains, rank):
    """The embedding orbits of the chains in -Z^rank, as a dict from the
    column key of each orbit to one representative.

    Vertices are placed in input order.  Every vector of the vertex's norm is
    tried against every Gram entry to the vertices placed before it, and the
    partial assignments are kept one per column key.
    """
    verts = [(ci, pi, w) for ci, ch in enumerate(chains) for pi, w in enumerate(ch)]
    pools = {}
    states = {column_key((), rank): ()}
    for k, (ck, pk, wk) in enumerate(verts):
        if -wk not in pools:
            pools[-wk] = list(_vectors_of_norm(-wk, rank))
        # Neighbours in a chain pair to +1 in -Z^rank: their dot product is -1.
        required = [-1 if ci == ck and abs(pi - pk) == 1 else 0
                    for ci, pi, _ in verts[:k]]
        next_states = {}
        for rows in states.values():
            for vec in pools[-wk]:
                if all(sum(x * y for x, y in zip(vec, row)) == r
                       for row, r in zip(rows, required)):
                    grown = rows + (vec,)
                    next_states.setdefault(column_key(grown, rank), grown)
        states = next_states
    return states


def column_table(rows, used):
    """The column table of ``rows`` on their first ``used`` coordinates, in
    the layout of ``qhpp.lattice._grow_table``, scanned from the last column
    to the first.

    Entry c holds: the pairs (j, rows[j][c]) of the rows whose last nonzero
    entry is at c; whether column c equals column c - 1; the pairs with
    rows[j][c] != 0; the rows to check after a zero at c (those nonzero at c
    and after it) and after another value (those nonzero after c), every row
    at column 0; and the squared norm of each row after c.
    """
    cols = list(zip(*rows))[:used]
    table = [None] * used
    tail = [0] * len(rows)
    for c in reversed(range(used)):
        col = cols[c]
        after = tuple(tail)
        opened = tuple(j for j, t in enumerate(tail) if t)
        entries, closing, touched = [], [], []
        for j, p in enumerate(col):
            if p:
                entries.append((j, p))
                if tail[j]:
                    touched.append(j)
                else:
                    closing.append((j, p))
                tail[j] += p * p
        touched = tuple(touched)
        if c == 0:
            touched = opened = range(len(rows))
        table[c] = (tuple(closing), c > 0 and col == cols[c - 1], tuple(entries),
                    touched, opened, after)
    return table


def untrimmed_hasse_test(pairs, det, odd_primes):
    """False if the diagonal form with pivots ``pairs`` (each pivot after the
    product of the earlier ones, as ``qhpp.lattice._pivots`` gives them) plus
    <det> has a Hasse invariant -1 at 2 or at a prime of ``odd_primes`` that
    divides a pivot.  The symbols of all pairs are multiplied at each prime."""
    primes = [2] + [p for p in odd_primes if any(pivot % p == 0 for _, pivot in pairs)]
    return all(math.prod(hilbert_symbol(*pair, p) for pair in pairs)
               == hilbert_symbol(det, -1, p) for p in primes)


class WalkBudgetExceeded(Exception):
    """Raised by ``reference_walk`` when it charges past its budget."""


def _over_budget(budget):
    return WalkBudgetExceeded(budget)


def reference_walk(table, dots, norm, spent, budget):
    """The pairs (u, norm - |u|^2) that ``qhpp.lattice._used_parts`` finds on
    ``table``, in the order it finds them, and the units ``spent`` after
    them; WalkBudgetExceeded where it raises.  Every node is a stack entry."""
    last = len(table) - 1
    if last < 0:
        return [((), norm)], spent
    # A node is (column, head, remaining norm, gaps), gaps[j] being the part of
    # dots[j] still to be made up.  Children are pushed largest value first, so they
    # pop in the order a recursion visits them.
    stack, leaves = [(0, (), norm, list(dots))], []
    push, leaf = stack.append, leaves.append
    while stack:
        c, head, rem, gaps = stack.pop()
        closing, same, col, touched, opened, after = table[c]
        emit = leaf if c == last else push
        bound = isqrt(rem)
        high = min(bound, head[-1]) if same else bound
        low = -bound
        for j, p in closing:
            forced, r = divmod(gaps[j], p)
            if r or not low <= forced <= high:
                break
            low = high = forced
        else:
            if low <= high:
                spent += high - low + 1
                if spent > budget:
                    raise _over_budget(budget)
            c += 1
            for x in range(high, low - 1, -1):
                left = rem - x * x
                child, check = gaps, touched
                if x:
                    child, check = gaps[:], opened
                    for j, p in col:
                        child[j] -= x * p
                for j in check:
                    gap = child[j]
                    if gap * gap > left * after[j]:
                        break
                else:
                    emit((c, head + (x,), left, child))
    return [leaf[1:3] for leaf in leaves], spent
