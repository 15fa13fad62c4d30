"""Embeddings of negative definite linear plumbings into diagonal lattices.

The ambient lattice is -Z^N with pairing <e_i, e_j> = -delta_ij; its
automorphisms are the signed permutations of the basis.  An embedding assigns
one ambient vector to each vertex of a disjoint union of linear plumbing
graphs so that self-pairings match the vertex weights, adjacent vertices pair
to +1 and all other pairs to 0.  Embeddings are counted as based objects
(one vector per vertex); two are identified only when a single signed
permutation carries one vertex-indexed assignment to the other.

The enumerator places vertices in order of increasing weight magnitude and
keeps one state per partial orbit: its canonical form, in which the
coordinates used so far come first.  A new vector splits in two parts.  Its
part on the used coordinates is built one coordinate at a time and pruned by
the remaining norm and a Cauchy-Schwarz bound on each required dot product.
Signed permutations of the unused coordinates fix every placed vector, so its
part on the fresh coordinates is a nonincreasing partition of the rest of
its norm into positive squares, placed on the first fresh coordinates.
Swapping two equal columns fixes them too, so on each run of equal used
columns the used part is taken nonincreasing.

This is orderly generation in the sense of McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998): every extension of a state is again a
canonical form, so no state is ever compared with another.  In a canonical
state the used columns are sign-normalized (first nonzero entry positive) and
sorted in decreasing order, and the unused columns are zero.  Appending a
row keeps the used columns normalized, and keeps them sorted because the
new entries are nonincreasing wherever two columns were equal.  The fresh
entries are positive and nonincreasing, so the fresh columns come out
normalized, sorted among themselves and below every used column.  Since
``canonical_form`` is a complete invariant of the orbit, distinct states are
distinct partial orbits.  Conversely the first rows of a canonical form are
a canonical form, and its last row is one of that state's extensions, so
every orbit is reached.  A state's rows are its parent's and one more, so the
column table its walk reads is the parent's extended by that row.  Most
columns of the walk have one candidate value, forced by a row that closes
there; such a column is resolved in place, without a node of its own, and
each list of dot-product gaps belongs to one node of the walk.
``canonical_form`` is applied once, to each finished embedding, after its
rows are put back in vertex order.  The orthogonal complement of an
embedding is computed in integers, by forward elimination on a pivot of
absolute value 1 wherever the column has one and back-substitution.

One unit of the extension budget is one candidate value tried for one
coordinate of a new vector.  The coordinate walk keeps the count in a local
integer and checks it at each charge, before the values are tried, so an
exhausted budget raises ResourceBudgetExceeded, never a silent truncation,
after work proportional to the budget.  Fresh shapes are memoized, and the
units of their search are charged in full at each use, as if searched anew.
The filling chain of each reversed lens link is computed once per process,
keyed on the lens (p, q); no embedding or orbit is memoized.

At corank one a test over the rationals comes first.  An embedding of L into
-Z^(n+1), n = rank L, splits Q^(n+1) as L + <w>, and determinants give
|w|^2 = det(-L) up to squares, so -L + <det(-L)> is rationally the unit form.  Positive definite forms of
equal rank and determinant are rationally isometric if and only if their
Hasse invariants agree at every prime (Serre, "A Course in Arithmetic", 1973,
Ch. III-IV), and the unit form's are all 1.  A -1 at 2 or at a small prime
dividing a continuant of the chains proves that nothing embeds: the search
returns [] unstarted, before the Gram matrix is built, spends no budget, and
otherwise runs as without the test.  A prime left untried can only miss a
refutation, never make one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import isqrt
from operator import index, mul, neg
from typing import NamedTuple

from .catalog import LensLink, SingularityType
from .configuration import (DEFAULT_BUDGET, Configuration, ObstructionVerdict, Outcome,
                            ResourceBudgetExceeded)
from .exact import hilbert_symbol, hj_expand

MAX_WEIGHT_MAGNITUDE = 16


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


class PlumbingEmbedding(NamedTuple):
    """One orbit representative: rows are vertex vectors in input order."""
    vectors: tuple[tuple[int, ...], ...]
    ambient_rank: int


class ComplementWitness(NamedTuple):
    """Primitive generator of the rank-one orthogonal complement."""
    generator: tuple[int, ...]
    square: int


def plumbing_for_reversed_link(t: SingularityType) -> tuple[int, ...]:
    """Weights of the canonical negative definite filling of the reversed
    link of t: -L(p,q) bounds the linear plumbing on -hj_expand(p, p-q)."""
    if not isinstance(t.link, LensLink):
        raise ValueError(f"the link of {t.name} is not a lens space")
    return _reversed_chain(*t.link)


@lru_cache(maxsize=None)
def _reversed_chain(p: int, q: int) -> tuple[int, ...]:
    return tuple(-a for a in hj_expand(p, p - q))


def chain_gram(chains) -> list[list[int]]:
    """Intersection form of disjoint linear plumbings, vertices in chain
    order: the weights on the diagonal, 1 between neighbours of one chain,
    0 elsewhere, filled into a zero matrix."""
    n = sum(map(len, chains))
    gram = [[0] * n for _ in range(n)]
    i = 0
    for chain in chains:
        for k, w in enumerate(chain):
            gram[i][i] = w
            if k:
                gram[i][i - 1] = gram[i - 1][i] = 1
            i += 1
    return gram


def _normalize_chains(lattices) -> list[tuple[int, ...]]:
    chains = []
    for chain in lattices:
        weights = tuple(map(index, chain))
        if not weights:
            raise ValueError("empty plumbing chain")
        if any(w > -2 for w in weights):
            raise ValueError(f"plumbing weights must be <= -2, got {weights}")
        if any(-w > MAX_WEIGHT_MAGNITUDE for w in weights):
            raise ValueError(
                f"weight magnitude exceeds the configured bound {MAX_WEIGHT_MAGNITUDE}")
        chains.append(weights)
    return chains


@lru_cache(maxsize=None)
def vectors_of_norm(norm: int, rank: int) -> tuple[tuple[int, ...], ...]:
    """All integer vectors in Z^rank with coordinate squares summing to norm,
    in lexicographic order.  The search does not use it: it builds only the
    vectors that meet the Gram constraints, one coordinate at a time."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 0:
            if remaining == 0:
                out.append(prefix)
            return
        bound = isqrt(remaining)
        for value in range(-bound, bound + 1):
            extend(prefix + (value,), remaining - value * value, slots - 1)

    extend((), norm, rank)
    return tuple(out)


def canonical_form(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical representative of a vertex-indexed assignment under signed
    permutations of the ambient coordinates.

    Each column's sign is fixed by making its first nonzero entry (in row
    order) positive; the sign-normalized columns are then sorted.  Matrices
    related by a signed permutation normalize identically, and the output is
    a total invariant of the orbit.  Unused coordinates come last, so the
    coordinates a canonical assignment uses are a prefix.
    """
    # A column is sign-normalized exactly when it is not below the zero column.
    zero = (0,) * len(rows)
    cols = [col if col >= zero else tuple(map(neg, col)) for col in zip(*rows)]
    cols.sort(reverse=True)
    return tuple(zip(*cols))


# The odd primes the rational test tries; continuants (up to 16^n) are never factored.
_SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _rationally_embeds(chains) -> bool:
    """False if -chain_gram(chains) + <det> has a Hasse invariant -1 at 2 or at
    a prime in _SMALL_ODD_PRIMES, which refutes every corank-one embedding."""
    pairs, det = _pivots(chains)
    # On the diagonal (pivots, det) the invariant, the product of (a_i, a_j)_p
    # over i < j, is that of (earlier pivots, pivot)_p times (det, det)_p.  At
    # an odd p, (a, b)_p = 1 unless p divides a or b, and every prime of det
    # divides a pivot, so only the pairs p divides count.
    for p in (2,) + _SMALL_ODD_PRIMES:
        touched = pairs if p == 2 else [(a, b) for a, b in pairs if not a % p or not b % p]
        if touched and (math.prod(hilbert_symbol(a, b, p) for a, b in touched)
                        != hilbert_symbol(det, -1, p)):
            return False
    return True


def _pivots(chains) -> tuple[list[tuple[int, int]], int]:
    """The pivots of -chain_gram(chains) in vertex order up to squares, each
    after the product of the earlier ones, and the determinant.  A chain of
    weights -b_k has leading minors D_k = b_k D_(k-1) - D_(k-2), so pivot k is
    D_k D_(k-1) up to squares, and the chain's earlier pivots multiply to D_(k-1)."""
    pairs, prefix = [], 1
    for chain in chains:
        before, minor = 0, 1
        for w in chain:
            before, minor = minor, -w * minor - before
            pairs.append((prefix * before, minor * before))
        prefix *= minor
    return pairs, prefix


def _realizes(rows, gram) -> bool:
    """True if the rows in -Z^N have Gram matrix ``gram``, by its lower
    triangle, compared one row at a time."""
    return len(rows) == len(gram) and all(
        [-sum(map(mul, a, b)) for b in rows[:i + 1]] == gram[i][:i + 1]
        for i, a in enumerate(rows))


def _over_budget(budget: int) -> ResourceBudgetExceeded:
    return ResourceBudgetExceeded(f"embedding search exceeded budget of {budget} extensions")


def _grow_table(table, j: int, row, used: int):
    """The column table on ``used`` coordinates of a parent's rows and one
    more, ``row``, which is row ``j``, grown from the parent's ``table``.  Its
    rows are zero past ``table``, whose last column then has a nonzero entry.

    Entry c holds: the pairs (i, rows[i][c]) of the rows that close at c (use
    no later coordinate); whether column c equals column c - 1 (swapping
    equal columns fixes every row, so a new part is nonincreasing on their
    runs); the pairs with rows[i][c] != 0; the rows to check after a zero and
    after another value at c (past column 0 only open rows, as a forced value
    cleared a closed row's gap, and after a zero, which keeps the norm, only
    those in column c; nothing checked the root, so column 0 checks all); the
    squared norm of each row after c.
    """
    known, rest = len(table), 0
    grown = [None] * used
    for c in reversed(range(used)):
        x = row[c]
        if c < known:
            closing, same, entries, touched, opened, after = table[c]
        else:
            closing = entries = touched = opened = ()
            same = c > known
            after = (0,) * j
        same = c > 0 and same and x == row[c - 1]
        if x:
            entries += ((j, x),)
            if not rest:
                closing += ((j, x),)
            elif c:
                touched += (j,)
        if c == 0:
            touched = opened = range(j + 1)
        elif rest:
            opened += (j,)
        grown[c] = (closing, same, entries, touched, opened, after + (rest,))
        rest += x * x
    return grown


def _used_parts(table, dots, norm: int, spent: int, budget: int):
    """Every u in Z^used with |u|^2 <= norm and <u, rows[j]> == dots[j] on the
    ``used`` coordinates of ``table`` (see ``_grow_table``), as pairs
    (u, norm - |u|^2), and the budget units ``spent`` once they are all found.

    Built coordinate by coordinate, depth first from an explicit stack.  A
    prefix is cut as soon as some required dot product is out of reach of the
    coordinates left: by Cauchy-Schwarz the rest of <u, p> is at most
    sqrt(remaining norm * |rest of p|^2).  At the last coordinate a row uses,
    its dot product forces the value; a coordinate with one candidate is
    taken in place.  Each coordinate charges the values it tries, and raises
    as soon as ``budget`` is passed.
    """
    last = len(table) - 1
    # A node is (column, head, remaining norm, gaps), gaps[j] being the part of
    # dots[j] still to be made up; no two live nodes share a gaps list.  Children
    # are pushed largest value first, so they pop in the order a recursion visits
    # them, but the one child of a one-candidate column takes over its node.
    stack, leaves = [(0, (), norm, list(dots))], []
    push, leaf = stack.append, leaves.append
    while stack:
        c, head, rem, gaps = stack.pop()
        while c <= last:
            closing, same, col, touched, opened, after = table[c]
            if closing:
                j, p = closing[0]
                low = high = gaps[j] // p
                if low * low > rem or same and low > head[-1]:
                    break
                for j, p in closing:
                    if gaps[j] != low * p:
                        break
                else:
                    p = 0  # every row that closes here is met exactly
                if p:
                    break
            else:
                bound = isqrt(rem)
                low, high = -bound, min(bound, head[-1]) if same else bound
                if low > high:
                    break
            spent += high - low + 1
            if spent > budget:
                raise _over_budget(budget)
            c += 1
            if low < high:
                emit = leaf if c > last else push
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
                break
            # The one candidate goes on in place, on this node's own gaps.
            rem -= low * low
            check = opened if low else touched
            if low:
                for j, p in col:
                    gaps[j] -= low * p
            for j in check:
                gap = gaps[j]
                if gap * gap > rem * after[j]:
                    break
            else:
                head += (low,)
                continue
            break
        else:
            leaf((c, head, rem, gaps))
    return [leaf[1:3] for leaf in leaves], spent


@lru_cache(maxsize=None)
def _fresh_parts(rest: int, slots: int):
    """Nonincreasing tuples of at most ``slots`` positive integers whose
    squares sum to ``rest``, largest parts first, and the budget units their
    search tries.  Callers pass slots <= rest, as more parts cannot fit."""
    def search(rest, slots, largest):
        if rest == 0 or slots == 0:
            return ([] if rest else [()]), 0
        # The first part x must leave a rest that slots - 1 parts of at most x
        # can fill: rest <= slots * x^2.
        low = isqrt((rest - 1) // slots) + 1
        top = min(largest, isqrt(rest))
        out, units = [], max(0, top - low + 1)
        for x in range(top, low - 1, -1):
            tails, more = search(rest - x * x, slots - 1, x)
            units += more
            out.extend((x,) + tail for tail in tails)
        return out, units

    shapes, units = search(rest, slots, rest)
    return tuple(shapes), units


def enumerate_embeddings(lattices, ambient_rank: int,
                         budget: int = DEFAULT_BUDGET) -> list[PlumbingEmbedding]:
    """All embeddings of the given linear plumbings into -Z^ambient_rank, one
    representative per signed-permutation orbit, in canonical order.

    An empty result means no embedding exists.  Raises
    ResourceBudgetExceeded if more than ``budget`` candidate coordinate values
    are tried, and TypeError if a weight or the rank is not an integer.  Column
    tables grow from the parent state's, and memoized fresh shapes are charged
    in full at each use, so spend and result never depend on earlier calls.
    At corank one a Hasse invariant may first refute every embedding (see the
    module docstring): then [] comes at any budget, unsearched and unspent.
    """
    chains = _normalize_chains(lattices)
    ambient_rank = index(ambient_rank)
    total = sum(map(len, chains))
    if total > ambient_rank:
        raise ValueError(
            f"{total} vertices cannot embed independently in rank {ambient_rank}")
    if ambient_rank == total + 1 and not _rationally_embeds(chains):
        return []
    gram = chain_gram(chains)
    # No vector of norm w uses more than w coordinates, so the search runs in
    # this rank and the rows are padded with zeros, which sort last.
    rank = min(ambient_rank, -sum(map(sum, chains)))

    # Lightest weights first; the sort is stable, so ties keep vertex order.
    # A -2 vertex has one fresh shape, (1, 1), so the early levels stay
    # narrow, and a heavy vertex placed last meets the most required dot
    # products, where forced values and the Cauchy-Schwarz cut prune hardest.
    order = sorted(range(total), key=lambda k: -gram[k][k])

    spent = 0
    # A state is the canonical form of one partial orbit (the vectors placed so
    # far, in placement order, used coordinates first), the number of
    # coordinates it uses, and its parent's column table, which a walked state
    # grows by its last row.  Extensions are canonical already (see the module
    # docstring), so no state is compared with another.
    states = [((), 0, ())]
    for level, k in enumerate(order):
        norm = -gram[k][k]
        # Ambient dot products are minus the required pairings.
        dots = [-gram[k][order[j]] for j in range(level)]
        next_states = []
        for placed, used, table in states:
            table = _grow_table(table, level - 1, placed[-1], used) if level else table
            free = rank - used
            heads, spent = _used_parts(table, dots, norm, spent, budget)
            for head, rest in heads:
                tails, units = _fresh_parts(rest, min(free, rest))
                spent += units
                if spent > budget:
                    raise _over_budget(budget)
                for tail in tails:
                    vec = head + tail + (0,) * (free - len(tail))
                    next_states.append((placed + (vec,), used + len(tail), table))
        states = next_states
        if not states:
            return []

    # Restore original vertex order and canonicalize for output.
    inverse = [0] * total
    for pos, k in enumerate(order):
        inverse[k] = pos
    results = sorted(canonical_form(tuple(placed[inverse[k]] for k in range(total)))
                     for placed, _, _ in states)
    if not all(_realizes(rows, gram) for rows in results):
        raise AssertionError("embedding fails its Gram constraints")
    pad = (0,) * (ambient_rank - rank)
    return [PlumbingEmbedding(tuple(row + pad for row in rows), ambient_rank)
            for rows in results]


def complement_witness(emb: PlumbingEmbedding) -> ComplementWitness:
    """Primitive generator of the orthogonal complement of a corank-one
    embedding, normalized so its first nonzero coordinate is positive."""
    rank, rows = emb.ambient_rank, emb.vectors
    if len(rows) != rank - 1:
        raise ValueError(
            f"complement is not rank one: {len(rows)} vectors in rank {rank}")
    # Forward elimination in integers: the kernel of the vector matrix is the
    # orthogonal complement, as the ambient form is minus the dot product.  A
    # column's pivot has absolute value 1 when it can (most entries are +-1);
    # a pivot p clears an entry a as (p/g) row - (a/g) top, g = gcd(p, a).
    echelon, free = [], []
    for c in range(rank):
        live, rest = [], []
        for row in rows:
            (live if row[c] else rest).append(row)
        if not live:
            free.append(c)
            continue
        top, rows = live[0], rest
        if top[c] not in (1, -1):
            top = next((row for row in live if row[c] in (1, -1)), top)
        p = top[c]
        live.remove(top)
        for row in live:
            a = row[c]
            if p in (1, -1):
                a *= p
                rows.append([x - a * y for x, y in zip(row, top)])
            else:
                g = math.gcd(p, a)
                rows.append([p // g * x - a // g * y for x, y in zip(row, top)])
        echelon.append((c, top))
    if len(echelon) < rank - 1:
        raise ValueError("embedding vectors are linearly dependent")
    # Back-substitution from the last pivot, the free coordinate set to 1: where
    # a pivot d does not divide the rest s of its row, all is scaled by |d|/gcd(s, d).
    sol = [0] * rank
    sol[free[0]] = 1
    for c, row in reversed(echelon):
        s, d = _dot(row, sol), row[c]
        if s % d:
            m = abs(d) // math.gcd(s, d)
            sol = [m * x for x in sol]
            s *= m
        sol[c] = -s // d
    g = math.gcd(*sol)
    if next(x for x in sol if x) < 0:
        g = -g
    gen = tuple(x // g for x in sol)
    if any(_dot(gen, v) for v in emb.vectors):
        raise AssertionError("complement generator is not orthogonal to the embedding")
    return ComplementWitness(gen, -_dot(gen, gen))


def _donaldson_verdict(config: Configuration, search) -> ObstructionVerdict:
    """The diagonalization verdict of ``config``.  ``search(chains, rank)``
    gives the embedding orbits of the chains in -Z^rank, in canonical order,
    as evidence dicts of ``vectors``, ``complement`` and ``square``."""
    name = "donaldson"
    non_lens = [t.name for t in config.members if not isinstance(t.link, LensLink)]
    if non_lens:
        return ObstructionVerdict(
            name, Outcome.NOT_APPLICABLE, {"non_lens_members": non_lens},
            note="test applies only to configurations of lens-space links",
        )
    chains = [_reversed_chain(*t.link) for t in config.members]
    heavy = [t.name for t, c in zip(config.members, chains) if min(c) < -MAX_WEIGHT_MAGNITUDE]
    if heavy:
        return ObstructionVerdict(
            name, Outcome.NOT_APPLICABLE,
            {"heavy_members": heavy, "weight_bound": MAX_WEIGHT_MAGNITUDE},
            note=f"a plumbing weight exceeds the search bound {MAX_WEIGHT_MAGNITUDE}",
        )
    rank = sum(map(len, chains)) + 1
    target = -config.h1_product
    orbits = search(chains, rank)
    evidence = {
        "chains": [list(c) for c in chains],
        "ambient_rank": rank,
        "target_square": target,
        "orbits": orbits,
    }
    squares = [o["square"] for o in orbits]
    if not orbits:
        return ObstructionVerdict(
            name, Outcome.OBSTRUCTED, evidence,
            note="the plumbing lattice does not embed at all",
        )
    if target not in squares:
        return ObstructionVerdict(
            name, Outcome.OBSTRUCTED, evidence,
            note=f"complement squares {sorted(squares)} never reach {target}",
        )
    evidence["witness_orbit"] = squares.index(target)
    return ObstructionVerdict(name, Outcome.PASS, evidence)


def donaldson_obstruction(config: Configuration,
                          budget: int = DEFAULT_BUDGET) -> ObstructionVerdict:
    """Diagonalization test for a configuration of lens-space links.

    The canonical fillings of the reversed links must embed into -Z^(n+1)
    with rank-one orthogonal complement of square minus the product of the
    link homology orders.  OBSTRUCTED when no embedding orbit attains that
    square (in particular when no embedding exists at all).
    """
    def search(chains, rank):
        embs = enumerate_embeddings(chains, rank, budget=budget)
        return [{"vectors": [list(v) for v in emb.vectors], "complement": list(wit.generator),
                 "square": wit.square} for emb, wit in zip(embs, map(complement_witness, embs))]
    return _donaldson_verdict(config, search)


def rebuild_donaldson(config: Configuration, evidence) -> ObstructionVerdict:
    """The diagonalization verdict of ``config`` rebuilt from saved evidence,
    searching nothing: the saved orbits stand in for the search's.

    Each saved orbit must be one a search could return: it realizes the
    chain Gram matrix, is in canonical form, and the orbits come in strictly
    increasing order.  Its complement must be primitive, orthogonal to the
    orbit and have a positive first nonzero entry; the Gram matrix is
    negative definite, so these conditions fix the generator.  A saved
    ``witness_orbit`` must be an int, since ``==`` takes 0.0 or False for 0.
    Only a search shows that the saved orbits are all the orbits, so an
    OBSTRUCTED verdict is taken at its word on that.

    Malformed evidence raises KeyError, TypeError, ValueError or IndexError.
    """
    def saved(chains, rank):
        gram = chain_gram(chains) if evidence["orbits"] else None
        orbits, last = [], ()  # () precedes every orbit
        for orbit in evidence["orbits"]:
            rows = tuple(map(tuple, orbit["vectors"]))
            gen = tuple(orbit["complement"])
            if (any(len(v) != rank for v in rows) or not _realizes(rows, gram)
                    or canonical_form(rows) != rows or last >= rows
                    or len(gen) != rank or math.gcd(*gen) != 1
                    or next(x for x in gen if x) < 0
                    or any(_dot(gen, v) for v in rows)):
                raise ValueError("saved orbit is not one the search returns")
            # Fresh lists, so a tuple saved in place of a list compares unequal.
            orbits.append({"vectors": [list(v) for v in rows], "complement": list(gen),
                           "square": -_dot(gen, gen)})
            last = rows
        if "witness_orbit" in evidence and type(evidence["witness_orbit"]) is not int:
            raise TypeError("witness_orbit is not an int")
        return orbits
    return _donaldson_verdict(config, saved)
