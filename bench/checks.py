"""Output checks made apart from the program.

Nothing here calls qhpp: Gram matrices, complement generators, orbit
invariants, the brute-force orbit count, d-invariant closed forms and square
units are all recomputed with the benchmark's own integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def chain_gram(chains) -> list[list[int]]:
    """Intersection form of disjoint linear plumbings: weights on the
    diagonal, 1 between neighbours of a chain, 0 elsewhere."""
    verts = [(ci, pi, w) for ci, chain in enumerate(chains) for pi, w in enumerate(chain)]
    return [[wi if i == j else int(ci == cj and abs(pi - pj) == 1)
             for j, (cj, pj, _) in enumerate(verts)]
            for i, (ci, pi, wi) in enumerate(verts)]


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def embedding_errors(chains, rank: int, vectors, generator, square) -> list[str]:
    """Problems with one orbit representative and its complement generator,
    in the lattice -Z^rank (pairing minus the dot product)."""
    errors = []
    gram = chain_gram(chains)
    if len(vectors) != len(gram) or any(len(v) != rank for v in vectors):
        return [f"orbit has shape {len(vectors)}x{len(vectors[0]) if vectors else 0}, "
                f"expected {len(gram)}x{rank}"]
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            if -dot(vi, vj) != gram[i][j]:
                errors.append(f"Gram entry ({i},{j}) is {-dot(vi, vj)}, expected {gram[i][j]}")
    if len(generator) != rank or not any(generator):
        errors.append(f"complement generator {generator} is not a nonzero rank-{rank} vector")
        return errors
    if any(dot(generator, v) for v in vectors):
        errors.append(f"complement generator {generator} is not orthogonal to the embedding")
    if math.gcd(*generator) != 1:
        errors.append(f"complement generator {generator} is not primitive")
    if square != -dot(generator, generator):
        errors.append(f"complement square {square} != {-dot(generator, generator)}")
    return errors


def column_invariant(vectors) -> tuple:
    """The multiset of columns, each taken up to sign: two vertex-indexed
    assignments lie in one signed-permutation orbit exactly when these agree."""
    cols = []
    for col in zip(*vectors):
        neg = tuple(-x for x in col)
        cols.append(max(col, neg))
    return tuple(sorted(cols))


# ----------------------------------------------------------------------
# brute-force orbit count for small ranks


def vectors_of_norm(norm: int, rank: int) -> list[tuple[int, ...]]:
    out = []
    bound = math.isqrt(norm)
    for vec in itertools.product(range(-bound, bound + 1), repeat=rank):
        if dot(vec, vec) == norm:
            out.append(vec)
    return out


def brute_force_orbits(chains, rank: int) -> set:
    """Every Gram-respecting assignment, partitioned into orbits by taking the
    minimum over the whole signed-permutation group."""
    gram = chain_gram(chains)
    pools = {w: vectors_of_norm(-w, rank) for w in {gram[i][i] for i in range(len(gram))}}
    complete = []

    def place(assignment):
        k = len(assignment)
        if k == len(gram):
            complete.append(tuple(assignment))
            return
        for vec in pools[gram[k][k]]:
            if all(-dot(vec, assignment[j]) == gram[k][j] for j in range(k)):
                place(assignment + [vec])

    place([])
    group = [(perm, signs) for perm in itertools.permutations(range(rank))
             for signs in itertools.product((1, -1), repeat=rank)]

    def orbit_min(assignment):
        return min(tuple(tuple(s[c] * row[p[c]] for c in range(rank)) for row in assignment)
                   for p, s in group)

    return {orbit_min(a) for a in complete}


# ----------------------------------------------------------------------
# closed forms used by the reproduce checks


def spin_d_closed_form(family: str, n: int) -> set[Fraction]:
    """Spin d-invariants of the links of A_n = L(n+1, n) and K_n = L(4n, 2n-1)."""
    if family == "A":
        return {Fraction(-1, 4), Fraction(n, 4)} if n % 2 else {Fraction(n, 4)}
    return {Fraction(-3, 4), Fraction(1, 4)} if n % 2 else {Fraction(-1, 4)}


def is_square_unit(residue: int, modulus: int) -> bool:
    return any(x * x % modulus == residue % modulus
               for x in range(1, modulus) if math.gcd(x, modulus) == 1)
