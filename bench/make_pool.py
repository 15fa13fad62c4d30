"""Regenerate bench/embed_pool.json, the instance pool of the embed_stress workload.

    python3 bench/make_pool.py            # writes bench/embed_pool.json

The pool is committed, so every commit is measured on the same instances;
run this script only to change the workload, never as part of a benchmark run.

Instances sit above the paper's sizes: ambient rank 8-10 (n = rank - 1
vertices, corank one), one to three linear chains, weights between -2 and
-MAX_WEIGHT_MAGNITUDE.  Each stratum (rank, chain count, embeds or not) gets
PER_STRATUM instances:

* an instance that embeds is built from an explicit embedding: vectors with
  small coordinates are placed one vertex at a time so that they meet the
  chain's pairing pattern, and the weights are read off their norms.  The
  construction is stored as ``witness``, so a run can check that the search
  finds its orbit.
* an instance that does not embed is a built instance with one weight moved.

An instance is admitted only if ``lattice.enumerate_embeddings`` finishes
within ADMISSION_BUDGET extensions -- a deterministic count, never a timing.
The orbit count found at admission is recorded; orbit counts are facts about
the lattice, so every correct search returns the same number.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qhpp import lattice  # noqa: E402

POOL_SEED = 20241029
RANKS = (8, 9, 10)
CHAIN_COUNTS = (1, 2, 3)
PER_STRATUM = 1
ADMISSION_BUDGET = 100_000
MAX_NORM = lattice.MAX_WEIGHT_MAGNITUDE
NORM_TWO_SHARE = 0.55
ATTEMPTS = 300


def norm_count(norm: int, rank: int) -> int:
    """Number of vectors of the given norm in Z^rank."""
    counts = [1] + [0] * norm
    for _ in range(rank):
        counts = [sum(counts[n - v * v] * (1 if v == 0 else 2)
                      for v in range(math.isqrt(n) + 1)) for n in range(norm + 1)]
    return counts[norm]


def small_vectors(rank: int) -> np.ndarray:
    """Vectors with entries in {-1, 0, 1} plus at most one entry +-2, of norm
    2..MAX_NORM.  Norms with more vectors than ADMISSION_BUDGET are left out:
    the search examines every vector of the heaviest norm at its first level,
    so such an instance could never be admitted."""
    def units(k: int) -> np.ndarray:
        return np.array(list(itertools.product((-1, 0, 1), repeat=k)), dtype=np.int64)

    blocks = [units(rank)]
    rest = units(rank - 1)
    for i in range(rank):
        for two in (-2, 2):
            blocks.append(np.insert(rest, i, two, axis=1))
    rows = np.concatenate(blocks)
    norms = (rows * rows).sum(axis=1)
    allowed = [n for n in range(2, MAX_NORM + 1) if norm_count(n, rank) <= ADMISSION_BUDGET]
    return rows[np.isin(norms, allowed)]


def chain_sizes(rng: random.Random, vertices: int, chains: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, vertices), chains - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [vertices])]


def construct(rng: random.Random, pool: np.ndarray, sizes: list[int], heavy_norm: int):
    """Place one vector per vertex meeting the chain pairing; None when stuck.

    One vertex, chosen at random, gets norm ``heavy_norm`` and the others
    lighter ones, favouring norm 2 (weight -2), the commonest weight in the
    paper's chains."""
    norms = (pool * pool).sum(axis=1)
    heavy_vertex = rng.randrange(sum(sizes))
    placed: list[np.ndarray] = []
    owners: list[tuple[int, int]] = []
    for ci, size in enumerate(sizes):
        for pi in range(size):
            mask = norms == heavy_norm if len(placed) == heavy_vertex else norms < heavy_norm
            for (cj, pj), vec in zip(owners, placed):
                want = -1 if (cj == ci and pj == pi - 1) else 0
                mask &= pool @ vec == want
            choices = np.flatnonzero(mask)
            if not len(choices):
                return None
            twos = choices[norms[choices] == 2]
            if len(twos) and rng.random() < NORM_TWO_SHARE:
                pick = twos[rng.randrange(len(twos))]
            else:
                pick = choices[rng.randrange(len(choices))]
            placed.append(pool[pick])
            owners.append((ci, pi))
    vectors = [[int(x) for x in v] for v in placed]
    chains, k = [], 0
    for size in sizes:
        chains.append([-sum(x * x for x in vectors[k + i]) for i in range(size)])
        k += size
    return chains, vectors


def orbit_count(chains, rank: int) -> int | None:
    lattice.vectors_of_norm.cache_clear()
    try:
        return len(lattice.enumerate_embeddings(chains, rank, budget=ADMISSION_BUDGET))
    except lattice.ResourceBudgetExceeded:
        return None


def moved_weight(rng: random.Random, chains):
    out = [list(c) for c in chains]
    ci = rng.randrange(len(out))
    pi = rng.randrange(len(out[ci]))
    w = out[ci][pi] + rng.choice((-2, -1, 1, 2))
    if not -MAX_NORM <= w <= -2:
        return None
    out[ci][pi] = w
    return out


def build() -> list[dict]:
    """PER_STRATUM instances per stratum.  Each slot draws the norm of its
    heaviest vertex uniformly from 4 up to the heaviest admissible norm and
    keeps it for ATTEMPTS constructions, so that admission does not push the
    pool towards light weights; only then is the norm drawn again."""
    rng = random.Random(POOL_SEED)
    instances = []
    for rank in RANKS:
        pool = small_vectors(rank)
        heaviest = int((pool * pool).sum(axis=1).max())
        for chains_wanted in CHAIN_COUNTS:
            for embeds in (True, False):
                found = attempts = 0
                while found < PER_STRATUM:
                    if attempts % ATTEMPTS == 0:
                        heavy_norm = rng.randint(4, heaviest)
                    attempts += 1
                    sizes = chain_sizes(rng, rank - 1, chains_wanted)
                    built = construct(rng, pool, sizes, heavy_norm)
                    if built is None:
                        continue
                    chains, witness = built
                    if not embeds:
                        chains = moved_weight(rng, chains)
                        if chains is None:
                            continue
                    orbits = orbit_count(chains, rank)
                    if orbits is None or (orbits > 0) != embeds:
                        continue
                    entry = {"chains": chains, "rank": rank, "orbits": orbits}
                    if embeds:
                        entry["witness"] = witness
                    instances.append(entry)
                    found += 1
                    attempts = 0
                    print(f"rank {rank} chains {chains_wanted} orbits {orbits}: {chains}",
                          file=sys.stderr)
    return instances


def main() -> int:
    instances = build()
    doc = {
        "pool_seed": POOL_SEED,
        "admission_budget": ADMISSION_BUDGET,
        "instances": instances,
    }
    (HERE / "embed_pool.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
