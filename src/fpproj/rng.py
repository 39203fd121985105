"""Deterministic counter-based randomness.

Random structures in this package (random point sets, random subspace
families) must be replayable from a 64-bit seed and independent of
iteration order.  The primitive is a pure function of (seed, index):

    key(seed, i) = splitmix64(seed + (i + 1) * 0x9E3779B97F4A7C15)

interpreted as a uniform draw from [0, 2^64).  An item is "included
with probability delta" iff its key is below floor(delta * 2^64), and a
fixed-size sample takes the items with the smallest keys.  Everything
is stateless, so parallel or shuffled evaluation gives identical
results.  Bit-compatibility with other implementations is a non-goal;
within-implementation reproducibility is the contract.
"""

from __future__ import annotations

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET, check_budget
from .subspaces import member_chunks

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

TWO64 = 1 << 64


def key64_rows(seeds, count: int) -> np.ndarray:
    """(len(seeds), count) uint64 block: row r holds key(seeds[r], i) for i < count."""
    with np.errstate(over="ignore"):
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = np.array([seed & MASK64 for seed in seeds], dtype=np.uint64)[:, None] + z
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z


def threshold_rows(seeds, count: int, threshold: int):
    """(part, mask) per chunk of seeds: mask[r, i] iff key(seeds[part][r], i) < threshold.

    A chunk holds at most CHUNK_ELEMENTS keys (one seed at least), so
    memory does not grow with the number of seeds.
    """
    seeds = tuple(seeds)
    for part in member_chunks(len(seeds), count):
        shape = (part.stop - part.start, count)
        if threshold >= TWO64:
            yield part, np.ones(shape, dtype=bool)
        elif threshold <= 0:
            yield part, np.zeros(shape, dtype=bool)
        else:
            yield part, key64_rows(seeds[part], count) < np.uint64(threshold)


def smallest_key_mask(keys: np.ndarray, sizes) -> np.ndarray:
    """(S, count) mask of the sizes[r] smallest keys of each row keys[r], ties by index.

    Row r marks the same items as np.argsort(keys[r], kind="stable")[:sizes[r]],
    without sorting: a partition finds each row's sizes[r]-th smallest
    value and every key up to it is taken, except that of keys equal to
    it only the lowest-indexed fill the remaining places.
    """
    S, count = keys.shape
    sizes = np.asarray(sizes, dtype=np.int64).reshape(S)
    if np.any((sizes < 0) | (sizes > count)):
        raise ValueError(f"sizes {sizes.tolist()} out of range for {count} keys")
    if count == 0:
        return np.zeros(keys.shape, dtype=bool)
    # one partition per row: np.partition at many ranks along an axis is far slower
    ranks = np.maximum(sizes - 1, 0).tolist()
    kth = np.array([np.partition(row, r)[r] for row, r in zip(keys, ranks)], dtype=np.uint64)
    mask = keys <= kth[:, None]
    over = np.flatnonzero(np.count_nonzero(mask, axis=1) > sizes)
    if over.size:  # ties at the size-th key (or size 0): keep the lowest-indexed
        tied = keys[over] == kth[over, None]
        need = sizes[over] - np.count_nonzero(keys[over] < kth[over, None], axis=1)
        mask[over] &= ~tied | (np.cumsum(tied, axis=1) <= need[:, None])
    return mask


def choose_rows(seeds, population: int, sizes, budget=DEFAULT_POINT_BUDGET):
    """(part, mask) per chunk of seeds: mask[r] marks the sample of seeds[part][r].

    Sample r is the sizes[r] items of range(population) with the
    smallest keys under seeds[r], ties broken by index.  Distinct
    uniform keys make every size-subset equally likely; ties
    (probability ~2^-64) keep the result deterministic regardless.
    Sizes and population are checked against budget before any key or
    mask is allocated; a chunk holds at most CHUNK_ELEMENTS keys (one
    seed at least), so memory does not grow with the number of seeds.
    """
    seeds, sizes = tuple(seeds), tuple(sizes)
    if len(seeds) != len(sizes):
        raise ValueError(f"{len(sizes)} sizes for {len(seeds)} seeds")
    for size in sizes:
        if not 0 <= size <= population:
            raise ValueError(f"size {size} out of range [0, {population}]")
    check_budget(population, budget, "population to sample from")
    return (
        (part, smallest_key_mask(key64_rows(seeds[part], population), sizes[part]))
        for part in member_chunks(len(seeds), population)
    )
