"""Deterministic counter-based randomness.

Random structures in this package (random point sets, random subspace
families) must be replayable from a 64-bit seed and independent of
iteration order.  The primitive is a pure function of (seed, index):

    key64(seed, i) = splitmix64(seed + (i + 1) * 0x9E3779B97F4A7C15)

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

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

TWO64 = 1 << 64


def key64(seed: int, index: int) -> int:
    """The 64-bit key of item `index` under `seed` (pure, stateless)."""
    z = (seed + (index + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def key64_array(seed: int, count: int) -> np.ndarray:
    """Keys of items 0..count-1 as a uint64 array (same values as key64)."""
    with np.errstate(over="ignore"):
        idx = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(seed & MASK64) + idx * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def select_by_threshold(seed: int, count: int, threshold: int) -> np.ndarray:
    """Boolean inclusion mask: item i is kept iff key64(seed, i) < threshold."""
    if threshold >= TWO64:
        return np.ones(count, dtype=bool)
    if threshold <= 0:
        return np.zeros(count, dtype=bool)
    return key64_array(seed, count) < np.uint64(threshold)


def smallest_keys(keys: np.ndarray, size: int) -> np.ndarray:
    """Sorted indices of the `size` smallest keys, ties broken by index.

    The same indices as np.argsort(keys, kind="stable")[:size], sorted,
    without sorting all of keys: a partition finds the size-th smallest
    value, every key below it is taken, and of the keys equal to it the
    lowest-indexed fill the remaining places.
    """
    if not 0 <= size <= keys.size:
        raise ValueError(f"size {size} out of range for {keys.size} keys")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    kth = np.partition(keys, size - 1)[size - 1]
    below = np.flatnonzero(keys < kth)
    ties = np.flatnonzero(keys == kth)[: size - below.size]
    return np.sort(np.concatenate((below, ties)))


def choose_without_replacement(
    seed: int, population: int, size: int, budget=DEFAULT_POINT_BUDGET
) -> np.ndarray:
    """The `size` items of range(population) with the smallest keys, sorted.

    Distinct uniform keys make every size-subset equally likely; ties
    (probability ~2^-64) are broken by index, keeping the result
    deterministic regardless.  population is checked against budget
    before any array of that length is allocated.
    """
    if not 0 <= size <= population:
        raise ValueError(f"size {size} out of range for population {population}")
    check_budget(population, budget, "population to sample from")
    if size == population:
        return np.arange(population, dtype=np.int64)
    return smallest_keys(key64_array(seed, population), size)
