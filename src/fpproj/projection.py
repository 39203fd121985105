"""Coset projections, exceptional-set counts and energies.

The projection of E along a proper nontrivial subspace W is the set of
cosets of W that meet E.  Its size is at most min(|E|, p^m) where
m = codim W, since the p^m cosets partition the space and each member
of E lands in exactly one of them.

All quantities here are exact integers or exact rationals; thresholds
with fractional exponents are compared by cross-multiplied integer
powers, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET, DEFAULT_SUBSPACE_BUDGET, check_budget
from .exact import floor_pow, le_pow
from .field import AmbientSpace, check_range, check_same_ambient, decode_array, power_vector
from .pointsets import PointSet
from .subspaces import (
    CosetLabel,
    Subspace,
    SubspaceStack,
    _require_proper,
    grassmannian,
    line_codes,
    member_chunks,
    reduce_points,
    stacked_span_codes,
)


@dataclass(frozen=True)
class ProjectionImage:
    """The cosets of W that intersect E, as canonical labels."""

    subspace: Subspace
    labels: frozenset[CosetLabel]

    @property
    def size(self) -> int:
        return len(self.labels)


def image_codes(E: PointSet, W: Subspace) -> np.ndarray:
    """Coset representative of each member of E (not deduplicated)."""
    check_same_ambient(E.ambient, W.ambient)
    _require_proper(W)
    return reduce_points(W, E.coordinates())


def project(E: PointSet, W: Subspace) -> ProjectionImage:
    """The projection of E along W: every coset of W meeting E.

    np.unique here and below always asks for counts: without a
    return_* flag it imports numpy.ma to rule out a masked array.
    """
    reps, _ = np.unique(image_codes(E, W), return_counts=True)
    return ProjectionImage(W, frozenset(CosetLabel(W, int(r)) for r in reps))


def fiber_counts(E: PointSet, W: Subspace) -> np.ndarray:
    """|E ∩ coset| for every coset of W that meets E (sorted by label)."""
    _, counts = np.unique(image_codes(E, W), return_counts=True)
    return counts


def energy(E: PointSet, planes: Iterable[CosetLabel]) -> int:
    """Sum over the listed cosets of |E ∩ coset|^2 (exact integer).

    Every label must name a coset: its representative is a code in
    [0, p^n) that is the smallest code of its own coset.
    """
    by_subspace: dict[Subspace, list[int]] = {}
    for label in planes:
        by_subspace.setdefault(label.subspace, []).append(label.representative)
    total = 0
    for W, reps in by_subspace.items():
        hit, counts = np.unique(image_codes(E, W), return_counts=True)
        wrong = [rep for rep in reps if not 0 <= rep < W.ambient.point_count]
        if not wrong:
            own = reduce_points(W, decode_array(W.ambient, np.array(reps, dtype=np.int64))).tolist()
            wrong = [rep for rep, code in zip(reps, own) if rep != code]
        if wrong:
            raise ValueError(f"representative {wrong[0]} names no coset of {W}")
        lookup = dict(zip(hit.tolist(), counts.tolist()))
        total += sum(lookup.get(rep, 0) ** 2 for rep in reps)
    return total


def family_coset_energy(E: PointSet, G) -> int:
    """Energy of E over all cosets of all members of G (exact integer).

    Equals sum over W in G, over the p^m cosets of W, of |E ∩ coset|^2.
    """
    _, energies = family_projection_stats(E, G)
    return int(energies.sum())


def incidence_decomposition(E: PointSet, G) -> tuple[int, int]:
    """(incidences, ordered distinct pairs) over all cosets of members of G.

    The first component is sum |E ∩ coset| = |G|*|E| because the cosets
    of each W partition the space; the two components always sum to
    family_coset_energy(E, G).
    """
    _, energies = family_projection_stats(E, G)
    incidences = len(energies) * E.size
    return incidences, int(energies.sum()) - incidences


def cauchy_schwarz_gap(E: PointSet, W: Subspace) -> tuple[int, int]:
    """(|E|^2, |image| * sum of squared fiber sizes); left <= right always."""
    sizes, energies = family_projection_stats(E, (W,))
    return E.size * E.size, int(sizes[0]) * int(energies[0])


def family_projection_stats(E: PointSet, G) -> tuple[np.ndarray, np.ndarray]:
    """Per-member image sizes and coset energies, in family order.

    G is a SubspaceStack (its cached annihilators are used) or any
    sequence of subspaces of one dimension.  One pass over the family
    feeds every threshold query; the sweep runner uses this to evaluate
    several N against the same family.  This is the one-set case of
    battery_projection_stats.
    """
    sizes, energies = battery_projection_stats((E,), G)
    return sizes[0], energies[0]


# Annihilator rows are tabled for groups of members holding at most this
# many int64 row residues (m * slots * members; 16 chunks), so the table
# stays bounded whatever the family size.
TABLE_ELEMENTS = 2**20
# Fibers are counted in p^m bins per set block of a member when those
# are at most this many times the slots; otherwise labels are sorted.
# Near 8 the two cost about the same (measured for p = 5..13, m = 2..3).
DENSE_BINS_PER_POINT = 8


def battery_projection_stats(sets, G) -> tuple[np.ndarray, np.ndarray]:
    """Image sizes and coset energies of every set against every member.

    sets is a sequence of S point sets of one ambient space and G a
    SubspaceStack or a sequence of subspaces of one dimension, as for
    family_projection_stats; both results have shape (S, |G|).  This is
    the one-battery case of stacked_projection_stats.
    """
    sets = tuple(sets)
    stack = SubspaceStack.of(sets[0].ambient, None, G) if sets else ()
    return stacked_projection_stats((sets,), stack, np.broadcast_to(np.int64(0), (len(stack),)))


def stacked_projection_stats(batteries, G, battery_of) -> tuple[np.ndarray, np.ndarray]:
    """Image sizes and coset energies of each member against its own battery.

    batteries holds B batteries of S point sets each, all of one
    ambient space; G is a SubspaceStack or a sequence of subspaces of
    one dimension, and battery_of gives each member's battery.  Both
    results have shape (S, |G|): column k is member k against
    batteries[battery_of[k]].

    x and y share a coset of W iff x.a = y.a for every annihilator row a,
    so a point's coset label is (x . A^T mod p) read as a base-p number
    in [0, p^m), plus s * p^m for a point of set s, which keeps the sets
    apart.  A battery's points fill T slots, T the most points of any
    battery; a shorter battery is padded with slots of set index S.
    Members share most of their rows, so the kernel works on groups of
    members holding at most TABLE_ELEMENTS row residues: each row is
    read as a base-p code, and x . a mod p is computed once per distinct
    (row, battery) pair of the group against that battery's slots, with
    one product per battery.  A row read as a member's top digit gets a
    table row of its own that also holds the set index, so a member's
    labels are a gather of its m rows, combined base p.  With one
    battery this is one product per distinct row, against every point.

    Fibers are counted one of two ways, chosen from the sizes alone.
    When the (S or S + 1 with padding) * p^m labels of a member are at
    most DENSE_BINS_PER_POINT times the slots, member i's labels are
    offset by i times that range and one bincount per chunk of members
    counts every fiber: per (member, set) block, the nonzero bins are
    the image size and the sum of squared bins the energy, and the pad
    block is dropped.  Otherwise each member's labels are sorted, the
    sets landing in blocks at its battery's offsets and the pad last,
    and a run of equal labels, which never crosses a block, is a fiber:
    per block, the run count is the image size and the sum of squared
    run lengths the energy.

    Memory is bounded whatever |G| or B: the table by TABLE_ELEMENTS,
    the slots by one battery at a time, and the labels, bins and runs
    of a chunk by CHUNK_ELEMENTS, except that a member wider than that
    gets a chunk of its own.  Every product sums n products
    of residues, exact since the stack checks n(p-1)^2 < 2^63, and
    (S + 1) * p^m < 2^63 is checked with the ambients and battery_of
    before anything is allocated, so every label is an exact int64;
    nothing is floating point.
    """
    batteries, stack, battery_of = _battery_args(batteries, G, battery_of)
    B, S, K = len(batteries), len(batteries[0]), len(stack)
    ambient = stack.ambient
    p, n, m = ambient.p, ambient.n, stack.codim
    q = p**m
    if K and (S + 1) * q >= 2**63:
        raise ValueError(f"{S} sets of p^m = {q} labels exceed the exact int64 range")
    sizes = np.zeros((S, K), dtype=np.int64)
    energies = np.zeros((S, K), dtype=np.int64)
    counts = np.array([[E.size for E in sets] for sets in batteries], dtype=np.int64)
    totals = counts.sum(axis=1)
    T = int(totals.max())
    if K == 0 or T == 0:
        return sizes, energies
    block_starts = np.zeros((B, S + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=block_starts[:, 1:])
    blocks = S + bool(totals.min() < T)  # a pad block only when some battery is short
    dense = blocks * q <= DENSE_BINS_PER_POINT * T
    width = max(T, blocks * q) if dense else T
    # row codes are below p^n, which AmbientSpace keeps within int64
    weights = power_vector(p, n)
    for group in member_chunks(K, m * T, TABLE_ELEMENTS):
        rows = stack.annihilators[group].reshape(-1, n)
        _, first, row_of = np.unique(rows @ weights, return_index=True, return_inverse=True)
        rows = rows[first]
        # One table row per distinct (battery, top digit or not, row) of the
        # group, against the battery's slots; a top-digit row also holds
        # set * p for each slot's set, so Horner ends at set * p^m.
        R = len(rows)
        keys = (battery_of[group, None] * 2 + (np.arange(m) == m - 1)) * R + row_of.reshape(-1, m)
        pairs, pair_of = np.unique(keys, return_inverse=True)
        runs, starts = np.unique(pairs // R, return_index=True)
        table = np.empty((len(pairs), T), dtype=np.int64)
        battery = None
        for run, lo, hi in zip(runs.tolist(), starts.tolist(), [*starts[1:].tolist(), len(pairs)]):
            b, top = divmod(run, 2)
            if b != battery:
                battery, (points, set_index) = b, _battery_slots(batteries[b], T)
            out = table[lo:hi]
            np.matmul(rows[pairs[lo:hi] % R], points, out=out)
            out -= out // p * p  # mod p; numpy divides by a scalar ~4x faster than np.remainder
            if top:
                out += set_index
        pair_of = pair_of.reshape(-1, m)
        for part in member_chunks(len(pair_of), width):
            index = pair_of[part]
            at = slice(group.start + part.start, group.start + part.stop)
            # Horner from the top digit down: set * p^m + sum_j residue_j * p^j
            labels = table[index[:, m - 1]]
            for j in range(m - 2, -1, -1):
                labels *= p
                labels += table[index[:, j]]
            if dense:
                sizes[:, at], energies[:, at] = _dense_block_counts(labels, S=S, q=q, blocks=blocks)
            else:
                sizes[:, at], energies[:, at] = _sorted_block_counts(labels, block_starts[battery_of[at]])
    return sizes, energies


def _battery_args(batteries, G, battery_of):
    """(batteries, stack, battery_of) of stacked_projection_stats, checked before anything is allocated."""
    batteries = tuple(map(tuple, batteries))
    if not batteries or not batteries[0]:
        raise ValueError("a battery needs at least one point set")
    B, S = len(batteries), len(batteries[0])
    if any(len(sets) != S for sets in batteries):
        raise ValueError(f"batteries of {sorted({len(sets) for sets in batteries})} sets; need one S")
    ambient = batteries[0][0].ambient
    for sets in batteries:
        for E in sets:
            check_same_ambient(ambient, E.ambient)
    stack = SubspaceStack.of(ambient, None, G)
    K = len(stack)
    battery_of = np.asarray(battery_of)
    if battery_of.shape != (K,):
        raise ValueError(f"battery_of of shape {battery_of.shape} for {K} members")
    if K and (battery_of.dtype.kind not in "iu" or battery_of.min() < 0 or battery_of.max() >= B):
        raise ValueError(f"battery_of must index the {B} batteries")
    if K and not 0 < stack.dim < ambient.n:
        raise ValueError("cosets are only defined for proper nontrivial subspaces")
    return batteries, stack, battery_of.astype(np.int64, copy=False)


def _battery_slots(sets, T: int):
    """(n, T) coordinates and (T,) set index times p of a battery's slots.

    The points of each set fill the slots in battery order; the slots
    after them are pads, point 0 of set index S.
    """
    ambient, S = sets[0].ambient, len(sets)
    codes = np.concatenate([E.codes for E in sets])  # one decode for the whole battery
    points = np.zeros((ambient.n, T), dtype=np.int64)
    points[:, : len(codes)] = decode_array(ambient, codes).T
    set_index = np.full(T, S * ambient.p, dtype=np.int64)
    steps = np.arange(0, S * ambient.p, ambient.p, dtype=np.int64)
    set_index[: len(codes)] = np.repeat(steps, [E.size for E in sets])
    return points, set_index


def _dense_block_counts(labels, S, q, blocks):
    """(S, chunk) image sizes and energies by counting every label into its bin."""
    chunk = len(labels)
    bins = blocks * q
    labels += np.arange(0, chunk * bins, bins, dtype=np.int64)[:, None]
    fibers = np.bincount(labels.ravel(), minlength=chunk * bins).reshape(chunk, blocks, q)
    fibers = fibers[:, :S].reshape(chunk * S, q)  # drops the pad block, if any
    sizes = np.count_nonzero(fibers, axis=1)
    energies = np.einsum("ij,ij->i", fibers, fibers)
    return sizes.reshape(chunk, S).T, energies.reshape(chunk, S).T


def _sorted_block_counts(labels, block_starts):
    """(S, chunk) image sizes and energies from the runs of each sorted row.

    block_starts is (chunk, S + 1): where each set's block of a row
    starts, and where the last one ends; the pad after it is not read.
    """
    chunk, T = labels.shape
    labels.sort(axis=1)
    new_run = np.ones(labels.shape, dtype=bool)
    np.not_equal(labels[:, 1:], labels[:, :-1], out=new_run[:, 1:])
    run_starts = np.flatnonzero(new_run)
    runs = np.diff(run_starts, append=new_run.size)
    squares = np.zeros(runs.size + 1, dtype=np.int64)
    np.cumsum(runs * runs, out=squares[1:])
    # every block start and block end is a run start (or the end of the array)
    edges = np.arange(0, chunk * T, T, dtype=np.int64)[:, None] + block_starts
    bounds = np.searchsorted(run_starts, edges)
    return np.diff(bounds, axis=1).T, np.diff(squares[bounds], axis=1).T


def line_energies(sets, ambient: AmbientSpace, budget=DEFAULT_POINT_BUDGET) -> np.ndarray:
    """(S, p^n): each set's energy along every line through 0, kept at the line's smallest code.

    For the line l spanned by xi != 0, E_l = sum over s in F_p of
    #{x in E : xi . x = s}^2, the energy of E over the cosets of the
    hyperplane Per(l); it is the same for every nonzero point of l.
    Every other entry, code 0 included, is 0.  p^n is checked against
    budget before anything is allocated.

    Read as a lowest digit a below higher digits h, a line's smallest
    code (line_codes) is code 1 (h = 0) or any a below an h in
    line_codes(p, n - 1).  So the lines come in groups of p that share h,
    and xi . x = a x_0 + h . (x_1, ..., x_(n-1)): one product per group
    of lines, and one table of a x_0 mod p for every a, added to it.
    Both residues are below p, so their sum is binned over 2p values
    per (line, set), folded mod p after one bincount per chunk of
    groups.
    """
    sets = tuple(sets)
    for E in sets:
        check_same_ambient(ambient, E.ambient)
    check_budget(ambient.point_count, budget, "p^n for the line energies")
    p, n, S = ambient.p, ambient.n, len(sets)
    codes = np.concatenate([np.empty(0, dtype=np.int64), *(E.codes for E in sets)])
    x = decode_array(ambient, codes)
    width = 2 * p * S  # bins per line
    digit = np.arange(p, dtype=np.int64)
    set_bins = np.repeat(np.arange(0, width, 2 * p, dtype=np.int64), [E.size for E in sets])
    low = digit[:, None] * x[:, 0] % p + (digit * width)[:, None] + set_bins  # (p, T)
    groups = np.concatenate([[0], line_codes(p, n - 1)])
    out = np.zeros((S, ambient.point_count), dtype=np.int64)
    for part in member_chunks(len(groups), p * len(codes)):
        high = decode_array(ambient, groups[part])[:, : n - 1] @ x[:, 1:].T
        high -= high // p * p  # mod p, as in the projection kernel
        high += np.arange(0, high.shape[0] * p * width, p * width, dtype=np.int64)[:, None]
        fibers = np.bincount((low + high[:, None, :]).ravel(), minlength=high.shape[0] * p * width)
        fibers = fibers.reshape(-1, 2, p).sum(axis=1)
        lines = (groups[part, None] * p + digit).ravel()
        keep = (lines >= p) | (lines == 1)
        out[:, lines[keep]] = np.einsum("ij,ij->i", fibers, fibers).reshape(-1, S)[keep].T
    return out


def census_stats(batteries, G, battery_of, thresholds, budget=DEFAULT_POINT_BUDGET):
    """(S, K) image sizes and energies, as a census at these thresholds reads them.

    The arguments are those of stacked_projection_stats, plus the
    census's thresholds and the point budget.  Energies are exact.  For
    set s of a member's battery, let N* be the largest threshold below
    min(|E_s|, p^m).  An image size is exact wherever it is at most N*;
    above N* it may read min(|E_s|, p^m), the most cosets an image can
    have, which no threshold tells apart from the true size.  So these
    are census sizes, not image sizes; consumers that show every image
    size read stacked_projection_stats.

    The route follows from the sizes alone.  When the ambient space has
    fewer lines through 0 than the stack has members per battery
    (L * B < K, L = (p^n - 1)/(p - 1)) and its p^n points fit the
    budget, every energy is a sum of line_energies gathered over the
    lines of Per(W), and only the members that Cauchy-Schwarz leaves
    open are fiber-counted (_line_census_stats); otherwise the kernel,
    which allocates no p^n table, counts every pair.
    """
    batteries, stack, battery_of = _battery_args(batteries, G, battery_of)
    p, n = stack.ambient.p, stack.ambient.n
    fits = budget is None or p**n <= budget
    if fits and (p**n - 1) // (p - 1) * len(batteries) < len(stack):
        return _line_census_stats(batteries, stack, battery_of, thresholds, budget)
    return stacked_projection_stats(batteries, stack, battery_of)


def _line_census_stats(batteries, stack, battery_of, thresholds, budget):
    """census_stats from line energies, fiber-counting only the candidates.

    The annihilator Per(W) of a member W of codimension m holds
    (p^m - 1)/(p - 1) lines, and Plancherel on Per(W), line by line,
    gives the member's energy in integers:
        p^m energy_W(E) = |E|^2 + sum over lines l of Per(W) of (p E_l - |E|^2).
    stacked_span_codes(lines=True) lists each line of Per(W) by its
    smallest code, the key of line_energies; one gather per chunk reads
    every set's E_l there, S times the chunk's codes (at most
    CHUNK_ELEMENTS / n, or one member's), so it grows with S, not K.

    Cauchy-Schwarz, |pi_W(E)| energy_W(E) >= |E|^2, means a member with
    an image of at most N* cosets has |E|^2 <= N* energy: only such a
    candidate is fiber-counted, one kernel call per set position against
    that set alone.  Every other member has more than N* cosets, and no
    threshold lies between N* and min(|E|, p^m), so it gets that size.
    """
    ambient, S, K = stack.ambient, len(batteries[0]), len(stack)
    p, q = ambient.p, ambient.p**stack.codim
    sets = [E for battery in batteries for E in battery]  # table row b * S + s
    e = np.array([E.size for E in sets], dtype=np.int64)
    if (2 * q + 1) * int(e.max()) ** 2 >= 2**63:
        raise ValueError(f"|E|^2 p^m for |E| = {int(e.max())}, p^m = {q} exceeds the exact int64 range")
    table = line_energies(sets, ambient, budget)
    energies = np.empty((S, K), dtype=np.int64)  # E_l summed over the lines of Per(W), until below
    for part, lines in stacked_span_codes(ambient, stack.annihilators, lines=True):
        energies[:, part] = table[battery_of[part, None] * S + np.arange(S)[:, None, None], lines].sum(axis=2)
    # N* per set: the largest threshold below min(|E|, p^m), or -1 when there is none
    caps = np.minimum(e, q)
    below = np.array(sorted({-1, *(max(N, -1) for N in map(int, thresholds) if N < q)}), dtype=np.int64)
    nstar = below[np.searchsorted(below, caps) - 1]
    sizes = np.empty((S, K), dtype=np.int64)
    for s in range(S):  # row by row, so that no temporary is (S, K)
        of = battery_of * S + s  # member k meets sets[of[k]]
        e2 = e[of] * e[of]
        energy = energies[s]
        energy *= p
        energy -= ((q - 1) // (p - 1) - 1) * e2
        energy //= q  # exact
        sizes[s] = caps[of]
        members = np.flatnonzero(e2 <= nstar[of] * energy)
        if members.size:
            counted, _ = stacked_projection_stats(
                [(battery[s],) for battery in batteries], stack.take(members), battery_of[members]
            )
            sizes[s, members] = counted[0]
    return sizes, energies


@dataclass(frozen=True, eq=False)
class Census:
    """A census as columns: every (cell, set, N) of stacked_census.

    Each array field has shape (C, S, T) for C cells of S sets at the T
    thresholds, or (S, T) for one cell (census[c]); thresholds holds
    the T thresholds.  At each (set, N): count members have an image of
    at most N cosets, against the bound bound_num / bound_den in lowest
    terms; ratio is count/bound as a float, within whether ratio <= C
    (None when no C was given), and pairs_lhs <= pairs_rhs is the
    pair-counting inequality count |E|^2 <= theta N, which
    pairs_bound_ok records (True for N = 0).  Integer fields are object
    arrays of Python integers, exact at any size; ratio is float64 and
    the flags bool.
    """

    thresholds: tuple[int, ...]
    count: np.ndarray
    bound_num: np.ndarray
    bound_den: np.ndarray
    ratio: np.ndarray
    within: np.ndarray | None
    pairs_lhs: np.ndarray
    pairs_rhs: np.ndarray
    pairs_bound_ok: np.ndarray

    def __getitem__(self, c) -> "Census":
        """Cell c's (S, T) columns."""
        return Census(
            self.thresholds,
            *(None if column is None else column[c] for column in self.columns()),
        )

    def columns(self) -> tuple:
        """The array fields (within may be None), in field order."""
        return (
            self.count, self.bound_num, self.bound_den, self.ratio, self.within,
            self.pairs_lhs, self.pairs_rhs, self.pairs_bound_ok,
        )  # fmt: skip


def stacked_census(batteries, edges, m: int, sizes, energies, thresholds, C=None) -> Census:
    """The (C, S, T) census of every cell of a stack.

    sizes and energies are the (S, K) stats of S sets against K members,
    thresholds T nonnegative integers in any order.  Cell c is the
    family of columns edges[c]:edges[c + 1] (None: all K columns are one
    cell) against batteries[c], its S nonempty sets.  No row is sorted:
    with the U distinct cuts c_0 < ... < c_(U-1), bin j of a cell holds
    its members with c_(j-1) < size <= c_j, so a running sum over the
    cell's U + 1 bins counts the members at or below each cut, and theta
    sums their energies.  One bincount and one add.at per row fill the
    bins, so no temporary is (S, K).  The bound |G| N (1/|E| + p^-m) is
    kept as |G| N (p^m + |E|) over |E| p^m in lowest terms, |G| the
    cell's column count; ratio <= C is decided by cross-multiplying, and
    the float ratio is the correctly rounded quotient of two integers,
    which equals float(Fraction(count) / bound).  A zero bound (N = 0,
    or no member) has ratio 0.  Every column is one array expression
    over all cells, on object arrays of Python integers.
    """
    batteries = tuple(map(tuple, batteries))
    if any(E.size == 0 for sets in batteries for E in sets):
        raise ValueError("exceptional counts need a nonempty set (bound uses 1/|E|)")
    sizes, energies = (np.asarray(a, dtype=np.int64) for a in (sizes, energies))
    if sizes.ndim != 2 or sizes.shape != energies.shape:
        raise ValueError(f"stats of shapes {sizes.shape} and {energies.shape}; need one (S, K)")
    thresholds = tuple(int(N) for N in thresholds)
    if any(N < 0 for N in thresholds):
        raise ValueError("threshold N must be nonnegative")
    S, K = sizes.shape
    edges = np.array((0, K) if edges is None else edges, dtype=np.int64)
    widths = np.diff(edges)
    if edges.ndim != 1 or edges.size < 2 or edges[0] != 0 or edges[-1] != K or np.any(widths < 0):
        raise ValueError(f"cell edges must rise from 0 to {K}")
    if sizes.size and int(sizes.min()) < 0:
        raise ValueError("image sizes are nonnegative")
    if energies.size and int(energies.max()) > (2**63 - 1) // K:
        raise ValueError("summed energies exceed the exact int64 range")
    cells = widths.size
    if len(batteries) != cells:
        raise ValueError(f"{len(batteries)} batteries for {cells} cells")
    if any(len(sets) != S for sets in batteries):
        raise ValueError(f"batteries of {sorted({len(sets) for sets in batteries})} sets for {S} rows")
    # a cut at or above every size counts every member, so each is clipped there and fits in int64
    top = int(sizes.max()) if sizes.size else 0
    cuts, column = np.unique(np.array([min(N, top) for N in thresholds], dtype=np.int64), return_inverse=True)
    U = cuts.size
    bins = cells * (U + 1)
    cell_bins = np.repeat(np.arange(0, bins, U + 1, dtype=np.int64), widths)
    count = np.empty((cells, S, U + 1), dtype=np.int64)
    theta = np.empty((cells, S, U + 1), dtype=np.int64)
    for s in range(S):
        keys = cell_bins + np.searchsorted(cuts, sizes[s])  # how many cuts lie below the size
        count[:, s] = np.bincount(keys, minlength=bins).reshape(cells, U + 1)
        row = np.zeros(bins, dtype=np.int64)
        np.add.at(row, keys, energies[s])
        theta[:, s] = row.reshape(cells, U + 1)
    # bins 0..j of a cell hold its members with size <= c_j
    count, theta = (np.cumsum(a, axis=2)[..., column].astype(object) for a in (count, theta))
    q = batteries[0][0].ambient.p ** m if S else 1
    C = None if C is None else Fraction(C)
    G = np.array(widths.tolist(), dtype=object).reshape(cells, 1, 1)
    e = np.array([[E.size for E in sets] for sets in batteries], dtype=object).reshape(cells, S, 1)
    N = np.array(thresholds, dtype=object)
    num = G * N * (q + e)
    den = np.broadcast_to(e * q, num.shape)
    g = np.gcd(num, den)
    num, den = num // g, den // g
    nonzero = num != 0
    ratio = (np.where(nonzero, count * den, 0) / np.where(nonzero, num, 1)).astype(np.float64)
    within = None
    if C is not None:
        within = np.where(nonzero, count * den * C.denominator <= C.numerator * num, C >= 0).astype(bool)
    lhs, rhs = count * e * e, theta * N
    ok = ((lhs <= rhs) | (N == 0)).astype(bool)
    return Census(thresholds, count, num, den, ratio, within, lhs, rhs, ok)


def family_census(batteries, stack, members, edges, battery_of, thresholds, C=None, budget=DEFAULT_POINT_BUDGET):
    """The (F, S, T) census of F families of one stack, each against its own battery.

    Family c is the stack at members[edges[c]:edges[c + 1]] (the layout
    stacked_spread reads) against batteries[battery_of[c]].  One B * K
    mask finds the distinct (battery, member) pairs, census_stats counts
    each once, and each family gathers its columns for stacked_census.
    """
    batteries, thresholds = tuple(map(tuple, batteries)), tuple(thresholds)
    members, edges, battery_of = (np.asarray(a, dtype=np.int64) for a in (members, edges, battery_of))
    B, K, widths = len(batteries), len(stack), np.diff(edges)
    if edges.size == 0 or edges[0] != 0 or edges[-1] != members.size or np.any(widths < 0):
        raise ValueError(f"family edges must rise from 0 to {members.size}")
    outside = np.any((battery_of < 0) | (battery_of >= B)) or np.any((members < 0) | (members >= K))
    if battery_of.shape != widths.shape or outside:
        raise ValueError(f"battery_of must give each family one of {B} batteries, and members index {K}")
    at = np.repeat(battery_of, widths) * K + members  # each family column's (battery, member) pair
    seen = np.zeros(B * K, dtype=bool)
    seen[at] = True
    pairs = np.flatnonzero(seen)
    taken = stack if np.array_equal(pairs, np.arange(K)) else stack.take(pairs % K)  # no copy of range(K)
    sizes, energies = census_stats(batteries, taken, pairs // K, thresholds, budget)
    at = np.searchsorted(pairs, at)  # and now its column among the pairs
    own = [batteries[b] for b in battery_of.tolist()]
    return stacked_census(own, edges, stack.codim, sizes[:, at], energies[:, at], thresholds, C)


def exceptional_report_from_stats(
    E: PointSet, m: int, sizes: np.ndarray, energies: np.ndarray, N: int
) -> Census:
    """The (1, 1) census of one set's per-member stats at one threshold."""
    return stacked_census(((E,),), None, m, np.asarray(sizes)[None], np.asarray(energies)[None], (N,))[0]


def exceptional_count(E: PointSet, G, thresholds) -> Census:
    """The (1, T) census of E against the members of G, at every threshold."""
    stack = SubspaceStack.of(E.ambient, None, G)
    K = len(stack)
    if not K:
        raise ValueError("empty family")
    return family_census(((E,),), stack, np.arange(K), (0, K), (0,), thresholds)[0]


# ---------------------------------------------------------------------------
# explicit-constant check over the full Grassmannian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitBoundCheck:
    """Result of the exceptional census with explicit constants 1/10 and 1/2.

    branch 'small' applies when |E| <= p^m: members with image size at
    most p^t/10 are counted against (1/2) p^(m(n-m)-(m-t)).  branch
    'large' applies when |E| > p^m: threshold p^m/10, bound
    (1/2) p^(m(n-m)-(s-m)) with p^s = |E| (an exact rational).
    vacuous marks the |E| = 1 case, where no valid t exists and the
    check passes by convention.
    """

    branch: str
    count: int
    bound: Fraction | None
    bound_float: float
    passed: bool
    vacuous: bool = False


def exceptional_bound_check(
    E: PointSet, m: int, t: Fraction | None = None, budget=DEFAULT_SUBSPACE_BUDGET
) -> ExplicitBoundCheck:
    """Exact census of small projections over all of G(n, n-m)."""
    if E.size == 0:
        raise ValueError("the census needs a nonempty set")
    n = E.ambient.n
    check_range("codimension m", m, 1, n - 1)
    G = grassmannian(E.ambient, n - m, budget=budget)
    return explicit_bound_from_sizes(E, m, family_projection_stats(E, G)[0], t)


def explicit_bound_from_sizes(
    E: PointSet, m: int, sizes: np.ndarray, t: Fraction | None = None
) -> ExplicitBoundCheck:
    """exceptional_bound_check from E's image sizes over all of G(n, n-m).

    E is nonempty and 1 <= m <= n - 1.  Image sizes are integers, so
    the thresholds reduce to exact integer cutoffs: (10 * size)^q <= p^r
    iff size <= floor(p^(r/q)) // 10, and 10 * size <= p^m iff
    size <= p^m // 10.  The bound with a fractional exponent is compared
    by integer cross-multiplication: count <= (1/2) p^(e/q) iff
    (2*count)^q <= p^e.
    """
    ambient = E.ambient
    p, n = ambient.p, ambient.n
    sizes = np.asarray(sizes)

    if E.size <= p**m:
        if t is None:
            raise ValueError("branch with |E| <= p^m needs the exponent t")
        t = Fraction(t)
        if t <= 0:
            raise ValueError("t must be positive")
        q, r = t.denominator, t.numerator
        vacuous = E.size == 1
        if not vacuous and p**r > E.size**q:
            raise ValueError(f"t = {t} exceeds log_p|E|; the census is undefined there")
        # sizes never exceed |E|, so the cutoff is clipped there
        count = int(np.count_nonzero(sizes <= min(floor_pow(p, t) // 10, E.size)))
        expo = Fraction(m * (n - m) - m) + t
        passed = True if vacuous else le_pow(2 * count, 1, p, expo)
        bound_float = 0.5 * float(p) ** float(expo)
        return ExplicitBoundCheck("small", count, None, bound_float, passed, vacuous)

    count = int(np.count_nonzero(sizes <= p**m // 10))
    bound = Fraction(p ** (m * (n - m) + m), 2 * E.size)
    return ExplicitBoundCheck("large", count, bound, float(bound), count <= bound)
