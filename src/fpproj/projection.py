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
from typing import Iterable, NamedTuple

import numpy as np

from .budgets import DEFAULT_SUBSPACE_BUDGET
from .exact import floor_pow, le_pow
from .pointsets import PointSet
from .subspaces import (
    CosetLabel,
    Subspace,
    _require_proper,
    grassmannian,
    member_chunks,
    member_stack,
    reduce_points,
)


@dataclass(frozen=True)
class ProjectionImage:
    """The cosets of W that intersect E, as canonical labels."""

    subspace: Subspace
    labels: frozenset[CosetLabel]

    @property
    def size(self) -> int:
        return len(self.labels)


def _check_pair(E: PointSet, W: Subspace):
    if E.ambient != W.ambient:
        raise ValueError(f"ambient mismatch: {E.ambient} vs {W.ambient}")
    _require_proper(W)


def image_codes(E: PointSet, W: Subspace) -> np.ndarray:
    """Coset representative of each member of E (not deduplicated)."""
    _check_pair(E, W)
    return reduce_points(W, E.coordinates())


def project(E: PointSet, W: Subspace) -> ProjectionImage:
    """The projection of E along W: every coset of W meeting E."""
    reps = np.unique(image_codes(E, W))
    return ProjectionImage(W, frozenset(CosetLabel(W, int(r)) for r in reps))


def fiber_counts(E: PointSet, W: Subspace) -> np.ndarray:
    """|E ∩ coset| for every coset of W that meets E (sorted by label)."""
    _, counts = np.unique(image_codes(E, W), return_counts=True)
    return counts


def energy(E: PointSet, planes: Iterable[CosetLabel]) -> int:
    """Sum over the listed cosets of |E ∩ coset|^2 (exact integer)."""
    planes = list(planes)
    by_subspace: dict[Subspace, list[int]] = {}
    for label in planes:
        by_subspace.setdefault(label.subspace, []).append(label.representative)
    total = 0
    for W, reps in by_subspace.items():
        codes = image_codes(E, W) if E.size else np.empty(0, dtype=np.int64)
        hit, counts = np.unique(codes, return_counts=True)
        lookup = dict(zip(hit.tolist(), counts.tolist()))
        for rep in reps:
            c = lookup.get(rep, 0)
            total += c * c
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

    G is a Family (its cached stack is used) or any sequence of
    subspaces of one dimension.  One pass over the family feeds every
    threshold query; the sweep runner uses this to evaluate several N
    against the same family.  This is the one-set case of
    battery_projection_stats.
    """
    sizes, energies = battery_projection_stats((E,), G)
    return sizes[0], energies[0]


def battery_projection_stats(sets, G) -> tuple[np.ndarray, np.ndarray]:
    """Image sizes and coset energies of every set against every member.

    sets is a sequence of S point sets of one ambient space and G a
    Family or a sequence of subspaces of one dimension, as for
    family_projection_stats; both results have shape (S, |G|).

    x and y share a coset of W iff x.a = y.a for every annihilator row a,
    so a point's coset label is (x . A^T mod p) read as a base-p number
    in [0, p^m).  The sets' points are labelled together, set s adding
    s * p^m, so that sorting one member's labels lays the sets out in
    blocks at fixed offsets, and a run of equal labels never crosses a
    block boundary.  The runs are the fibers: per block, the run count
    is the image size and the sum of squared run lengths the energy.
    """
    sets = tuple(sets)
    if not sets:
        raise ValueError("a battery needs at least one point set")
    ambient = sets[0].ambient
    for E in sets:
        if E.ambient != ambient:
            raise ValueError(f"ambient mismatch: {ambient} vs {E.ambient}")
    stack = member_stack(ambient, G)
    S, K = len(sets), len(stack)
    sizes = np.zeros((S, K), dtype=np.int64)
    energies = np.zeros((S, K), dtype=np.int64)
    if K and not 0 < stack.dim < ambient.n:
        raise ValueError("cosets are only defined for proper nontrivial subspaces")
    p, m = ambient.p, stack.codim
    if K and S * p**m >= 2**63:
        raise ValueError(f"{S} sets of p^m = {p**m} labels exceed the exact int64 range")
    counts = np.array([E.size for E in sets], dtype=np.int64)
    total = int(counts.sum())
    if K == 0 or total == 0:
        return sizes, energies
    points = np.ascontiguousarray(np.concatenate([E.coordinates() for E in sets]).T)
    set_index = np.repeat(np.arange(S, dtype=np.int64), counts)
    block_starts = np.concatenate(([0], np.cumsum(counts)))  # S + 1 column offsets
    for part in member_chunks(K, total * m):
        rows = stack.annihilators[part]
        chunk = len(rows)
        residues = rows.reshape(chunk * m, -1) @ points
        residues = np.remainder(residues, p, out=residues).reshape(chunk, m, total)
        # Horner from the set index down: set * p^m + sum_j residue_j * p^j
        labels = set_index * p + residues[:, m - 1]
        for j in range(m - 2, -1, -1):
            labels *= p
            labels += residues[:, j]
        labels.sort(axis=1)
        new_run = np.ones(labels.shape, dtype=bool)
        np.not_equal(labels[:, 1:], labels[:, :-1], out=new_run[:, 1:])
        run_starts = np.flatnonzero(new_run)
        runs = np.diff(run_starts, append=new_run.size)
        squares = np.zeros(runs.size + 1, dtype=np.int64)
        np.cumsum(runs * runs, out=squares[1:])
        # (member, set) blocks in flat order; every block start is a run start
        edges = np.arange(chunk, dtype=np.int64)[:, None] * total + block_starts[:-1]
        bounds = np.searchsorted(run_starts, np.append(edges.ravel(), new_run.size))
        sizes[:, part] = np.diff(bounds).reshape(chunk, S).T
        energies[:, part] = np.diff(squares[bounds]).reshape(chunk, S).T
    return sizes, energies


@dataclass(frozen=True)
class ExceptionalReport:
    """Census of family members whose projection of E is small.

    bound is the exact rational |G| * N * (1/|E| + p^-m); ratio is
    count/bound.  pairs_bound_ok records the exact inequality
    count * |E|^2 <= (energy of E over the exceptional cosets) * N,
    which follows from Cauchy-Schwarz whenever N >= 1.
    """

    family_size: int
    threshold: int
    count: int
    bound: Fraction
    ratio: Fraction
    pairs_bound_ok: bool


def exceptional_census(sizes, energies, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Counts and theta-energies of the members with image size <= N.

    sizes and energies are the (S, K) stats of S sets against a family
    of K members, thresholds are T nonnegative integers in any order.
    Returns two (S, T) int64 arrays: how many members W have
    |pi_W(E_s)| <= N, and the energy of E_s summed over those members.
    Each set's sizes are sorted once: searchsorted gives every count,
    and a prefix sum of the energies in the same order every energy.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    energies = np.asarray(energies, dtype=np.int64)
    if sizes.ndim != 2 or sizes.shape != energies.shape:
        raise ValueError(f"stats of shapes {sizes.shape} and {energies.shape}; need one (S, K)")
    thresholds = [int(N) for N in thresholds]
    if any(N < 0 for N in thresholds):
        raise ValueError("threshold N must be nonnegative")
    S, K = sizes.shape
    if K and int(energies.max()) > (2**63 - 1) // K:
        raise ValueError("summed energies exceed the exact int64 range")
    # a cutoff at or above every size counts every member
    top = int(sizes.max()) if sizes.size else 0
    cutoffs = np.array([min(N, top) for N in thresholds], dtype=np.int64)
    order = np.argsort(sizes, axis=1)
    prefix = np.zeros((S, K + 1), dtype=np.int64)
    np.cumsum(np.take_along_axis(energies, order, axis=1), axis=1, out=prefix[:, 1:])
    counts = np.array(
        [np.searchsorted(row, cutoffs, side="right") for row in np.take_along_axis(sizes, order, axis=1)],
        dtype=np.int64,
    ).reshape(S, len(cutoffs))
    return counts, np.take_along_axis(prefix, counts, axis=1)


class CensusCell(NamedTuple):
    """One (set, N) cell of a census; its bound is bound_num / bound_den.

    ratio is count/bound as a float, within whether ratio <= C (None
    when no C was given), and pairs_lhs <= pairs_rhs is the pair-counting
    inequality count |E|^2 <= theta N, which pairs_bound_ok records
    (True for N = 0).
    """

    threshold: int
    count: int
    bound_num: int
    bound_den: int
    ratio: float
    within: bool | None
    pairs_lhs: int
    pairs_rhs: int
    pairs_bound_ok: bool


def census_cells(sets, m: int, sizes, energies, thresholds, C=None) -> list[list[CensusCell]]:
    """Per nonempty set, its census cells against one family, in threshold order.

    sizes and energies are the sets' (S, K) battery stats.  The bound
    |G| N (1/|E| + p^-m) of a cell is kept as the integers
    |G| N (p^m + |E|) and |E| p^m; ratio <= C is decided by
    cross-multiplying, and the float ratio is the correctly rounded
    quotient of two integers, which equals float(Fraction(count) / bound).
    A zero bound (N = 0, or no member) has ratio 0.  All products are
    Python integers.
    """
    if any(E.size == 0 for E in sets):
        raise ValueError("exceptional counts need a nonempty set (bound uses 1/|E|)")
    thresholds = [int(N) for N in thresholds]
    counts, theta = exceptional_census(sizes, energies, thresholds)
    K = np.shape(sizes)[1]
    C = None if C is None else Fraction(C)
    out = []
    for E, count_row, theta_row in zip(sets, counts.tolist(), theta.tolist()):
        e, q = E.size, E.ambient.p**m
        den = e * q
        row = []
        for N, count, th in zip(thresholds, count_row, theta_row):
            num = K * N * (q + e)
            if C is None:
                within = None
            elif num:
                within = count * den * C.denominator <= C.numerator * num
            else:
                within = 0 <= C
            lhs, rhs = count * e * e, th * N
            ratio = count * den / num if num else 0.0
            row.append(CensusCell(N, count, num, den, ratio, within, lhs, rhs, lhs <= rhs or N == 0))
        out.append(row)
    return out


def exceptional_report_from_stats(
    E: PointSet, m: int, sizes: np.ndarray, energies: np.ndarray, N: int
) -> ExceptionalReport:
    """One cell of the census, with its bound and ratio as Fractions."""
    ((cell,),) = census_cells((E,), m, np.asarray(sizes)[None], np.asarray(energies)[None], (N,))
    num, den = cell.bound_num, cell.bound_den
    ratio = Fraction(cell.count * den, num) if num else Fraction(0)
    return ExceptionalReport(len(sizes), N, cell.count, Fraction(num, den), ratio, cell.pairs_bound_ok)


def exceptional_count(E: PointSet, G, N: int) -> ExceptionalReport:
    """Count members of G with |projection of E| <= N, with bound and ratio."""
    stack = member_stack(E.ambient, G)
    if not len(stack):
        raise ValueError("empty family")
    sizes, energies = family_projection_stats(E, stack)
    return exceptional_report_from_stats(E, stack.codim, sizes, energies, N)


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
    if not 1 <= m <= n - 1:
        raise ValueError(f"m = {m} out of range [1, {n - 1}]")
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
