"""Restricted families G of (n-m)-dimensional subspaces.

A family is a SubspaceStack of distinct members sorted by basis
(G.distinct() is G; family() makes one), and G.codim is its m.  Beside
files and the whole Grassmannian there are three sources: the seeded
Bernoulli model (each subspace of the full Grassmannian kept
independently with probability delta = p^alpha/|G|), and the two
explicit direction families built from the circle and the moment curve.
Spreadness auditors measure how many members contain (or annihilate) a
fixed nonzero frequency, the hypothesis feeding the energy bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET, DEFAULT_SUBSPACE_BUDGET, check_budget
from .exact import floor_mul_pow, le_affine_pow, le_pow
from .field import AmbientSpace, FpVector, _eliminate, _rref_stack, check_range, decode, decode_array, gaussian_binomial
from .pointsets import PointSet, circle_set, moment_curve_set, read_records, with_context, write_text
from .projection import TABLE_ELEMENTS, family_coset_energy
from .rng import TWO64, threshold_rows
from .subspaces import (
    SubspaceStack,
    _line_minima,
    _parse_rows,
    check_int64_products,
    grassmannian,
    grassmannian_size,
    line_codes,
    member_chunks,
    serialize_subspace,
    stacked_span_codes,
)


def family(ambient: AmbientSpace, m: int, members) -> SubspaceStack:
    """The distinct members, sorted by basis, as a family of codimension m: a stack G with G.distinct() is G.

    members is any iterable of Subspaces or a SubspaceStack, of ambient and dimension n - m.
    """
    check_range("codimension m", m, 1, ambient.n - 1)
    return SubspaceStack.of(ambient, ambient.n - m, members).distinct()


def full_family(ambient: AmbientSpace, m: int, budget=DEFAULT_SUBSPACE_BUDGET) -> SubspaceStack:
    """The whole Grassmannian of codimension m as a family."""
    return family(ambient, m, grassmannian(ambient, ambient.n - m, budget=budget))


# ---------------------------------------------------------------------------
# the seeded Bernoulli model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomFamilyConfig:
    """Parameters of the random model: keep each subspace with prob delta.

    delta targets p^alpha / |G(n, n-m)| so that the expected family size
    is p^alpha.  The exponent must satisfy
    min(m, n-m) < alpha <= m(n-m).  Since p^alpha is irrational for
    fractional alpha, the sampler uses the exact dyadic rational
    floor(delta * 2^64) / 2^64, which is within 2^-64 of the target.
    """

    ambient: AmbientSpace
    m: int
    alpha: Fraction
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        n = self.ambient.n
        check_range("codimension m", self.m, 1, n - 1)
        low = min(self.m, n - self.m)
        high = self.m * (n - self.m)
        if not low < self.alpha <= high:
            raise ValueError(f"alpha = {self.alpha} outside ({low}, {high}]")

    @property
    def grassmannian_size(self) -> int:
        return gaussian_binomial(self.ambient.n, self.ambient.n - self.m, self.ambient.p)

    @property
    def threshold64(self) -> int:
        """floor(delta * 2^64), below 2^64: alpha <= m(n-m) keeps p^alpha < |G|."""
        return floor_mul_pow(Fraction(TWO64, self.grassmannian_size), self.ambient.p, self.alpha)

    @property
    def delta(self) -> Fraction:
        return Fraction(self.threshold64, TWO64)


def inclusion_masks(cfgs) -> np.ndarray:
    """Inclusion decisions by enumeration index, one row per config; pure in (seed, index).

    The configs share (ambient, m, alpha) and differ in their seeds, so
    one threshold_rows call draws them all.
    """
    cfgs = tuple(cfgs)
    if not cfgs:
        raise ValueError("no configs to draw")
    model = cfgs[0].ambient, cfgs[0].m, cfgs[0].alpha
    if any((cfg.ambient, cfg.m, cfg.alpha) != model for cfg in cfgs):
        raise ValueError("stacked configs must share ambient, m and alpha")
    rows = threshold_rows([cfg.seed for cfg in cfgs], cfgs[0].grassmannian_size, cfgs[0].threshold64)
    return np.concatenate([masks for _, masks in rows])


def sample_random_families(cfgs, budget=DEFAULT_SUBSPACE_BUDGET) -> tuple[SubspaceStack, ...]:
    """The family of each config, for configs differing in seed only: one inclusion_masks draw.

    |G(n, n-m)| is checked against budget before any key is drawn.  A
    mask of the Grassmannian is a family as it is: sorted and distinct.
    """
    cfgs = tuple(cfgs)
    if not cfgs:
        raise ValueError("no configs to draw")
    ambient, m = cfgs[0].ambient, cfgs[0].m
    G = grassmannian(ambient, ambient.n - m, budget=budget)
    return tuple(G.take(mask) for mask in inclusion_masks(cfgs))


def sample_random_family(cfg: RandomFamilyConfig, budget=DEFAULT_SUBSPACE_BUDGET) -> SubspaceStack:
    """Draw the family for this config; same config, same members, always.

    The one-config case of sample_random_families.
    """
    return sample_random_families((cfg,), budget)[0]


@dataclass(frozen=True)
class ConcentrationReport:
    """How often |G| strays from p^alpha by more than p^alpha/2."""

    seeds: tuple[int, ...]
    sizes: tuple[int, ...]
    deviating: int
    fraction: Fraction
    chebyshev_bound: float  # 4 p^-alpha


def size_concentration_report(cfg: RandomFamilyConfig, seeds) -> ConcentrationReport:
    """Empirical deviation frequency vs the Chebyshev prediction.

    The deviation test ||G| - p^alpha| > p^alpha/2 is evaluated exactly:
    |G| < p^alpha/2 iff (2|G|)^q < p^r, and |G| > (3/2) p^alpha iff
    (2|G|)^q > 3^q p^r, with alpha = r/q.  Each seed draws |G(n, n-m)|
    keys, checked against the subspace budget before any is drawn.
    """
    check_budget(cfg.grassmannian_size, DEFAULT_SUBSPACE_BUDGET, "|G(n,n-m)| keys per seed")
    seeds = tuple(int(s) for s in seeds)
    q, r = cfg.alpha.denominator, cfg.alpha.numerator
    p = cfg.ambient.p
    sizes = []
    for _, masks in threshold_rows(seeds, cfg.grassmannian_size, cfg.threshold64):
        sizes.extend(np.count_nonzero(masks, axis=1).tolist())
    deviating = 0
    for size in sizes:
        low = (2 * size) ** q < p**r
        high = (2 * size) ** q > 3**q * p**r
        if low or high:
            deviating += 1
    fraction = Fraction(deviating, len(seeds)) if seeds else Fraction(0)
    return ConcentrationReport(
        seeds, tuple(sizes), deviating, fraction, 4.0 * float(p) ** -float(cfg.alpha)
    )


# ---------------------------------------------------------------------------
# spreadness
# ---------------------------------------------------------------------------


class SpreadResult(NamedTuple):
    max_count: int
    witness: FpVector | None


def _check_variant(variant: str) -> None:
    if variant not in ("contains", "perp"):
        raise ValueError(f"unknown variant {variant!r}")


def spread_profile(G: SubspaceStack, variant: str, budget=DEFAULT_POINT_BUDGET) -> np.ndarray:
    """For every frequency code, how many distinct members of G contain it.

    variant 'contains' counts xi in W; 'perp' counts xi in Per(W).
    Entry 0 (the zero frequency) is |G| by definition.  The table has
    p^n entries, checked against budget before it is allocated.  This
    is the one-family table of stacked_spread, read back from each
    line's smallest code to every code of the line.
    """
    _check_variant(variant)
    check_budget(G.ambient.point_count, budget, "p^n for the spread profile")
    G = G.distinct()
    lowest = _line_minima(G.ambient)
    table = _spread_tables(G, variant, np.arange(len(G)), np.array([0, len(G)]), np.array([0]), lowest)
    profile = table[0, lowest]
    profile[0] = len(G)
    return profile


def _spread_tables(stack: SubspaceStack, variant: str, members, edges, families, lowest) -> np.ndarray:
    """(len(families), p^n) counts: per listed family, how many of its members' spans hold each line.

    Family c is the stack's members members[edges[c]:edges[c + 1]],
    spanned by their bases ('contains') or annihilators ('perp').  A
    span holds all of a line through 0 or only 0, so each member spans
    one point per line, kept at the line's smallest code; every other
    entry, 0 included, is 0.  lowest, _line_minima of the ambient
    space, maps a basis point there ('contains'); an annihilator point
    is there already (stacked_span_codes).  Each member's codes are
    offset by its family's position times p^n, so one bincount per
    chunk of members fills every family's table.
    """
    P = stack.ambient.point_count
    rows = stack.bases if variant == "contains" else stack.annihilators
    index = np.concatenate([members[edges[c] : edges[c + 1]] for c in families.tolist()])
    position = np.repeat(np.arange(len(families)), np.diff(edges)[families])
    tables = np.zeros(len(families) * P, dtype=np.int64)
    for part, codes in stacked_span_codes(stack.ambient, rows[index], lines=True):
        codes = (lowest[codes] if variant == "contains" else codes) + position[part, None] * P
        tables += np.bincount(codes.ravel(), minlength=tables.size)
    return tables.reshape(len(families), P)


def stacked_spread(stack: SubspaceStack, variant: str, members, edges, budget=DEFAULT_POINT_BUDGET):
    """(counts, codes): per family, spread_containing or spread_perp as a count and a witness code.

    Family c is the stack's members at the indices
    members[edges[c]:edges[c + 1]], which are distinct.  counts[c] is
    the most members of family c that contain ('contains') or
    annihilate ('perp') one nonzero frequency, and codes[c] the
    smallest such frequency's code; an empty family
    has count 0 and code 0.  A family of all of G(n, k) has the same
    count at every nonzero frequency (theoretical_spread_count), so it
    is not counted: its witness is code 1.  The others are counted
    line by line (_spread_tables), with one bincount per chunk of
    members over per-family offset codes.  A count is the same at
    every nonzero point of a line and is kept at the line's smallest
    code, the other entries 0, and a counted family has a count of at
    least 1, so argmax of each family's row takes the smallest
    maximizing code.  p^n is checked against budget before any table
    is allocated, and a table holds at most TABLE_ELEMENTS entries,
    one family at least.
    """
    _check_variant(variant)
    members, edges = np.asarray(members, dtype=np.int64), np.asarray(edges, dtype=np.int64)
    widths = np.diff(edges)
    ambient, k = stack.ambient, stack.dim
    full = (widths > 0) & (widths == gaussian_binomial(ambient.n, k, ambient.p))
    counted = np.flatnonzero((widths > 0) & ~full)
    if counted.size:
        check_budget(ambient.point_count, budget, "p^n for the spread profile")
    counts = full * np.int64(theoretical_spread_count(ambient, k, variant) if full.any() else 0)
    codes = full.astype(np.int64)
    lowest = _line_minima(ambient) if counted.size and variant == "contains" else None
    for part in member_chunks(len(counted), ambient.point_count, TABLE_ELEMENTS):
        families = counted[part]
        tables = _spread_tables(stack, variant, members, edges, families, lowest)
        codes[families] = tables.argmax(axis=1)  # argmax takes the smallest maximizing code
        counts[families] = tables[np.arange(len(families)), codes[families]]
    return counts, codes


def _spread_max(G: SubspaceStack, variant: str, budget) -> SpreadResult:
    """The one-family case of stacked_spread, over G's distinct members."""
    G = G.distinct()
    (count,), (code,) = stacked_spread(G, variant, np.arange(len(G)), (0, len(G)), budget)
    return SpreadResult(int(count), decode(G.ambient, int(code)) if len(G) else None)


def spread_containing(G: SubspaceStack, budget=DEFAULT_POINT_BUDGET) -> SpreadResult:
    """max over xi != 0 of |{W in G : xi in W}|, with a smallest witness."""
    return _spread_max(G, "contains", budget)


def spread_perp(G: SubspaceStack, budget=DEFAULT_POINT_BUDGET) -> SpreadResult:
    """max over xi != 0 of |{W in G : xi in Per(W)}|, with a smallest witness."""
    return _spread_max(G, "perp", budget)


def theoretical_spread_count(ambient: AmbientSpace, k: int, variant: str) -> int:
    """Exact member count through a fixed nonzero frequency, full Grassmannian.

    Over all of G(n, k): |{W : xi in W}| = |G(n-1, k-1)| and
    |{W : xi in Per(W)}| = |G(n-1, k)|, independent of xi != 0.
    """
    check_range("k", k, 1, ambient.n - 1)
    _check_variant(variant)
    return gaussian_binomial(ambient.n - 1, k - 1 if variant == "contains" else k, ambient.p)


# ---------------------------------------------------------------------------
# explicit direction families
# ---------------------------------------------------------------------------


def family_from_directions(D: PointSet) -> SubspaceStack:
    """The lines {k*x : x in D}, deduplicated; codimension n-1."""
    if D.contains_code(0):
        raise ValueError("direction sets must not contain the zero vector")
    # one elimination scales each direction to its line's canonical basis
    lines = _rref_stack(D.ambient.p, D.coordinates()[:, None, :])
    return family(D.ambient, D.ambient.n - 1, SubspaceStack(D.ambient, lines))


def circle_family(p: int) -> SubspaceStack:
    """Lines through the circle {(x1, x2, 1) : x1^2 + x2^2 = 1} in F_p^3."""
    return family_from_directions(circle_set(p))


def moment_family(p: int, n: int) -> SubspaceStack:
    """Lines through the moment curve; exactly p-1 members."""
    return family_from_directions(moment_curve_set(p, n))


def hyperplane_intersection_max(S: PointSet, budget=DEFAULT_SUBSPACE_BUDGET) -> int:
    """max over hyperplanes W of |W ∩ S|, with |G(n, n-1)| checked against budget.

    W is Per(l) for a line l through 0, so x lies in W iff x . a = 0 for
    l's smallest code a (line_codes): no hyperplane is enumerated, and
    a chunk of lines is counted with one product against S.
    """
    grassmannian_size(S.ambient, S.ambient.n - 1, budget)
    check_int64_products(S.ambient)
    if S.size == 0:
        return 0
    p = S.ambient.p
    lines = line_codes(p, S.ambient.n)
    pts = S.coordinates()
    best = 0
    for part in member_chunks(len(lines), S.size):
        residues = decode_array(S.ambient, lines[part]) @ pts.T
        residues -= residues // p * p  # mod p, as in the projection kernel
        hits = np.count_nonzero(residues == 0, axis=1)
        best = max(best, int(hits.max()))
    return best


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyCheck:
    set_size: int
    energy: int
    bound_float: float
    passed: bool


@dataclass(frozen=True)
class FamilyAudit:
    branch: str
    beta: Fraction
    constant: Fraction
    spread: SpreadResult
    spread_bound_float: float
    spread_ok: bool
    energy_checks: tuple[EnergyCheck, ...]

    @property
    def passed(self) -> bool:
        return self.spread_ok and all(c.passed for c in self.energy_checks)


def audit_family(G: SubspaceStack, branch: str, beta, C, test_sets=()) -> FamilyAudit:
    """Check the spreadness hypothesis and, per test set, its energy bound.

    branch 'contains' requires spread_containing <= C |G| p^-beta and,
    for each E, energy(E over all cosets of G) <= C(|E||G| + |E|^2|G|p^-beta).
    branch 'perp' requires spread_perp <= C |G| p^-beta and
    energy <= C p^-m |G| (|E|^2 + |E| p^(n-beta)).  All comparisons are
    exact; floats in the result are display-only.  G counts its
    distinct members.
    """
    if branch not in ("contains", "perp"):
        raise ValueError(f"unknown branch {branch!r}")
    G = G.distinct()
    beta = Fraction(beta)
    C = Fraction(C)
    p, n = G.ambient.p, G.ambient.n
    size = len(G)

    spread = spread_containing(G) if branch == "contains" else spread_perp(G)
    spread_ok = le_pow(spread.max_count, C * size, p, -beta)
    spread_bound_float = float(C * size) * float(p) ** -float(beta)

    checks = []
    for E in test_sets:
        lhs = family_coset_energy(E, G)
        e = E.size
        if branch == "contains":
            const = C * e * size
            coeff = C * e * e * size
            expo = -beta
        else:
            const = C * e * e * size * Fraction(1, p**G.codim)
            coeff = C * e * size * Fraction(1, p**G.codim)
            expo = Fraction(n) - beta
        ok = le_affine_pow(lhs, const, coeff, p, expo)
        rhs_float = float(const) + float(coeff) * float(p) ** float(expo)
        checks.append(EnergyCheck(e, lhs, rhs_float, ok))
    return FamilyAudit(branch, beta, C, spread, spread_bound_float, spread_ok, tuple(checks))


# ---------------------------------------------------------------------------
# family files: header "p=<p>,n=<n>,m=<m>", then one subspace per line
# ---------------------------------------------------------------------------


def save_family(G: SubspaceStack, path) -> None:
    """Write G's distinct members, sorted, under its header."""
    G = G.distinct()
    lines = [f"p={G.ambient.p},n={G.ambient.n},m={G.codim}"]
    lines.extend(serialize_subspace(W) for W in G)
    write_text(path, "\n".join(lines) + "\n")


def load_family(path, ambient: AmbientSpace | None = None, m: int | None = None) -> SubspaceStack:
    """Read a family file; one elimination reduces the rows of every member line."""
    file_ambient, (file_m,), lines = read_records(path, ("p", "n", "m"), ambient)
    p, n = file_ambient.p, file_ambient.n
    if m is not None and m != file_m:
        raise ValueError(f"{path}: header m = {file_m}, expected m = {m}")
    check_range(f"{path}: codimension m", file_m, 1, n - 1)
    k = n - file_m
    members = [with_context(f"{path}: line {lineno}", _parse_rows, file_ambient, line) for lineno, line in lines]
    # zero rows pad each member to one height, k at least, and leave its rank as it was
    rows = np.zeros((len(members), max([k, *map(len, members)]), n), dtype=np.int64)
    for i, member in enumerate(members):
        rows[i, : len(member)] = member
    reduced, rank = _eliminate(p, rows)
    bad = np.flatnonzero(rank != k)
    if len(bad):
        raise ValueError(f"{path}: line {lines[bad[0]][0]}: rows of rank {rank[bad[0]]}, expected n - m = {k}")
    return family(file_ambient, file_m, SubspaceStack(file_ambient, reduced[:, :k]))
