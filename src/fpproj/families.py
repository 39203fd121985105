"""Restricted families G of (n-m)-dimensional subspaces.

Three sources: the seeded Bernoulli model (each subspace of the full
Grassmannian kept independently with probability delta = p^alpha/|G|),
and the two explicit direction families built from the circle and the
moment curve.  Spreadness auditors measure how many members contain (or
annihilate) a fixed nonzero frequency, the hypothesis feeding the
energy bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .budgets import DEFAULT_SUBSPACE_BUDGET
from .exact import floor_mul_pow, le_affine_pow, le_pow
from .field import AmbientSpace, FpVector, decode, gaussian_binomial
from .pointsets import PointSet, circle_set, moment_curve_set
from .projection import family_coset_energy
from .rng import TWO64, threshold_rows
from .subspaces import (
    Subspace,
    SubspaceStack,
    _rref_stack,
    grassmannian,
    member_chunks,
    stacked_span_codes,
)


class Family:
    """A deduplicated set of subspaces of one codimension m.

    members is any iterable of Subspaces or a SubspaceStack; the family
    holds their distinct bases, sorted, as one stack.
    """

    def __init__(self, ambient: AmbientSpace, m: int, members):
        n = ambient.n
        if not 1 <= m <= n - 1:
            raise ValueError(f"codimension m = {m} out of range [1, {n - 1}]")
        self.ambient = ambient
        self.m = m
        self.stack = SubspaceStack.of(ambient, n - m, members).distinct()

    @property
    def members(self) -> tuple[Subspace, ...]:
        return self.stack.members

    def __iter__(self):
        return iter(self.stack.members)

    def __len__(self):
        return len(self.stack)

    def __eq__(self, other):
        if not isinstance(other, Family):
            return NotImplemented
        return (self.ambient, self.m) == (other.ambient, other.m) and np.array_equal(
            self.stack.bases, other.stack.bases
        )

    def __hash__(self):
        return hash((self.ambient, self.m, self.stack.bases.tobytes()))

    def __repr__(self):
        return f"Family(p={self.ambient.p}, n={self.ambient.n}, m={self.m}, size={len(self)})"


def full_family(ambient: AmbientSpace, m: int, budget=DEFAULT_SUBSPACE_BUDGET) -> Family:
    """The whole Grassmannian of codimension m as a Family."""
    return Family(ambient, m, grassmannian(ambient, ambient.n - m, budget=budget))


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
        if not 1 <= self.m <= n - 1:
            raise ValueError(f"m = {self.m} out of range [1, {n - 1}]")
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


def inclusion_mask(cfg: RandomFamilyConfig) -> np.ndarray:
    """Inclusion decisions by enumeration index; pure in (seed, index)."""
    return next(threshold_rows((cfg.seed,), cfg.grassmannian_size, cfg.threshold64))[1][0]


def sample_random_family(cfg: RandomFamilyConfig, budget=DEFAULT_SUBSPACE_BUDGET) -> Family:
    """Draw the family for this config; same config, same members, always."""
    G = grassmannian(cfg.ambient, cfg.ambient.n - cfg.m, budget=budget)
    return Family(cfg.ambient, cfg.m, G.take(inclusion_mask(cfg)))


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
    (2|G|)^q > 3^q p^r, with alpha = r/q.
    """
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


def spread_profile(G: Family, variant: str) -> np.ndarray:
    """For every frequency code, how many members contain it.

    variant 'contains' counts xi in W; 'perp' counts xi in Per(W).
    Entry 0 (the zero frequency) is |G| by definition.
    """
    if variant not in ("contains", "perp"):
        raise ValueError(f"unknown variant {variant!r}")
    rows = G.stack.bases if variant == "contains" else G.stack.annihilators
    counts = np.zeros(G.ambient.point_count, dtype=np.int64)
    for _, codes in stacked_span_codes(G.ambient, rows):
        counts += np.bincount(codes.ravel(), minlength=counts.size)
    return counts


def _spread_max(G: Family, variant: str) -> SpreadResult:
    if len(G) == 0:
        return SpreadResult(0, None)
    n, k = G.ambient.n, G.ambient.n - G.m
    if len(G) == gaussian_binomial(n, k, G.ambient.p):
        # G holds distinct members, so it is all of G(n, k): every nonzero
        # frequency has the same count, and the smallest one has code 1
        return SpreadResult(theoretical_spread_count(G.ambient, k, variant), decode(G.ambient, 1))
    counts = spread_profile(G, variant)
    counts[0] = -1  # exclude xi = 0
    code = int(np.argmax(counts))  # argmax takes the smallest maximizing code
    return SpreadResult(int(counts[code]), decode(G.ambient, code))


def spread_containing(G: Family) -> SpreadResult:
    """max over xi != 0 of |{W in G : xi in W}|, with a smallest witness."""
    return _spread_max(G, "contains")


def spread_perp(G: Family) -> SpreadResult:
    """max over xi != 0 of |{W in G : xi in Per(W)}|, with a smallest witness."""
    return _spread_max(G, "perp")


def theoretical_spread_count(ambient: AmbientSpace, k: int, variant: str) -> int:
    """Exact member count through a fixed nonzero frequency, full Grassmannian.

    Over all of G(n, k): |{W : xi in W}| = |G(n-1, k-1)| and
    |{W : xi in Per(W)}| = |G(n-1, k)|, independent of xi != 0.
    """
    if not 1 <= k <= ambient.n - 1:
        raise ValueError(f"k = {k} out of range [1, {ambient.n - 1}]")
    if variant == "contains":
        return gaussian_binomial(ambient.n - 1, k - 1, ambient.p)
    if variant == "perp":
        return gaussian_binomial(ambient.n - 1, k, ambient.p)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# explicit direction families
# ---------------------------------------------------------------------------


def family_from_directions(D: PointSet) -> Family:
    """The lines {k*x : x in D}, deduplicated; codimension n-1."""
    if D.contains_code(0):
        raise ValueError("direction sets must not contain the zero vector")
    # one elimination scales each direction to its line's canonical basis
    lines = _rref_stack(D.ambient.p, D.coordinates()[:, None, :])
    return Family(D.ambient, D.ambient.n - 1, SubspaceStack(D.ambient, lines))


def circle_family(p: int) -> Family:
    """Lines through the circle {(x1, x2, 1) : x1^2 + x2^2 = 1} in F_p^3."""
    return family_from_directions(circle_set(p))


def moment_family(p: int, n: int) -> Family:
    """Lines through the moment curve; exactly p-1 members."""
    return family_from_directions(moment_curve_set(p, n))


def hyperplane_intersection_max(S: PointSet, budget=DEFAULT_SUBSPACE_BUDGET) -> int:
    """max over hyperplanes W of |W ∩ S| (full enumeration of G(n, n-1)).

    x lies in W iff x . a = 0 for the one annihilator row a of W, so a
    chunk of hyperplanes is counted with one product against their
    stacked normals.
    """
    hyperplanes = grassmannian(S.ambient, S.ambient.n - 1, budget=budget)
    if S.size == 0:
        return 0
    p = S.ambient.p
    normals = hyperplanes.annihilators[:, 0, :]
    pts = S.coordinates()
    best = 0
    for part in member_chunks(len(normals), S.size):
        residues = pts @ normals[part].T
        residues -= residues // p * p  # mod p, as in the projection kernel
        hits = np.count_nonzero(residues == 0, axis=0)
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


def audit_family(G: Family, branch: str, beta, C, test_sets=()) -> FamilyAudit:
    """Check the spreadness hypothesis and, per test set, its energy bound.

    branch 'contains' requires spread_containing <= C |G| p^-beta and,
    for each E, energy(E over all cosets of G) <= C(|E||G| + |E|^2|G|p^-beta).
    branch 'perp' requires spread_perp <= C |G| p^-beta and
    energy <= C p^-m |G| (|E|^2 + |E| p^(n-beta)).  All comparisons are
    exact; floats in the result are display-only.
    """
    if branch not in ("contains", "perp"):
        raise ValueError(f"unknown branch {branch!r}")
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
            const = C * e * e * size * Fraction(1, p**G.m)
            coeff = C * e * size * Fraction(1, p**G.m)
            expo = Fraction(n) - beta
        ok = le_affine_pow(lhs, const, coeff, p, expo)
        rhs_float = float(const) + float(coeff) * float(p) ** float(expo)
        checks.append(EnergyCheck(e, lhs, rhs_float, ok))
    return FamilyAudit(branch, beta, C, spread, spread_bound_float, spread_ok, tuple(checks))


# ---------------------------------------------------------------------------
# family files: header "p=<p>,n=<n>,m=<m>", then one subspace per line
# ---------------------------------------------------------------------------


def save_family(G: Family, path) -> None:
    from .subspaces import serialize_subspace

    lines = [f"p={G.ambient.p},n={G.ambient.n},m={G.m}"]
    lines.extend(serialize_subspace(W) for W in G)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_family(path, ambient: AmbientSpace | None = None, m: int | None = None) -> Family:
    from .subspaces import parse_subspace

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty family file (missing header)")
    head = lines[0].strip().split(",")
    try:
        keys = dict(part.split("=") for part in head)
        p, n, file_m = int(keys["p"]), int(keys["n"]), int(keys["m"])
    except (ValueError, KeyError):
        raise ValueError(f"malformed family header: {lines[0]!r}") from None
    file_ambient = AmbientSpace(p, n)
    if ambient is not None and ambient != file_ambient:
        raise ValueError("family header does not match requested ambient space")
    if m is not None and m != file_m:
        raise ValueError(f"family header m={file_m} does not match requested m={m}")
    members = [parse_subspace(file_ambient, line) for line in lines[1:] if line.strip()]
    return Family(file_ambient, file_m, tuple(members))
