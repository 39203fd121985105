"""The acceptance suite: 12 deterministic criteria with CSV artifacts.

Each criterion function computes what it needs from fixed parameters
and seeds and returns a CriterionResult whose rows render to a CSV
artifact.  Criteria 6 and 8 read the same random-model cells (family,
standard battery and its exceptional census per (p, m, alpha, seed)),
so each cell is built once per pass and kept in a bounded cache; a
criterion called alone builds the cells it misses, so its output does
not depend on what ran before it.  ``run_suite`` clears every cache of
the package before each pass, so the two passes that criterion 12
compares byte for byte are two independent computations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET
from .families import (
    Family,
    RandomFamilyConfig,
    circle_family,
    full_family,
    hyperplane_intersection_max,
    moment_family,
    sample_random_family,
    size_concentration_report,
    spread_containing,
    spread_perp,
    spread_profile,
    theoretical_spread_count,
)
from .exact import floor_pow
from .field import AmbientSpace, decode, gaussian_binomial
from .fourier import SpectralTable, plancherel_defect, stacked_dft, verify_coset_identities
from .pointsets import affine_flat_set, circle_set, moment_curve_set, random_point_sets
from .projection import battery_projection_stats, census_cells, explicit_bound_from_sizes
from .subspaces import (
    enumerate_subspaces,
    first_subspace,
    grassmannian,
    perp_stack,
    serialize_subspace,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.index:2d}] {status}  {self.name}: {self.detail}"

    def artifact_name(self) -> str:
        return f"c{self.index:02d}_{self.name}.csv"

    @cached_property
    def csv(self) -> str:
        """The artifact text, rendered once per result."""
        lines = [",".join(self.header)]
        lines.extend(",".join(map(_cell, row)) for row in self.rows)
        return "\n".join(lines) + "\n"


_CELL_BY_TYPE = {
    bool: lambda v: "1" if v else "0",
    int: str,
    str: str,
    float: "{:.12g}".format,
    Fraction: lambda v: f"{v.numerator}/{v.denominator}",
}


def _cell(value) -> str:
    render = _CELL_BY_TYPE.get(type(value))
    if render is None:  # subclasses and other types (numpy scalars, ...)
        render = next((_CELL_BY_TYPE[t] for t in type(value).__mro__ if t in _CELL_BY_TYPE), str)
    return render(value)


# ---------------------------------------------------------------------------
# shared deterministic batteries
# ---------------------------------------------------------------------------

_LADDER = (2, 5, 12, 30, 70, 150, 300)


def standard_sets(ambient: AmbientSpace, base_seed: int, budget=DEFAULT_POINT_BUDGET):
    """Ten deterministic test sets: seven random sizes, two flats, one union."""
    sizes = [min(raw, ambient.point_count - 1) for raw in (*_LADDER, 30)]
    seeds = [base_seed + i for i in range(len(_LADDER))] + [base_seed + 97]
    *randoms, extra = random_point_sets(ambient, sizes, seeds, budget=budget)
    out = [(f"random:{size}:{seed}", E) for size, seed, E in zip(sizes, seeds, randoms)]
    line = first_subspace(ambient, 1)
    plane = first_subspace(ambient, 2) if ambient.n >= 3 else line
    offset = decode(ambient, (base_seed * 7 + 3) % ambient.point_count)
    out.append(("flat:1", affine_flat_set(line, offset)))
    out.append(("flat:2", affine_flat_set(plane, offset)))
    out.append(("union:flat+random", affine_flat_set(line, offset).union(extra)))
    return out


_RATIO_NS = (1, 2, 4, 8)
_RATIO_C = Fraction(16)  # the report constant of every ratio audit


def battery_stats(sets, G: Family):
    """(S, K) image sizes and energies of a battery of (set_id, E) pairs."""
    return battery_projection_stats([E for _, E in sets], G)


def battery_census(sets, G: Family, C: Fraction = _RATIO_C):
    """Per set of a battery, its census cells at the thresholds N in (1, 2, 4, 8)."""
    return census_cells([E for _, E in sets], G.m, *battery_stats(sets, G), _RATIO_NS, C)


def ratio_rows(tag: str, G: Family, family_id: str, sets, census, seed_field):
    """Exceptional-ratio rows for one family over one set battery.

    `census` is battery_census(sets, G, C).  Returns (rows, all_ok); a
    row fails if ratio > C.  Thresholds are the fixed battery N in (1, 2, 4, 8).
    """
    rows = []
    all_ok = True
    for (set_id, E), cells in zip(sets, census):
        for cell in cells:
            ok = cell.within
            all_ok = all_ok and ok and cell.pairs_bound_ok
            rows.append(
                (
                    tag,
                    G.ambient.p,
                    G.ambient.n,
                    G.m,
                    family_id,
                    len(G),
                    seed_field,
                    set_id,
                    E.size,
                    cell.threshold,
                    cell.count,
                    f"{cell.bound_num}/{cell.bound_den}",
                    cell.ratio,
                    cell.pairs_bound_ok,
                    ok,
                )
            )
    return rows, all_ok


_RATIO_HEADER = (
    "tag",
    "p",
    "n",
    "m",
    "family_id",
    "family_size",
    "seed",
    "set_id",
    "set_size",
    "N",
    "exceptional_count",
    "bound",
    "ratio",
    "pairs_ok",
    "pass",
)


def random_model_grid():
    """The criterion-8 grid: (p, m, alpha) with alpha inside its legal range."""
    out = []
    for p in (7, 11):
        for m in (1, 2):
            low, high = min(m, 3 - m), m * (3 - m)
            for alpha in (Fraction(5, 4), Fraction(3, 2), Fraction(5, 2)):
                if low < alpha <= high:
                    out.append((p, m, alpha))
    return out


_RANDOM_SEED_COUNT = 20
_RANDOM_CELL_COUNT = len(random_model_grid()) * _RANDOM_SEED_COUNT


@lru_cache(maxsize=_RANDOM_CELL_COUNT)
def _random_model_battery(p: int, m: int, seed: int):
    # the battery seed does not depend on alpha: both alphas share it
    return tuple(standard_sets(AmbientSpace(p, 3), base_seed=seed * 100 + m))


@lru_cache(maxsize=_RANDOM_CELL_COUNT)
def random_model_cell(p: int, m: int, alpha: Fraction, seed: int):
    """(G, sets, census) of one criterion-6/8 cell, n = 3.

    The census is battery_census(sets, G) as nested tuples, since every
    caller gets the same objects.  An empty family has no battery: sets
    and census are ().
    """
    G = sample_random_family(RandomFamilyConfig(AmbientSpace(p, 3), m, alpha, seed))
    if len(G) == 0:
        return G, (), ()
    sets = _random_model_battery(p, m, seed)
    return G, sets, tuple(map(tuple, battery_census(sets, G)))


def package_caches() -> dict:
    """{qualified name: function} of every lru_cache in the loaded modules of the package.

    A module not yet imported has cached nothing, so these are all the
    caches that can hold a value.
    """
    prefix = __package__ + "."
    found = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith(prefix):
            continue
        owners = [module, *(value for value in vars(module).values() if isinstance(value, type))]
        for owner in owners:
            for value in vars(owner).values():
                if hasattr(value, "cache_clear"):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def clear_caches() -> None:
    """Empty every cache of the package; run_suite does so before each pass."""
    for cache in package_caches().values():
        cache.cache_clear()


def coset_identity_grid():
    return ((3, 3, 1), (3, 3, 2), (5, 3, 1), (5, 3, 2), (3, 4, 2))


def coset_identity_sets(ambient: AmbientSpace, m: int):
    """The 20 deterministic sets used by criteria 5 and 6."""
    sizes = [1 + (i * 13 + ambient.p + m) % ambient.point_count for i in range(20)]
    sets = random_point_sets(ambient, sizes, range(20))
    return [(f"random:{size}:{i}", E) for i, (size, E) in enumerate(zip(sizes, sets))]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion1() -> CriterionResult:
    """Enumerated |G(n,k)| equals the Gaussian binomial on the small grid."""
    rows = []
    passed = True
    for p in (2, 3, 5):
        for n in range(1, 5):
            ambient = AmbientSpace(p, n)
            for k in range(n + 1):
                formula = gaussian_binomial(n, k, p)
                subs = enumerate_subspaces(ambient, k)
                distinct = len(set(subs))
                ok = len(subs) == formula == distinct
                passed = passed and ok
                rows.append((p, n, k, formula, len(subs), distinct, ok))
    return CriterionResult(
        1,
        "grassmannian_counts",
        passed,
        f"{len(rows)} (p,n,k) cells, enumeration == formula",
        ("p", "n", "k", "formula", "enumerated", "distinct", "pass"),
        tuple(rows),
    )


def criterion2() -> CriterionResult:
    """Per-frequency membership counts match the exact counting identities."""
    rows = []
    passed = True
    for p in (2, 3, 5):
        for n in range(2, 5):
            ambient = AmbientSpace(p, n)
            for k in range(1, n):
                G = full_family(ambient, n - k)
                for variant in ("contains", "perp"):
                    expected = theoretical_spread_count(ambient, k, variant)
                    profile = spread_profile(G, variant)[1:]
                    ok = bool(np.all(profile == expected))
                    passed = passed and ok
                    rows.append(
                        (p, n, k, variant, expected, int(profile.min()), int(profile.max()), ok)
                    )
    return CriterionResult(
        2,
        "membership_counts",
        passed,
        "every nonzero frequency hits exactly the predicted member count",
        ("p", "n", "k", "variant", "expected", "min_count", "max_count", "pass"),
        tuple(rows),
    )


def criterion3() -> CriterionResult:
    """dim W + dim Per(W) = n and Per(Per(W)) = W on the criterion-1 grid."""
    rows = []
    passed = True
    for p in (2, 3, 5):
        for n in range(1, 5):
            ambient = AmbientSpace(p, n)
            checked = 0
            ok = True
            for k in range(n + 1):
                G = grassmannian(ambient, k)
                V = perp_stack(G)
                ok = ok and G.dim + V.dim == n and np.array_equal(perp_stack(V).bases, G.bases)
                checked += len(G)
            passed = passed and ok
            rows.append((p, n, checked, ok))
    return CriterionResult(
        3,
        "rank_nullity_duality",
        passed,
        "annihilator dimensions and involution, all enumerated subspaces",
        ("p", "n", "subspaces_checked", "pass"),
        tuple(rows),
    )


def criterion4() -> CriterionResult:
    """Plancherel defect < 1e-6 relative for 100 random sets per (p,n)."""
    rows = []
    passed = True
    for p, n in ((3, 3), (5, 3), (7, 2), (3, 4)):
        ambient = AmbientSpace(p, n)
        sizes = [1 + (i * 37) % ambient.point_count for i in range(100)]
        sets = random_point_sets(ambient, sizes, range(100))
        for part, values in stacked_dft(sets):
            for i, row in enumerate(values, part.start):
                E = sets[i]
                defect = plancherel_defect(E, SpectralTable(ambient, row))
                rel = defect / (ambient.point_count * E.size)
                ok = rel < 1e-6
                passed = passed and ok
                rows.append((p, n, i, sizes[i], defect, rel, ok))
    return CriterionResult(
        4,
        "plancherel",
        passed,
        "400 random sets, spectral mass equals p^n |E| to 1e-6 relative",
        ("p", "n", "trial", "set_size", "defect", "relative", "pass"),
        tuple(rows),
    )


def criterion5() -> CriterionResult:
    """Spatial coset energy equals its spectral evaluation, all W, 20 sets."""
    rows = []
    passed = True
    for p, n, m in coset_identity_grid():
        ambient = AmbientSpace(p, n)
        G = full_family(ambient, m)
        names = [serialize_subspace(W).replace(",", " ").replace(";", "|") for W in G]
        sets = coset_identity_sets(ambient, m)
        res = verify_coset_identities([E for _, E in sets], G, tol=1e-6)
        passed = passed and bool(res.passed.all())
        for (set_id, E), spatial, spectral, ok in zip(
            sets, res.spatial.tolist(), res.spectral.tolist(), res.passed.tolist()
        ):
            rows.extend(
                (p, n, m, set_id, E.size, *cell) for cell in zip(names, spatial, spectral, ok)
            )
    return CriterionResult(
        5,
        "coset_identity",
        passed,
        f"{len(rows)} (E, W) pairs, exact integer side vs spectral side",
        ("p", "n", "m", "set_id", "set_size", "subspace", "spatial", "spectral", "pass"),
        tuple(rows),
    )


def criterion6() -> CriterionResult:
    """Both steps of the pair-counting chain, on criteria 5 and 8 instances."""
    rows = []
    passed = True
    # step one: |E|^2 <= |image| * energy, per (E, W) of criterion 5
    for p, n, m in coset_identity_grid():
        ambient = AmbientSpace(p, n)
        G = full_family(ambient, m)
        sets = coset_identity_sets(ambient, m)
        sizes, energies = battery_stats(sets, G)
        block_ok = True
        for (set_id, E), products in zip(sets, (sizes * energies).tolist()):
            lhs = E.size * E.size
            for rhs in products:
                ok = lhs <= rhs
                block_ok = block_ok and ok
                if not ok:
                    rows.append(("pairs", p, n, m, set_id, lhs, rhs, ok))
        passed = passed and block_ok
        rows.append(("pairs", p, n, m, "all-20-sets", len(G) * 20, "", block_ok))
    # step two: |Theta| |E|^2 <= energy(E, Theta cosets) * N, criterion-8 cells
    for p, m, alpha in random_model_grid():
        block_ok = True
        for seed in range(_RANDOM_SEED_COUNT):
            G, sets, census = random_model_cell(p, m, alpha, seed)
            if len(G) == 0:
                continue
            for (set_id, _), cells in zip(sets, census):
                for cell in cells:
                    if not cell.pairs_bound_ok:
                        rows.append(("argument", p, 3, m, set_id, cell.pairs_lhs, cell.pairs_rhs, False))
                        block_ok = False
        passed = passed and block_ok
        rows.append(("argument", p, 3, m, f"alpha={alpha}", "", "", block_ok))
    return CriterionResult(
        6,
        "pair_counting_chain",
        passed,
        "exact integers on every generated instance; rows list any violation",
        ("step", "p", "n", "m", "instance", "lhs", "rhs", "pass"),
        tuple(rows),
    )


def _criterion7_battery(ambient: AmbientSpace):
    """50 sets: 38 random sizes in [p^0.5, p^1.5], 6 lines, 6 line+random unions."""
    p = ambient.p
    lo = floor_pow(p, Fraction(1, 2)) + 1  # ceil(sqrt(p)), p is never a square
    hi = floor_pow(p, Fraction(3, 2))
    sizes = [min(lo + round(i * (hi - lo) / 37), ambient.point_count) for i in range(38)]
    randoms = random_point_sets(ambient, sizes + [p] * 6, [*range(38), *range(1000, 1006)])
    sets = [(f"random:{size}:{i}", E) for i, (size, E) in enumerate(zip(sizes, randoms))]
    lines = enumerate_subspaces(ambient, 1)
    for j in range(6):
        line = lines[j % len(lines)]
        offset = decode(ambient, (5 * j + 1) % ambient.point_count)
        sets.append((f"flat:{j}", affine_flat_set(line, offset)))
    for j in range(6):
        line = lines[(2 * j + 1) % len(lines)]
        base = affine_flat_set(line, decode(ambient, j))
        sets.append((f"union:{j}", base.union(randoms[38 + j])))
    return sets


def criterion7() -> CriterionResult:
    """Explicit-constant exceptional bounds over the full line family, n = 2."""
    rows = []
    passed = True
    t_values = (Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for p in (11, 13):
        ambient = AmbientSpace(p, 2)
        sets = _criterion7_battery(ambient)
        # image sizes of every set over all of G(2, 1), one kernel call
        sizes, _ = battery_stats(sets, grassmannian(ambient, 1))
        for (set_id, E), row in zip(sets, sizes):
            if E.size <= p:
                for t in t_values:
                    q, r = t.denominator, t.numerator
                    if p**r > E.size**q:
                        continue  # t above log_p |E|: outside the claim
                    res = explicit_bound_from_sizes(E, 1, row, t=t)
                    passed = passed and res.passed
                    rows.append(
                        (p, set_id, E.size, res.branch, t, res.count, res.bound_float, res.passed)
                    )
            else:
                res = explicit_bound_from_sizes(E, 1, row)
                passed = passed and res.passed
                rows.append(
                    (p, set_id, E.size, res.branch, "", res.count, res.bound_float, res.passed)
                )
    return CriterionResult(
        7,
        "explicit_constants",
        passed,
        "small-image census beats (1/2) p^(m(n-m)-gap) with the 1/10 threshold",
        ("p", "set_id", "set_size", "branch", "t", "count", "bound", "pass"),
        tuple(rows),
    )


def criterion8() -> CriterionResult:
    """Random-model ratio audit with report constants 16 (ratio) and 8 (spread)."""
    rows = []
    spread_rows = []
    passed = True
    for p, m, alpha in random_model_grid():
        for seed in range(_RANDOM_SEED_COUNT):
            G, sets, census = random_model_cell(p, m, alpha, seed)
            family_id = f"random:{alpha}:{seed}"
            if len(G) == 0:
                spread_rows.append((p, 3, m, family_id, 0, "empty", 0, True))
                continue
            batch, ok = ratio_rows("random-model", G, family_id, sets, census, seed)
            rows.extend(batch)
            passed = passed and ok
            # spreadness with C = 8: count <= 8 |G| p^-beta, cross-multiplied
            if alpha > m:
                count = spread_containing(G).max_count
                s_ok = count * p**m <= 8 * len(G)
                spread_rows.append((p, 3, m, family_id, len(G), "contains", count, s_ok))
                passed = passed and s_ok
            if alpha > 3 - m:
                count = spread_perp(G).max_count
                s_ok = count * p ** (3 - m) <= 8 * len(G)
                spread_rows.append((p, 3, m, family_id, len(G), "perp", count, s_ok))
                passed = passed and s_ok
    spread_result_rows = tuple(
        ("spread", r[0], r[1], r[2], r[3], r[4], "", r[5], "", "", r[6], "", "", "", r[7])
        for r in spread_rows
    )
    return CriterionResult(
        8,
        "random_model_ratios",
        passed,
        f"{len(rows)} ratio cells <= 16 plus spreadness <= 8 |G| p^-beta",
        _RATIO_HEADER,
        tuple(rows) + spread_result_rows,
    )


def criterion9() -> CriterionResult:
    """Size concentration of the random model vs the Chebyshev prediction."""
    cfg = RandomFamilyConfig(AmbientSpace(7, 3), 1, Fraction(3, 2), 0)
    report = size_concentration_report(cfg, seeds=range(200))
    passed = report.fraction <= Fraction(216, 1000)
    rows = [
        (seed, size, "") for seed, size in zip(report.seeds, report.sizes)
    ]
    rows.append(("fraction", report.deviating, float(report.fraction)))
    rows.append(("chebyshev", "", report.chebyshev_bound))
    return CriterionResult(
        9,
        "size_concentration",
        passed,
        f"{report.deviating}/200 seeds deviate by more than p^alpha/2 "
        f"(bound 0.216)",
        ("seed", "family_size", "note"),
        tuple(rows),
    )


def criterion10() -> CriterionResult:
    """The circle family: exact sizes, spread <= 2, ratio audit at C = 16."""
    rows = []
    passed = True
    for p in (5, 7, 11, 13):
        # brute-force oracle for the circle size
        oracle = sum(
            1 for x1 in range(p) for x2 in range(p) if (x1 * x1 + x2 * x2) % p == 1
        )
        expected = p - 1 if p % 4 == 1 else p + 1
        S = circle_set(p)
        G = circle_family(p)
        spread = spread_perp(G).max_count
        ok = S.size == oracle == expected and len(G) == S.size and spread <= 2
        passed = passed and ok
        rows.append(
            ("summary", p, 3, 2, "circle", len(G), "", f"|S1|={S.size}", S.size, "", oracle, "", "", "", ok)
        )
        sets = standard_sets(S.ambient, base_seed=p)
        batch, ratios_ok = ratio_rows("circle", G, "circle", sets, battery_census(sets, G), "")
        rows.extend(batch)
        passed = passed and ratios_ok
    return CriterionResult(
        10,
        "circle_family",
        passed,
        "sizes p-/+1 per residue class, spread_perp <= 2, ratios <= 16",
        _RATIO_HEADER,
        tuple(rows),
    )


def criterion11() -> CriterionResult:
    """The moment-curve family: size p-1, hyperplane bound, ratio audit."""
    rows = []
    passed = True
    for p in (7, 11, 13):
        for n in (3, 4):
            S = moment_curve_set(p, n)
            G = moment_family(p, n)
            hyper = hyperplane_intersection_max(S)
            ok = len(G) == p - 1 and hyper <= n - 1
            passed = passed and ok
            rows.append(
                ("summary", p, n, n - 1, "moment", len(G), "", f"hyperplane_max={hyper}", S.size, "", hyper, "", "", "", ok)
            )
            sets = standard_sets(S.ambient, base_seed=p + n)
            batch, ratios_ok = ratio_rows("moment", G, "moment", sets, battery_census(sets, G), "")
            rows.extend(batch)
            passed = passed and ratios_ok
    return CriterionResult(
        11,
        "moment_family",
        passed,
        "|G| = p-1 exactly, hyperplanes meet the curve <= n-1 times, ratios <= 16",
        _RATIO_HEADER,
        tuple(rows),
    )


CRITERIA = (
    criterion1,
    criterion2,
    criterion3,
    criterion4,
    criterion5,
    criterion6,
    criterion7,
    criterion8,
    criterion9,
    criterion10,
    criterion11,
)


@dataclass(frozen=True)
class SuiteResult:
    results: tuple[CriterionResult, ...]  # criteria 1..12, in order

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def run_suite() -> SuiteResult:
    """Run criteria 1..11 twice; criterion 12 is byte-equality of the artifacts."""
    passes = []
    for _ in range(2):
        clear_caches()  # each pass computes everything afresh
        passes.append([fn() for fn in CRITERIA])
    first, second = passes
    mismatches = [a.artifact_name() for a, b in zip(first, second) if a.csv != b.csv]
    rows = tuple(
        (r.artifact_name(), "identical" if r.artifact_name() not in mismatches else "MISMATCH")
        for r in first
    )
    twelfth = CriterionResult(
        12,
        "determinism",
        not mismatches,
        "artifacts byte-identical across two full runs"
        if not mismatches
        else f"mismatched artifacts: {mismatches}",
        ("artifact", "status"),
        rows,
    )
    return SuiteResult(tuple(first) + (twelfth,))


def write_artifacts(suite: SuiteResult, out_dir) -> list[str]:
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for result in suite.results:
        path = os.path.join(out_dir, result.artifact_name())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(result.csv)
        written.append(path)
    return written
