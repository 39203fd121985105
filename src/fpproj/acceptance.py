"""The acceptance suite: 12 deterministic criteria with CSV artifacts.

Each criterion function computes what it needs from fixed parameters
and seeds and returns a CriterionResult whose rows render to a CSV
artifact, column by column (csv_text).  Criteria 6 and 8 read the
same random-model cells (family, standard battery and its exceptional
census per (p, m, alpha, seed)) through random_model_cell.  The 40
cells of each (p, m) are built together, once per pass: one stacked
draw per alpha, one stacked draw of every seed's battery, and one
family_census call over the union of the 40 families, in which each
family meets its seed's battery; criterion 8 zips its columns into
its ratio rows and criterion 6 masks them for violations.  Criterion
8's spreadness is one stacked_spread call per (p, m, alpha) row over
the same union stack.  The four (p, m) groups are kept in a bounded
cache; a criterion called alone builds the groups it misses, so its
output does not depend on what ran before it.

Criterion 12 compares the artifacts of two passes byte for byte.  Each
pass (run_pass) clears every cache of the package and then runs
criteria 1..11; pass 1 runs them in order and pass 2 from 11 down to
1, so each criterion is checked to build what it needs after the
others and before them.  Pass 2 runs in a forked child pinned to other
CPUs than pass 1 when the process can fork safely (see
_second_pass_cpus), and in-process after pass 1 otherwise.  The
artifacts are always pass 1's.
"""

from __future__ import annotations

import os
import signal
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET
from .families import (
    RandomFamilyConfig,
    circle_family,
    full_family,
    hyperplane_intersection_max,
    moment_family,
    sample_random_families,
    size_concentration_report,
    spread_perp,
    spread_profile,
    stacked_spread,
    theoretical_spread_count,
)
from .exact import floor_pow
from .field import AmbientSpace, decode, gaussian_binomial
from .fourier import SpectralTable, plancherel_defect, stacked_dft, verify_coset_identities
from .pointsets import affine_flat_set, circle_set, moment_curve_set, random_point_sets, write_text
from .projection import Census, battery_projection_stats, explicit_bound_from_sizes, family_census
from .subspaces import (
    SubspaceStack,
    csv_subspace_name,
    enumerate_subspaces,
    first_subspace,
    grassmannian,
    perp_stack,
    stack_union,
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
        return csv_text(self.header, self.rows)


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


def _column(values):
    """The rendered cells of one column, as an iterable of str.

    A column of exact table types renders with one C-level map: strs as
    they are, floats by their format, and a column of one other type
    (strs aside) by a lookup of its distinct values, each rendered once,
    since columns repeat values.  One such type at most, so that True,
    1 and Fraction(1) never share a key, and never float, whose 0.0 and
    -0.0 are one key but two cells.  Any other column goes through
    _cell value by value.
    """
    types = frozenset(map(type, values))
    if types == {str}:
        return values
    if types == {float}:
        return map(_CELL_BY_TYPE[float], values)
    if types <= _CELL_BY_TYPE.keys() and len(types - {str}) == 1 and float not in types:
        text = {value: _cell(value) for value in set(values)}
        return map(text.__getitem__, values)
    return map(_cell, values)


def csv_text(header, rows) -> str:
    """Header line, then one line per row of values rendered by _cell; no cell is quoted.

    The rows, all of one width, are rendered by column (_column), and
    each line is joined from the rendered columns.  Every CSV the
    package writes (the artifacts, sweep, identity-check) is made here.
    """
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError(f"rows of {sorted(widths)} cells; a table has one width")
    columns = [_column(values) for values in zip(*rows)]
    lines = [",".join(header), *(map(",".join, zip(*columns)) if columns else [""] * len(rows))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared deterministic batteries
# ---------------------------------------------------------------------------

_LADDER = (2, 5, 12, 30, 70, 150, 300)


def standard_sets(ambient: AmbientSpace, base_seed: int, budget=DEFAULT_POINT_BUDGET):
    """Ten deterministic test sets: seven random sizes, two flats, one union.

    The one-seed case of stacked_standard_sets.
    """
    return stacked_standard_sets(ambient, (base_seed,), budget)[0]


def stacked_standard_sets(ambient: AmbientSpace, base_seeds, budget=DEFAULT_POINT_BUDGET):
    """standard_sets of each base seed: one random_point_sets call draws every battery's randoms."""
    base_seeds = tuple(base_seeds)
    sizes = [min(raw, ambient.point_count - 1) for raw in (*_LADDER, 30)]
    steps = [*range(len(_LADDER)), 97]  # set i of base seed b has seed b + steps[i]
    randoms = random_point_sets(
        ambient, sizes * len(base_seeds), [b + step for b in base_seeds for step in steps], budget=budget
    )
    line = first_subspace(ambient, 1)
    plane = first_subspace(ambient, 2) if ambient.n >= 3 else line
    out = []
    for start, b in zip(range(0, len(randoms), len(sizes)), base_seeds):
        *drawn, extra = randoms[start : start + len(sizes)]
        offset = decode(ambient, (b * 7 + 3) % ambient.point_count)
        flat = affine_flat_set(line, offset)
        battery = [(f"random:{size}:{b + step}", E) for size, step, E in zip(sizes, steps, drawn)]
        battery.append(("flat:1", flat))
        battery.append(("flat:2", affine_flat_set(plane, offset)))
        battery.append(("union:flat+random", flat.union(extra)))
        out.append(battery)
    return out


_RATIO_NS = (1, 2, 4, 8)
_RATIO_C = Fraction(16)  # the report constant of every ratio audit


def battery_stats(sets, G: SubspaceStack):
    """(S, K) image sizes and energies of a battery of (set_id, E) pairs."""
    return battery_projection_stats([E for _, E in sets], G)


def battery_census(sets, G: SubspaceStack, C: Fraction = _RATIO_C) -> Census:
    """The (S, 4) census of a battery of (set_id, E) pairs at the thresholds N in (1, 2, 4, 8)."""
    points = [E for _, E in sets]
    return family_census((points,), G, np.arange(len(G)), (0, len(G)), (0,), _RATIO_NS, C)[0]


def ratio_rows(tag: str, G: SubspaceStack, family_id: str, sets, census: Census, seed_field):
    """Exceptional-ratio rows for one family over one set battery.

    `census` is battery_census(sets, G, C).  Returns (rows, all_ok); a
    row fails if ratio > C.  Thresholds are the fixed battery N in (1, 2, 4, 8).
    The rows are zipped from the census columns, one row per (set, N).
    """
    T = len(census.thresholds)
    p, n = G.ambient.p, G.ambient.n
    rows = list(
        zip(
            *map(repeat, (tag, p, n, G.codim, family_id, len(G), seed_field)),
            [set_id for set_id, _ in sets for _ in range(T)],
            [E.size for _, E in sets for _ in range(T)],
            census.thresholds * len(sets),
            census.count.ravel().tolist(),
            map("{}/{}".format, census.bound_num.ravel().tolist(), census.bound_den.ravel().tolist()),
            census.ratio.ravel().tolist(),
            census.pairs_bound_ok.ravel().tolist(),
            census.within.ravel().tolist(),
        )
    )
    return rows, bool(census.within.all() and census.pairs_bound_ok.all())


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
_RANDOM_GROUP_COUNT = len({(p, m) for p, m, _ in random_model_grid()})


def random_model_cell(p: int, m: int, alpha: Fraction, seed: int):
    """(G, sets, census) of one criterion-6/8 cell, n = 3.

    The census is the cell's (10, 4) Census, equal to
    battery_census(sets, G).  An empty family has no battery: sets are
    () and the census is None.  The first request for a cell of a (p, m)
    builds every cell of that grid row at once, and the row stays cached.
    """
    cells = _random_model_group(p, m).cells
    if (alpha, seed) not in cells:
        raise ValueError(f"(p={p}, m={m}, alpha={alpha}, seed={seed}) is not a random-model grid cell")
    return cells[alpha, seed]


def random_model_spreads(p: int, m: int, alpha: Fraction, variant: str):
    """stacked_spread of the 20 families of one grid row, in seed order: (counts, codes).

    The row's families are a slice of the (p, m) group's edges into its
    union stack, whose annihilators are built once for every row.
    """
    cells, union, members, edges = _random_model_group(p, m)
    row = list(cells).index((alpha, 0))
    return stacked_spread(union, variant, members, edges[row : row + _RANDOM_SEED_COUNT + 1])


class _Group(NamedTuple):
    cells: dict  # (alpha, seed) -> random_model_cell(p, m, alpha, seed), alpha-major
    union: SubspaceStack  # the distinct members of every cell's family
    members: np.ndarray  # cell c's family is union at members[edges[c]:edges[c + 1]], in cells' order
    edges: np.ndarray


@lru_cache(maxsize=_RANDOM_GROUP_COUNT)
def _random_model_group(p: int, m: int) -> _Group:
    """Every grid cell of this (p, m), with the union stack their members come from.

    The families of each alpha come from one stacked draw over the
    seeds, and every seed's battery from one stacked_standard_sets
    call.  Both alphas of a seed share its battery, whose seed
    seed*100 + m does not depend on alpha, so one family_census, with
    each family's battery its seed, counts each member of a seed's
    families once against that battery, and every cell in one census.
    """
    ambient = AmbientSpace(p, 3)
    seeds = range(_RANDOM_SEED_COUNT)
    alphas = [alpha for row_p, row_m, alpha in random_model_grid() if (row_p, row_m) == (p, m)]
    cfgs = [[RandomFamilyConfig(ambient, m, alpha, seed) for seed in seeds] for alpha in alphas]
    families = [G for row in cfgs for G in sample_random_families(row)]  # alpha-major
    union, members, edges = stack_union(families)
    batteries = [tuple(sets) for sets in stacked_standard_sets(ambient, [seed * 100 + m for seed in seeds])]
    points = [[E for _, E in sets] for sets in batteries]
    census = family_census(points, union, members, edges, np.tile(seeds, len(alphas)), _RATIO_NS, _RATIO_C)
    cells = {
        (alpha, seed): (G, batteries[seed], census[c]) if len(G) else (G, (), None)
        for c, ((alpha, seed), G) in enumerate(zip(product(alphas, seeds), families))
    }
    return _Group(cells, union, members, edges)


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
    """Empty every cache of the package; run_pass does so first."""
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
        names = [csv_subspace_name(W) for W in G]
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
            violated = ~census.pairs_bound_ok
            for s, lhs, rhs in zip(
                np.nonzero(violated)[0].tolist(),
                census.pairs_lhs[violated].tolist(),
                census.pairs_rhs[violated].tolist(),
            ):
                rows.append(("argument", p, 3, m, sets[s][0], lhs, rhs, False))
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
        # the branches whose spreadness the row audits: beta = m and beta = 3 - m
        spreads = [
            (variant, beta, random_model_spreads(p, m, alpha, variant)[0].tolist())
            for variant, beta in (("contains", m), ("perp", 3 - m))
            if alpha > beta
        ]
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
            for variant, beta, counts in spreads:
                count = counts[seed]
                s_ok = count * p**beta <= 8 * len(G)
                spread_rows.append((p, 3, m, family_id, len(G), variant, count, s_ok))
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


def run_pass(order) -> list[CriterionResult]:
    """clear_caches(), then each criterion of order; the results in criterion order."""
    clear_caches()  # each pass computes everything afresh
    return sorted((fn() for fn in order), key=attrgetter("index"))


def _second_pass() -> list[str]:
    """Pass 2's CSV texts, in criterion order; it runs the criteria from 11 down to 1."""
    return [result.csv for result in run_pass(CRITERIA[::-1])]


def _second_pass_cpus():
    """The affinity set when pass 2 can run in a forked child, else None.

    That needs os.fork and os.sched_setaffinity, two CPUs to pin the
    passes apart, and one thread: a fork copies only the calling thread,
    so a lock another thread holds would stay held in the child.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return None
    cpus = os.sched_getaffinity(0)
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # the count is unknown, so the fork is not safe
        return None
    return cpus if len(cpus) >= 2 and threads == 1 else None


def _forked_passes(cpus) -> tuple[list[CriterionResult], list[str]]:
    """Pass 1 here, pinned to min(cpus), and pass 2 in a forked child on the rest.

    The child sends its CSV texts, NUL-joined, through a pipe, or its
    traceback with exit status 1, which is raised here.  The child is
    always reaped, and killed first if this process raises.
    """
    own = min(cpus)
    read_end, write_end = os.pipe()
    try:
        try:
            os.sched_setaffinity(0, {own})
            pid = os.fork()
            if pid == 0:
                _second_pass_child(read_end, write_end, cpus - {own})
        finally:
            os.close(write_end)  # the child holds the only write end: reads end when it exits
        try:
            first = run_pass(CRITERIA)
            chunks = []
            while chunk := os.read(read_end, 1 << 16):
                chunks.append(chunk)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    finally:
        os.close(read_end)
        os.sched_setaffinity(0, cpus)
    payload = b"".join(chunks).decode()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"criterion 12's second pass failed in its forked process (exit {code}):\n{payload}")
    return first, payload.split("\0")


def _second_pass_child(read_end, write_end, cpus) -> None:
    """The forked child: pass 2 on cpus, its CSV texts or traceback into the pipe; ends with os._exit."""
    code = 1
    try:
        os.close(read_end)  # so a write fails, and does not block, if the parent has gone
        try:
            os.sched_setaffinity(0, cpus)
            payload = "\0".join(_second_pass())
            code = 0
        except BaseException:
            payload = traceback.format_exc()
        data = memoryview(payload.encode())
        while data:
            data = data[os.write(write_end, data) :]
    finally:
        os._exit(code)  # no atexit handler and no flush of the parent's buffers


def run_suite() -> SuiteResult:
    """Run criteria 1..11 twice; criterion 12 is byte-equality of the artifacts."""
    cpus = _second_pass_cpus()
    if cpus is None:
        first = run_pass(CRITERIA)
        second = _second_pass()
    else:
        first, second = _forked_passes(cpus)
    mismatches = [a.artifact_name() for a, b in zip(first, second, strict=True) if a.csv != b]
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
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for result in suite.results:
        path = os.path.join(out_dir, result.artifact_name())
        write_text(path, result.csv)
        written.append(path)
    return written
