"""Acceptance gate: every criterion runs at its stated tolerance.

The whole suite is computed once per test session (criteria 1..11 run
twice so the determinism criterion can compare artifact bytes); each
test prints its criterion's pass/fail line and asserts it.  That run
also logs, per pass, which random-model cells were sampled and how
full every cache of the package was when the pass began.
"""

import hashlib
import json
import pathlib
from collections import Counter
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest

from fpproj import acceptance
from fpproj.families import RandomFamilyConfig, sample_random_family
from fpproj.field import AmbientSpace
from fpproj.projection import battery_projection_stats, census_cells

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def logged_suite():
    """run_suite() with the random-model grid's stacked draws and kernel calls logged per pass.

    Per pass, draws counts each acceptance.sample_random_families call
    by (p, m, alpha, seeds), and kernel lists the (p, m, member count)
    of each acceptance.stacked_projection_stats call.  Also returns, per
    pass, the size of every package cache when the pass began.
    """
    passes = []
    cache_sizes = []
    first, *rest = acceptance.CRITERIA
    draw = acceptance.sample_random_families
    kernel = acceptance.stacked_projection_stats
    caches = acceptance.package_caches()

    def start_pass():
        passes.append({"draws": Counter(), "kernel": []})
        cache_sizes.append({name: cache.cache_info().currsize for name, cache in caches.items()})
        return first()

    def counted_draw(cfgs, *args, **kwargs):
        cfgs = tuple(cfgs)
        key = (cfgs[0].ambient.p, cfgs[0].m, cfgs[0].alpha, tuple(cfg.seed for cfg in cfgs))
        passes[-1]["draws"][key] += 1
        return draw(cfgs, *args, **kwargs)

    def counted_kernel(batteries, G, battery_of):
        passes[-1]["kernel"].append((G.ambient.p, G.codim, len(G)))
        return kernel(batteries, G, battery_of)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "CRITERIA", (start_pass, *rest))
        mp.setattr(acceptance, "sample_random_families", counted_draw)
        mp.setattr(acceptance, "stacked_projection_stats", counted_kernel)
        suite = acceptance.run_suite()
    return suite, passes, cache_sizes


@pytest.fixture(scope="module")
def suite(logged_suite):
    return logged_suite[0]


def _check(suite, index):
    result = suite.results[index - 1]
    assert result.index == index
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_grassmannian_counts(suite):
    result = _check(suite, 1)
    # p in {2,3,5}, n in 1..4, 0 <= k <= n: 3 * (2+3+4+5) cells
    assert len(result.rows) == 42


def test_criterion_02_membership_counts(suite):
    result = _check(suite, 2)
    assert all(row[4] == row[5] == row[6] for row in result.rows)


def test_criterion_03_rank_nullity_duality(suite):
    _check(suite, 3)


def test_criterion_04_plancherel(suite):
    result = _check(suite, 4)
    assert len(result.rows) == 400
    assert max(row[5] for row in result.rows) < 1e-6


def test_criterion_05_coset_identity(suite):
    result = _check(suite, 5)
    # 20 sets x |G(n, n-m)| per configuration
    assert len(result.rows) == 20 * (13 + 13 + 31 + 31 + 130)


def test_criterion_06_pair_counting_chain(suite):
    _check(suite, 6)


def test_criterion_07_explicit_constants(suite):
    result = _check(suite, 7)
    # 50 sets per prime; small-branch sets contribute one row per valid t
    assert len({row[1] for p in (11, 13) for row in result.rows if row[0] == p}) >= 50


def test_criterion_08_random_model_ratios(suite):
    result = _check(suite, 8)
    ratio_rows = [row for row in result.rows if row[0] == "random-model"]
    assert len(ratio_rows) == 6400
    assert all(row[-1] for row in ratio_rows)


def test_criterion_09_size_concentration(suite):
    result = _check(suite, 9)
    assert len(result.rows) == 202  # 200 seeds + 2 summary rows


def test_criterion_10_circle_family(suite):
    _check(suite, 10)


def test_criterion_11_moment_family(suite):
    _check(suite, 11)


def test_criterion_12_determinism(suite):
    result = _check(suite, 12)
    assert all(status == "identical" for _, status in result.rows)


def test_artifacts_round_trip(tmp_path, suite):
    paths = acceptance.write_artifacts(suite, tmp_path)
    assert len(paths) == 12
    for result, path in zip(suite.results, paths):
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == result.csv


def test_artifacts_match_benchmark_reference(suite):
    # the digest perfbench's accept workload checks: sorted artifact
    # names, each hashed as name NUL data NUL
    digest = hashlib.sha256()
    for result in sorted(suite.results, key=lambda r: r.artifact_name()):
        digest.update(result.artifact_name().encode() + b"\0" + result.csv.encode() + b"\0")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["accept"]
    assert digest.hexdigest() == reference


# -- random-model cells shared by criteria 6 and 8 ------------------------------


def test_each_random_model_group_built_once_per_pass(logged_suite):
    # every (p, m, alpha) is drawn once per pass over all 20 seeds, so each
    # of the 160 cells is sampled once; each (p, m) gets one kernel call
    _, passes, _ = logged_suite
    grid = acceptance.random_model_grid()
    draws = Counter((p, m, alpha, tuple(range(20))) for p, m, alpha in grid)
    groups = {(p, m) for p, m, _ in grid}
    assert len(draws) == 8 and len(groups) == 4
    assert len(passes) == 2
    for logged in passes:
        assert logged["draws"] == draws
        assert sorted((p, m) for p, m, _ in logged["kernel"]) == sorted(groups)
    assert sum(len(logged["kernel"]) for logged in passes) == 8
    # one member-battery pair per member of a seed's union of families,
    # against one per member of each cell
    unions = cells = 0
    for p, m in groups:
        for seed in range(20):
            families = [
                sample_random_family(RandomFamilyConfig(AmbientSpace(p, 3), m, alpha, seed))
                for row_p, row_m, alpha in grid
                if (row_p, row_m) == (p, m)
            ]
            unions += len(set().union(*(G.members for G in families)))
            cells += sum(len(G) for G in families)
    for logged in passes:
        assert sum(K for *_, K in logged["kernel"]) == unions == 2150
    assert cells == 3378


def per_cell_route(p, m, alpha, seed):
    """A random-model cell built on its own: one draw, battery, kernel call and census."""
    ambient = AmbientSpace(p, 3)
    G = sample_random_family(RandomFamilyConfig(ambient, m, alpha, seed))
    if len(G) == 0:
        return G, (), ()
    sets = tuple(acceptance.standard_sets(ambient, base_seed=seed * 100 + m))
    points = [E for _, E in sets]
    census = census_cells(points, m, *battery_projection_stats(points, G), (1, 2, 4, 8), Fraction(16))
    return G, sets, tuple(map(tuple, census))


def test_stacked_grid_equals_per_cell_route():
    acceptance.clear_caches()
    empty = 0
    for p, m, alpha in acceptance.random_model_grid():
        for seed in range(20):
            G, sets, census = acceptance.random_model_cell(p, m, alpha, seed)
            ref_G, ref_sets, ref_census = per_cell_route(p, m, alpha, seed)
            assert G == ref_G and G.members == ref_G.members
            assert sets == ref_sets
            assert census == ref_census
            empty += len(G) == 0
    assert empty < 160
    with pytest.raises(ValueError, match="grid cell"):
        acceptance.random_model_cell(7, 1, Fraction(5, 4), 20)
    acceptance.clear_caches()


def test_every_cache_is_empty_when_a_pass_starts(logged_suite):
    # criterion 12 compares two independent computations: no pass may
    # read a value cached by the one before it
    _, _, cache_sizes = logged_suite
    names = set(acceptance.package_caches())
    assert names >= {
        "fpproj.acceptance._random_model_group",
        "fpproj.field.digit_table",
        "fpproj.field.power_vector",
        "fpproj.subspaces._grassmannian",
        "fpproj.subspaces.perp",
        "fpproj.subspaces.span_codes",
    }
    assert len(cache_sizes) == 2
    for sizes in cache_sizes:
        assert sizes == dict.fromkeys(names, 0)


@pytest.mark.parametrize("criterion", [acceptance.criterion6, acceptance.criterion8])
def test_random_model_criterion_alone_matches_suite(suite, criterion):
    acceptance.clear_caches()
    result = criterion()
    assert result.csv == suite.results[result.index - 1].csv
    acceptance.clear_caches()


# -- CSV cell rendering ----------------------------------------------------------------


def _isinstance_cell(value):
    # the rendering _cell had before it dispatched on the exact type
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


class _Level(IntEnum):
    HIGH = 2


class _Tag(str):
    pass


class _Ratio(Fraction):
    pass


@pytest.mark.parametrize(
    "value",
    [
        True, False, 0, 1, -7, 2**70,
        0.1, -2.5e-7, 3.0, 1 / 3, float("inf"), float("nan"),
        Fraction(3, 4), Fraction(-5), Fraction(0),
        "", "random:30:7", "alpha=5/4",
        np.int64(7), np.float64(0.25), np.bool_(True), None,
        _Level.HIGH, _Tag("flat:1"), _Ratio(7, 3), np.float32(0.1),
    ],
    ids=repr,
)
def test_cell_matches_isinstance_rendering(value):
    # True must render "1", not str(True); subclasses render as their nearest
    # base in the table, other numpy scalars take str
    assert acceptance._cell(value) == _isinstance_cell(value)
