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

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def logged_suite():
    """run_suite() with each acceptance.sample_random_family call counted per pass.

    Also returns, per pass, the size of every package cache when the
    pass began.
    """
    passes = []
    cache_sizes = []
    first, *rest = acceptance.CRITERIA
    sample = acceptance.sample_random_family
    caches = acceptance.package_caches()

    def start_pass():
        passes.append(Counter())
        cache_sizes.append({name: cache.cache_info().currsize for name, cache in caches.items()})
        return first()

    def counted_sample(cfg, *args, **kwargs):
        passes[-1][(cfg.ambient.p, cfg.m, cfg.alpha, cfg.seed)] += 1
        return sample(cfg, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "CRITERIA", (start_pass, *rest))
        mp.setattr(acceptance, "sample_random_family", counted_sample)
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


def test_each_random_model_cell_sampled_once_per_pass(logged_suite):
    _, passes, _ = logged_suite
    cells = {
        (p, m, alpha, seed)
        for p, m, alpha in acceptance.random_model_grid()
        for seed in range(20)
    }
    assert len(cells) == 160
    assert len(passes) == 2
    for sampled in passes:
        assert set(sampled) == cells
        assert set(sampled.values()) == {1}
    assert sum(sum(sampled.values()) for sampled in passes) == 320


def test_every_cache_is_empty_when_a_pass_starts(logged_suite):
    # criterion 12 compares two independent computations: no pass may
    # read a value cached by the one before it
    _, _, cache_sizes = logged_suite
    names = set(acceptance.package_caches())
    assert len(names) >= 7 and "fpproj.acceptance.random_model_cell" in names
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
