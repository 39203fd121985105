"""Acceptance gate: every criterion runs at its stated tolerance.

The whole suite is computed once per test session (criteria 1..11 run
twice so the determinism criterion can compare artifact bytes); each
test prints its criterion's pass/fail line and asserts it.
"""

import hashlib
import json
import pathlib

import pytest

from fpproj import acceptance

REFERENCE = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def suite():
    return acceptance.run_suite()


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
            assert fh.read() == acceptance.render_csv(result)


def test_artifacts_match_benchmark_reference(suite):
    # the digest perfbench's accept workload checks: sorted artifact
    # names, each hashed as name NUL data NUL
    digest = hashlib.sha256()
    for result in sorted(suite.results, key=lambda r: r.artifact_name()):
        digest.update(result.artifact_name().encode() + b"\0" + result.csv.encode() + b"\0")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["accept"]
    assert digest.hexdigest() == reference
