import inspect

import numpy as np
import pytest

from fpproj.budgets import BudgetError
from fpproj.field import AmbientSpace, FpVector, encode, gaussian_binomial
from fpproj.fourier import (
    coset_energy_spectral,
    dft,
    plancherel_defect,
    stacked_dft,
    verify_coset_identities,
    verify_coset_identity,
)
from fpproj.pointsets import PointSet, affine_flat_set, random_point_set
from fpproj.subspaces import enumerate_subspaces, perp, span_of_point
from oracles import all_vectors, dft_direct, direct_dft_value


def amb(p, n):
    return AmbientSpace(p, n)


# -- transform ---------------------------------------------------------------


def test_dft_zero_frequency_is_cardinality():
    a = amb(5, 2)
    E = random_point_set(a, 9, seed=1)
    assert abs(dft(E).values[0] - 9) < 1e-9
    assert abs(dft_direct(E)[0] - 9) < 1e-9


def test_dft_is_the_one_transform():
    # the direct sum is a test oracle now, not a method of dft
    E = random_point_set(amb(5, 2), 9, seed=1)
    assert list(inspect.signature(dft).parameters) == ["E", "budget"]
    with pytest.raises(TypeError):
        dft(E, method="direct")
    assert np.array_equal(dft(E).values, next(stacked_dft((E,)))[1][0])


def test_dft_full_space_is_delta():
    a = amb(3, 3)
    values = dft(PointSet.full(a)).values
    assert abs(values[0] - 27) < 1e-9
    assert np.max(np.abs(values[1:])) < 1e-6


def test_dft_factored_matches_direct():
    # the FFT against the oracle's character sums, empty and full sets included
    for p, n in [(3, 2), (2, 4), (5, 3), (7, 2), (3, 1)]:
        a = amb(p, n)
        sets = [PointSet.empty(a), PointSet.full(a)]
        sets += [random_point_set(a, 1 + seed * (p**n - 1) // 5, seed=seed) for seed in range(6)]
        for E in sets:
            assert np.max(np.abs(dft(E).values - dft_direct(E))) < 1e-9


def test_dft_matches_definition_oracle():
    a = amb(5, 2)
    E = random_point_set(a, 7, seed=3)
    pts = [v.coords for v in E.points()]
    values = dft(E).values
    for xi in all_vectors(5, 2):
        expected = direct_dft_value(pts, xi, 5)
        assert abs(values[encode(FpVector(a, xi))] - expected) < 1e-9


def test_dft_conjugate_symmetry():
    a = amb(7, 2)
    E = random_point_set(a, 20, seed=4)
    values = dft(E).values
    for xi in all_vectors(7, 2):
        neg = tuple((-c) % 7 for c in xi)
        v1 = values[encode(FpVector(a, xi))]
        v2 = values[encode(FpVector(a, neg))]
        assert abs(v1 - np.conj(v2)) < 1e-9


def test_dft_linearity_on_disjoint_indicators():
    a = amb(3, 3)
    E = PointSet.from_codes(a, range(0, 10))
    F = PointSet.from_codes(a, range(10, 17))
    total = dft(E.union(F)).values
    assert np.max(np.abs(total - dft(E).values - dft(F).values)) < 1e-9


def test_dft_budget():
    with pytest.raises(BudgetError):
        dft(PointSet.empty(amb(7, 3)), budget=100)


# -- Plancherel ----------------------------------------------------------------


def test_plancherel_empty_and_singleton():
    a = amb(3, 3)
    assert plancherel_defect(PointSet.empty(a)) == 0
    assert plancherel_defect(PointSet.from_codes(a, [5])) < 1e-9


def test_plancherel_random_suite():
    a = amb(7, 2)
    for seed in range(100):
        E = random_point_set(a, 1 + (seed * 7) % 48, seed=seed)
        assert plancherel_defect(E) < 1e-6 * 49 * max(1, E.size)


# -- coset identity ---------------------------------------------------------------


def test_coset_energy_spectral_empty():
    a = amb(3, 2)
    W = span_of_point(FpVector(a, (0, 1)))
    assert coset_energy_spectral(PointSet.empty(a), W) < 1e-12


def test_coset_energy_spectral_refuses_a_subspace_of_another_space():
    # a line of F_3^2 read the transform of a set in F_5^2 at its codes and returned 12.4
    E = random_point_set(amb(5, 2), 7, seed=1)
    W = span_of_point(FpVector(amb(3, 2), (0, 1)))
    with pytest.raises(ValueError, match=r"ambient mismatch: AmbientSpace\(p=5, n=2\) vs AmbientSpace\(p=3, n=2\)"):
        coset_energy_spectral(E, W)


def test_a_spectral_table_of_another_space_is_refused():
    # the transform of the same codes in F_3^3, read as E's, gave a defect
    # of 54.0, a spectral side of 5.0 and a passing identity
    a = amb(3, 2)
    E = PointSet.from_codes(a, [1, 4, 5])
    W = span_of_point(FpVector(a, (1, 1)))
    table = dft(PointSet.from_codes(amb(3, 3), [1, 4, 5]))
    mismatch = r"ambient mismatch: AmbientSpace\(p=3, n=2\) vs AmbientSpace\(p=3, n=3\)"
    with pytest.raises(ValueError, match=mismatch):
        plancherel_defect(E, table)
    with pytest.raises(ValueError, match=mismatch):
        coset_energy_spectral(E, W, table)
    with pytest.raises(ValueError, match=mismatch):
        verify_coset_identities((E,), (W,), tables=(table,))
    with pytest.raises(ValueError, match=mismatch):
        verify_coset_identity(E, W, table=table)
    own = dft(E)
    assert plancherel_defect(E, own) == plancherel_defect(E)
    assert coset_energy_spectral(E, W, own) == coset_energy_spectral(E, W)
    assert verify_coset_identities((E,), (W,), tables=(own,)).passed.tolist() == [[True]]


def test_coset_energy_full_space():
    a = amb(3, 3)
    for m in (1, 2):
        W = enumerate_subspaces(a, 3 - m)[0]
        value = coset_energy_spectral(PointSet.full(a), W)
        assert abs(value - 3 ** (2 * 3 - m)) < 1e-6


def test_coset_energy_worked_example():
    a = amb(3, 2)
    W = span_of_point(FpVector(a, (0, 1)))
    E = PointSet.from_vectors(
        a, [FpVector(a, (0, 0)), FpVector(a, (1, 0)), FpVector(a, (1, 1))]
    )
    assert perp(W) == span_of_point(FpVector(a, (1, 0)))
    assert abs(coset_energy_spectral(E, W) - 5) < 1e-9


def test_identity_empty_set_passes():
    a = amb(3, 2)
    W = span_of_point(FpVector(a, (0, 1)))
    res = verify_coset_identity(PointSet.empty(a), W)
    assert res.spatial == 0 and res.passed


def test_identity_single_coset():
    a = amb(5, 3)
    W = enumerate_subspaces(a, 2)[3]
    E = affine_flat_set(W, FpVector(a, (1, 2, 3)))
    res = verify_coset_identity(E, W)
    assert res.spatial == 5**4 and res.passed


def test_identity_exhaustive_over_planes():
    a = amb(5, 3)
    for seed in range(20):
        E = random_point_set(a, 5 + 6 * seed % 100, seed=seed)
        table = dft(E)
        for W in enumerate_subspaces(a, 2):
            res = verify_coset_identity(E, W, tol=1e-6, table=table)
            assert res.passed


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_identity_refuses_a_tolerance_that_is_negative_or_not_finite(tol):
    # a nan or negative tol failed every pair and an infinite one passed every pair
    a = amb(3, 2)
    E = random_point_set(a, 4, seed=1)
    W = span_of_point(FpVector(a, (0, 1)))
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        verify_coset_identities((E,), (W,), tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        verify_coset_identity(E, W, tol=tol)
    assert verify_coset_identity(E, W, tol=0.0).spatial == verify_coset_identity(E, W).spatial


def test_spectral_multiplicity_identity():
    # summing spectral mass over Per(W) for all W of one dimension counts
    # xi = 0 once per member and every xi != 0 exactly |G(n-1,k)| times
    a = amb(3, 3)
    E = random_point_set(a, 10, seed=42)
    table = dft(E)
    sq = np.abs(table.values) ** 2
    for k in (1, 2):
        subs = enumerate_subspaces(a, k)
        total = sum(
            3 ** (3 - k) * coset_energy_spectral(E, W, table=table) for W in subs
        )
        mult = gaussian_binomial(2, k, 3)
        expected = len(subs) * sq[0] + mult * sq[1:].sum()
        assert abs(total - expected) <= 1e-6 * max(1.0, expected)
