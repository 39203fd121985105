import itertools

import numpy as np
import pytest

from fpproj.budgets import BudgetError
from fpproj.field import AmbientSpace, FpMatrix, FpVector, encode, gaussian_binomial, nullspace
from fpproj.subspaces import (
    Subspace,
    contains,
    coset_label,
    coset_points,
    enumerate_cosets,
    enumerate_subspaces,
    grassmannian,
    parse_subspace,
    perp,
    serialize_subspace,
    span_codes,
    span_of_point,
)
from oracles import (
    all_subspace_spans,
    all_vectors,
    enumerate_rref_bases,
    min_code_in_coset,
    span_set,
)


def amb(p, n):
    return AmbientSpace(p, n)


def test_subspace_rejects_non_rref_basis():
    with pytest.raises(ValueError):
        Subspace(amb(3, 2), ((2, 0),))
    with pytest.raises(ValueError):
        Subspace(amb(3, 3), ((1, 0, 0), (1, 1, 0)))


def test_from_rows_canonicalizes():
    W = Subspace.from_rows(amb(5, 2), [(2, 4)])
    assert W.basis == ((1, 2),)


def test_equality_is_basis_identity():
    a = Subspace.from_rows(amb(3, 2), [(1, 1)])
    b = Subspace.from_rows(amb(3, 2), [(2, 2)])
    assert a == b and hash(a) == hash(b)


# -- enumeration ---------------------------------------------------------


@pytest.mark.parametrize(
    "p,n,k,expected",
    [(3, 3, 2, 13), (2, 4, 2, 35), (3, 3, 0, 1), (5, 3, 1, 31)],
)
def test_enumeration_counts(p, n, k, expected):
    subs = enumerate_subspaces(amb(p, n), k)
    assert len(subs) == expected == gaussian_binomial(n, k, p)
    assert len(set(subs)) == len(subs)


def test_enumeration_matches_brute_spans():
    subs = enumerate_subspaces(amb(3, 3), 1)
    spans = {span_set(W.basis, 3, 3) for W in subs}
    assert spans == all_subspace_spans(3, 3, 1)


def test_enumeration_order_is_sorted_and_stable():
    subs = enumerate_subspaces(amb(3, 3), 2)
    keys = [W.basis for W in subs]
    assert keys == sorted(keys)
    assert subs == enumerate_subspaces(amb(3, 3), 2)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 3)])
def test_enumerated_and_perp_bases_pass_validation(p, n):
    a = amb(p, n)
    for k in range(n + 1):
        for W in enumerate_subspaces(a, k):
            assert Subspace(a, W.basis) == W
            V = perp(W)
            assert Subspace(a, V.basis) == V


def test_enumeration_budget():
    with pytest.raises(BudgetError):
        enumerate_subspaces(amb(5, 4), 2, budget=100)
    with pytest.raises(BudgetError):
        grassmannian(amb(5, 4), 2, budget=100)
    with pytest.raises(ValueError):
        grassmannian(amb(5, 4), 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_enumeration_equals_tuple_reference_in_order(p):
    for n in range(1, 5):
        a = amb(p, n)
        for k in range(n + 1):
            subs = enumerate_subspaces(a, k)
            assert [W.basis for W in subs] == enumerate_rref_bases(p, n, k)
            assert all(W.ambient == a for W in subs)
            assert grassmannian(a, k).bases.tolist() == [list(map(list, W.basis)) for W in subs]


def test_enumeration_views_are_built_once():
    a = amb(3, 4)
    assert enumerate_subspaces(a, 2) is enumerate_subspaces(a, 2)
    assert grassmannian(a, 2) is grassmannian(a, 2, budget=10**6)
    assert not grassmannian(a, 2).bases.flags.writeable


# -- perp ----------------------------------------------------------------


def test_perp_coordinate_cases():
    a = amb(3, 2)
    e1 = span_of_point(FpVector.unit(a, 0))
    assert perp(e1) == span_of_point(FpVector.unit(a, 1))
    assert perp(Subspace.full(a)) == Subspace.zero(a)
    assert perp(Subspace.zero(a)) == Subspace.full(a)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (3, 4)])
def test_perp_involution_and_rank_nullity(p, n):
    a = amb(p, n)
    for k in range(n + 1):
        for W in enumerate_subspaces(a, k):
            V = perp(W)
            assert W.dim + V.dim == n
            assert perp(V) == W


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_perp_equals_the_nullspace_path(p):
    # perp reads the pivots off the canonical basis and runs one rref;
    # nullspace reduces the basis again first
    for n in range(1, 5):
        a = amb(p, n)
        for k in range(n + 1):
            for W in enumerate_subspaces(a, k):
                assert perp(W).basis == nullspace(FpMatrix(a, W.basis)).rows


def test_perp_is_bijection_between_grassmannians():
    a = amb(3, 3)
    image = {perp(W) for W in enumerate_subspaces(a, 1)}
    assert image == set(enumerate_subspaces(a, 2))


# -- membership ----------------------------------------------------------


def test_contains_basics():
    a = amb(3, 2)
    W = span_of_point(FpVector.unit(a, 0))
    assert contains(W, FpVector.zero(a))
    assert not contains(W, FpVector.unit(a, 1))
    with pytest.raises(ValueError):
        contains(W, FpVector.zero(amb(5, 2)))


def test_contains_counts_match_span_size():
    a = amb(5, 3)
    for W in enumerate_subspaces(a, 2)[:8]:
        count = sum(
            1 for c in all_vectors(5, 3) if contains(W, FpVector(a, c))
        )
        assert count == 25
        assert len(span_codes(W)) == 25


def test_span_codes_match_oracle():
    a = amb(3, 3)
    for W in enumerate_subspaces(a, 2):
        expected = sorted(
            encode(FpVector(a, v)) for v in span_set(W.basis, 3, 3)
        )
        assert span_codes(W).tolist() == expected


# -- span of a point -----------------------------------------------------


def test_span_of_point_examples():
    a = amb(3, 2)
    assert span_of_point(FpVector.unit(a, 0)).basis == ((1, 0),)
    orbit = span_set([(1, 2)], 3, 2)
    W = span_of_point(FpVector(a, (1, 2)))
    assert span_set(W.basis, 3, 2) == orbit == {(0, 0), (1, 2), (2, 1)}
    with pytest.raises(ValueError):
        span_of_point(FpVector.zero(a))


def test_span_of_point_scalar_invariance():
    a = amb(5, 3)
    for coords in itertools.product(range(5), repeat=3):
        if coords == (0, 0, 0):
            continue
        x = FpVector(a, coords)
        for k in range(2, 5):
            assert span_of_point(x.scale(k)) == span_of_point(x)


# -- coset labels --------------------------------------------------------


def test_coset_label_worked_example():
    a = amb(3, 2)
    W = span_of_point(FpVector(a, (0, 1)))
    lbl = coset_label(W, FpVector(a, (2, 1)))
    assert lbl.representative_vector().coords == (2, 0)


def test_coset_label_in_subspace_is_zero():
    a = amb(3, 3)
    for k in (1, 2):
        for W in enumerate_subspaces(a, k):
            for row in W.basis:
                assert coset_label(W, FpVector(a, row)).representative == 0


def test_coset_label_rejects_trivial_and_full():
    a = amb(3, 2)
    with pytest.raises(ValueError):
        coset_label(Subspace.zero(a), FpVector.zero(a))
    with pytest.raises(ValueError):
        coset_label(Subspace.full(a), FpVector.zero(a))


@pytest.mark.parametrize("p,n", [(3, 3), (2, 4), (5, 2)])
def test_coset_label_is_minimum_code_exhaustive(p, n):
    a = amb(p, n)
    for k in range(1, n):
        for W in enumerate_subspaces(a, k):
            pts = span_set(W.basis, p, n)
            for coords in all_vectors(p, n):
                lbl = coset_label(W, FpVector(a, coords))
                assert lbl.representative == min_code_in_coset(coords, pts, p)


def test_coset_label_translation_invariance_exhaustive():
    a = amb(3, 3)
    for W in enumerate_subspaces(a, 2):
        pts = [FpVector(a, v) for v in span_set(W.basis, 3, 3)]
        for coords in all_vectors(3, 3):
            x = FpVector(a, coords)
            base = coset_label(W, x)
            for w in pts:
                assert coset_label(W, x + w) == base


def test_enumerate_cosets_partitions_space():
    for p, n in [(3, 2), (3, 3), (5, 3)]:
        a = amb(p, n)
        for k in range(1, n):
            for W in enumerate_subspaces(a, k)[:6]:
                labels = enumerate_cosets(W)
                assert len(labels) == p ** (n - k)
                covered = np.concatenate([coset_points(l) for l in labels])
                assert sorted(covered.tolist()) == list(range(p**n))


def test_enumerate_cosets_counts():
    assert len(enumerate_cosets(span_of_point(FpVector(amb(3, 2), (1, 1))))) == 3
    W = enumerate_subspaces(amb(5, 3), 1)[0]
    assert len(enumerate_cosets(W)) == 25


def test_labels_agree_with_enumerated_cosets():
    a = amb(3, 3)
    W = enumerate_subspaces(a, 1)[4]
    labels = enumerate_cosets(W)
    by_rep = {l.representative: l for l in labels}
    for coords in all_vectors(3, 3):
        lbl = coset_label(W, FpVector(a, coords))
        assert lbl == by_rep[lbl.representative]
        assert encode(FpVector(a, coords)) in coset_points(lbl).tolist()


# -- serialization -------------------------------------------------------


def test_serialize_round_trip():
    a = amb(3, 3)
    for W in enumerate_subspaces(a, 2):
        assert parse_subspace(a, serialize_subspace(W)) == W
    assert serialize_subspace(Subspace.zero(a)) == ""
    assert parse_subspace(a, "") == Subspace.zero(a)


def test_serialize_format():
    W = Subspace(amb(3, 3), ((1, 0, 2), (0, 1, 1)))
    assert serialize_subspace(W) == "1,0,2;0,1,1"


def test_parse_rejects_wrong_width():
    with pytest.raises(ValueError):
        parse_subspace(amb(3, 3), "1,0")
