import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj.budgets import BudgetError
from fpproj.field import AmbientSpace, FpVector, encode, gaussian_binomial
from fpproj import field, subspaces
from fpproj.subspaces import (
    Subspace,
    SubspaceStack,
    contains,
    coset_label,
    coset_points,
    csv_subspace_name,
    enumerate_cosets,
    enumerate_subspaces,
    grassmannian,
    parse_subspace,
    perp,
    reduce_points,
    serialize_subspace,
    span_codes,
    span_of_point,
    stack_union,
)
from oracles import (
    all_subspace_spans,
    all_vectors,
    distinct_by_lexsort,
    enumerate_rref_bases,
    line_minima_by_top_digit,
    min_code_in_coset,
    scalar_nullspace,
    span_set,
    top_one_codes,
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


def test_a_checked_basis_is_kept_reduced_mod_p():
    a = amb(3, 2)
    W = Subspace(a, ((4, 5),))
    assert W.basis == ((1, 2),) and repr(W) == "Subspace(3^2, [1,2])"
    assert W == Subspace(a, ((1, 2),)) == Subspace.from_rows(a, [(2, 1)])
    assert hash(W) == hash(Subspace(a, ((1, 2),)))
    assert Subspace(amb(5, 3), ((1, -5, 7), (5, 6, 3))).basis == ((1, 0, 2), (0, 1, 3))


# -- lines through 0 ----------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_line_codes_and_line_minima_equal_the_top_digit_oracles(p):
    for r in range(5 if p < 7 else 4):
        codes = subspaces.line_codes(p, r)
        assert codes.dtype == np.int64 and np.array_equal(codes, top_one_codes(p, r))
        assert len(codes) == (p**r - 1) // (p - 1)
        if r == 0:
            continue
        minima = line_minima_by_top_digit(p, r)
        assert codes.tolist() == sorted(set(minima) - {0})  # one smallest code per line
        line_map = subspaces._line_minima(amb(p, r))
        assert line_map.dtype == np.int64 and line_map.tolist() == minima


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


def stack_cases():
    """(name, stack): sorted, shuffled, duplicated, empty, one-member and k = 0 stacks."""
    rng = np.random.default_rng(5)
    for p, n, k in ((2, 4, 2), (3, 3, 1), (5, 3, 2), (3, 4, 3)):
        a = amb(p, n)
        G = grassmannian(a, k)
        yield "sorted", G
        yield "sorted subset", G.take(np.sort(rng.choice(len(G), len(G) // 3, replace=False)))
        yield "shuffled", G.take(rng.permutation(len(G)))
        yield "duplicated", G.take(rng.integers(0, len(G), 2 * len(G)))
        yield "sorted with a repeat", G.take(np.sort(np.r_[np.arange(len(G)), len(G) // 2]))
        yield "reversed pair", G.take([1, 0])
        yield "empty", G.take(np.arange(0))
        yield "one member", G.take([len(G) - 1])
        for K in (0, 1, 3):
            yield f"k = 0, {K} members", SubspaceStack(a, np.zeros((K, 0, n), dtype=np.int64))


@pytest.mark.parametrize("name,stack", list(stack_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_distinct_equals_the_lexsort_route(name, stack, monkeypatch):
    index = distinct_by_lexsort(stack.bases)
    out = stack.distinct()
    assert out.bases.shape == (len(index), stack.dim, stack.ambient.n)
    assert np.array_equal(out.bases, stack.bases[index])
    if np.array_equal(index, np.arange(len(stack))):
        # already sorted and distinct: the stack itself, with nothing sorted
        monkeypatch.setattr(subspaces, "stack_union", None)
        assert stack.distinct() is stack


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 3), (2, 4), (5, 2), (3, 4)]),
    st.data(),
)
def test_distinct_and_union_of_drawn_stacks(pn, data):
    # members drawn with repeats, in drawn or sorted order, as one or several stacks
    p, n = pn
    a = amb(p, n)
    G = grassmannian(a, data.draw(st.integers(0, n)))
    member = st.integers(0, len(G) - 1)
    picks = data.draw(st.lists(st.lists(member, max_size=12), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        picks = [sorted(set(pick)) for pick in picks]
    stacks = [G.take(np.array(pick, dtype=np.intp)) for pick in picks]
    for stack in stacks:
        assert np.array_equal(stack.distinct().bases, stack.bases[distinct_by_lexsort(stack.bases)])
    union, members, edges = stack_union(stacks)
    every = np.concatenate([stack.bases for stack in stacks])
    assert np.array_equal(union.bases, every[distinct_by_lexsort(every)])
    assert edges.tolist() == np.cumsum([0] + [len(pick) for pick in picks]).tolist()
    for i, stack in enumerate(stacks):
        assert np.array_equal(union.bases[members[edges[i] : edges[i + 1]]], stack.bases)


def test_take_carries_built_annihilator_rows(monkeypatch):
    a = amb(5, 4)
    stack = SubspaceStack(a, grassmannian(a, 2).bases.copy())  # rows not built yet
    indices = (np.array([3, 0, 3, 7]), np.arange(len(stack)) % 2 == 0, slice(2, 9), np.array([], dtype=np.intp))
    assert "annihilators" not in stack.take(indices[0]).__dict__  # nothing built, nothing carried
    expected = [subspaces._annihilator_rows(5, stack.bases[index]) for index in indices]
    assert stack.annihilators.shape == (len(stack), 2, 4)  # built now
    calls = []
    monkeypatch.setattr(subspaces, "_annihilator_rows", lambda *args: calls.append(args))
    for index, rows in zip(indices, expected):
        taken = stack.take(index)
        assert np.array_equal(taken.bases, stack.bases[index])
        assert taken.annihilators.shape == rows.shape and np.array_equal(taken.annihilators, rows)
        assert not taken.annihilators.flags.writeable
        # and carried on again, through a take of the take
        assert np.array_equal(taken.take(slice(None, None, -1)).annihilators, rows[::-1])
    assert calls == []


def test_stack_union_checks_its_stacks():
    a = amb(3, 3)
    with pytest.raises(ValueError, match="no stacks"):
        stack_union([])
    with pytest.raises(ValueError, match="dimension"):
        stack_union([grassmannian(a, 1), grassmannian(a, 2)])
    with pytest.raises(ValueError, match="ambient mismatch"):
        stack_union([grassmannian(a, 1), grassmannian(amb(5, 3), 1)])


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
    # the scalar nullspace of the oracles reduces row by row in Python integers
    for n in range(1, 5):
        a = amb(p, n)
        for k in range(n + 1):
            for W in enumerate_subspaces(a, k):
                assert perp(W).basis == scalar_nullspace(W.basis, p, n)


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


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_trivial_subspaces_contain_and_reduce(p, n):
    a = amb(p, n)
    zero, full = Subspace.zero(a), Subspace.full(a)
    pts = np.array(list(all_vectors(p, n)), dtype=np.int64)
    codes = np.array([encode(FpVector(a, v)) for v in all_vectors(p, n)])
    assert np.array_equal(reduce_points(zero, pts), codes)
    assert np.array_equal(reduce_points(full, pts), np.zeros(len(pts), dtype=np.int64))
    for coords in all_vectors(p, n):
        v = FpVector(a, coords)
        assert contains(zero, v) == v.is_zero()
        assert contains(full, v)


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


@pytest.mark.parametrize("p,n", [(3, 3), (2, 4), (5, 2), (3, 4)])
def test_coset_label_is_minimum_code_exhaustive(p, n):
    a = amb(p, n)
    for k in range(1, n):
        for W in enumerate_subspaces(a, k):
            pts = span_set(W.basis, p, n)
            for coords in all_vectors(p, n):
                lbl = coset_label(W, FpVector(a, coords))
                assert lbl.representative == min_code_in_coset(coords, pts, p)


def test_coset_naming_runs_no_scalar_elimination(monkeypatch):
    # once perp(W) is cached, naming cosets runs no elimination per call
    a = amb(3, 3)
    built = [W for k in (1, 2) for W in enumerate_subspaces(a, k)[::3]]
    for W in built:
        perp(W)

    def refuse(*args, **kwargs):
        raise AssertionError("elimination run while naming cosets")

    # rref, nullspace, perp and every stacked form reach field._eliminate
    monkeypatch.setattr(field, "_eliminate", refuse)
    with pytest.raises(AssertionError, match="elimination run"):
        perp(Subspace.from_rows(a, [(1, 1, 1)]))
    pts = np.array(list(all_vectors(3, 3)), dtype=np.int64)
    for W in built:
        span = span_set(W.basis, 3, 3)
        expected = [min_code_in_coset(coords, span, 3) for coords in all_vectors(3, 3)]
        assert reduce_points(W, pts).tolist() == expected
        x = (1, 2, 0)
        assert coset_label(W, FpVector(a, x)).representative == min_code_in_coset(x, span, 3)
        assert [c.representative for c in enumerate_cosets(W)] == sorted(set(expected))
        assert contains(W, FpVector(a, W.basis[0]))


def test_coset_naming_is_exact_in_every_accepted_plane():
    # x + span(1, w) meets the axis x_1 = 0 at (x_0 - x_1 / w, 0), its smallest point
    cases = [
        (2**31 + 11, 5, (0, 1), 1717986927),
        (2**31 + 11, 5, (3, 7), 1288490197),
        # the largest prime with p^2 < 2^63; Per(span(1, 1)) is span(1, p - 1),
        # so b.x = p^2 - p - 1 is the largest dot product n = 2 can reach
        (3_037_000_493, 3_037_000_492, (3_037_000_492, 3_037_000_492), 3_037_000_491),
        (3_037_000_493, 1, (3_037_000_491, 3_037_000_492), 3_037_000_492),
    ]
    for p, w, x, label in cases:
        a = amb(p, 2)
        W = Subspace.from_rows(a, [(1, w)])
        assert label == (x[0] - pow(w, -1, p) * x[1]) % p
        assert perp(W) == Subspace.from_rows(a, [(-w, 1)])
        assert coset_label(W, FpVector(a, x)).representative == label
        assert reduce_points(W, np.array([x, (label, 0)], dtype=np.int64)).tolist() == [label] * 2
        assert not contains(W, FpVector(a, x))
        assert contains(W, FpVector(a, ((x[0] - label) % p, x[1])))  # x - (label, 0)


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
    assert csv_subspace_name(W) == "1 0 2|0 1 1"


def test_parse_rejects_wrong_width():
    with pytest.raises(ValueError):
        parse_subspace(amb(3, 3), "1,0")
