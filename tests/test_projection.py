from fractions import Fraction

import pytest

from fpproj.families import family, full_family
from fpproj.field import AmbientSpace, FpVector, encode
from fpproj.pointsets import PointSet, affine_flat_set, random_point_set
from fpproj.projection import (
    cauchy_schwarz_gap,
    energy,
    exceptional_bound_check,
    exceptional_count,
    family_coset_energy,
    incidence_decomposition,
    project,
)
from fpproj.subspaces import (
    CosetLabel,
    Subspace,
    enumerate_cosets,
    enumerate_subspaces,
    span_of_point,
)
from oracles import brute_energy_over_cosets, brute_projection_cosets, span_set, typed


def amb(p, n):
    return AmbientSpace(p, n)


def three_point_set():
    a = amb(3, 2)
    E = PointSet.from_vectors(
        a, [FpVector(a, (0, 0)), FpVector(a, (1, 0)), FpVector(a, (1, 1))]
    )
    W = span_of_point(FpVector(a, (0, 1)))
    return a, E, W


# -- project ---------------------------------------------------------------


def test_project_empty_set():
    a, E, W = three_point_set()
    assert project(PointSet.empty(a), W).size == 0


def test_project_full_space_hits_every_coset():
    a, _, W = three_point_set()
    img = project(PointSet.full(a), W)
    assert img.size == 3
    assert img.labels == frozenset(enumerate_cosets(W))


def test_project_worked_example():
    a, E, W = three_point_set()
    img = project(E, W)
    assert img.size == 2
    assert sorted(l.representative for l in img.labels) == [
        encode(FpVector(a, (0, 0))),
        encode(FpVector(a, (1, 0))),
    ]


def test_project_rejects_mismatch_and_trivial():
    a, E, W = three_point_set()
    with pytest.raises(ValueError):
        project(PointSet.empty(amb(5, 2)), W)
    with pytest.raises(ValueError):
        project(E, Subspace.full(a))


@pytest.mark.parametrize("p,n,m", [(3, 3, 1), (3, 3, 2), (5, 2, 1)])
def test_project_matches_brute_force(p, n, m):
    a = amb(p, n)
    E = random_point_set(a, min(7, p**n // 2), seed=p * n + m)
    pts = [v.coords for v in E.points()]
    for W in enumerate_subspaces(a, n - m):
        expected = len(brute_projection_cosets(pts, span_set(W.basis, p, n), p))
        assert project(E, W).size == expected


def test_lagrange_bound_and_monotonicity():
    a = amb(3, 3)
    E = random_point_set(a, 9, seed=2)
    F = E.union(random_point_set(a, 9, seed=3))
    for m in (1, 2):
        for W in enumerate_subspaces(a, 3 - m):
            small = project(E, W)
            assert small.size <= min(E.size, 3**m)
            assert small.labels <= project(F, W).labels


# -- energy ------------------------------------------------------------------


def test_energy_empty_set():
    a, _, W = three_point_set()
    assert energy(PointSet.empty(a), enumerate_cosets(W)) == 0


def test_energy_single_point_over_all_cosets():
    a, _, W = three_point_set()
    single = PointSet.from_codes(a, [4])
    assert energy(single, enumerate_cosets(W)) == 1


def test_energy_worked_example():
    a, E, W = three_point_set()
    assert energy(E, enumerate_cosets(W)) == 5


def test_energy_matches_brute_force():
    a = amb(3, 3)
    E = random_point_set(a, 8, seed=11)
    pts = [v.coords for v in E.points()]
    for W in enumerate_subspaces(a, 2):
        expected = brute_energy_over_cosets(pts, span_set(W.basis, 3, 3), 3, 3)
        assert energy(E, enumerate_cosets(W)) == expected


def test_energy_refuses_a_label_that_names_no_coset():
    # W = span((0,0,1)) in F_3^3: codes 8 = (2,2,0) and 17 = (2,2,1) share the coset named 8
    a = amb(3, 3)
    W = Subspace(a, ((0, 0, 1),))
    E = PointSet.from_codes(a, [8, 17])
    assert energy(E, [CosetLabel(W, 8)]) == 4
    assert energy(E, [CosetLabel(W, 8), CosetLabel(W, 0)]) == 4
    for rep in (26, 17, 10**30, -1, 27):  # 26 and 17 lie in coset 8, the rest in no code
        with pytest.raises(ValueError, match=f"representative {rep} names no coset of"):
            energy(E, [CosetLabel(W, 8), CosetLabel(W, rep)])
        with pytest.raises(ValueError, match=f"representative {rep} names no coset of"):
            energy(PointSet.empty(a), [CosetLabel(W, rep)])
    with pytest.raises(ValueError):  # an empty set of another space is refused as a nonempty one is
        energy(PointSet.empty(amb(3, 2)), [CosetLabel(W, 8)])


# -- family energy and incidences ---------------------------------------------


def test_family_energy_singleton_matches_energy():
    a, E, W = three_point_set()
    G = family(a, 1, (W,))
    assert family_coset_energy(E, G) == energy(E, enumerate_cosets(W)) == 5


def test_family_energy_empty_set():
    a, _, W = three_point_set()
    assert family_coset_energy(PointSet.empty(a), family(a, 1, (W,))) == 0


def test_family_energy_rejects_mixed_dimensions():
    a = amb(3, 3)
    line = enumerate_subspaces(a, 1)[0]
    plane = enumerate_subspaces(a, 2)[0]
    with pytest.raises(ValueError):
        family_coset_energy(PointSet.empty(a), [line, plane])


def test_incidence_decomposition_worked_example():
    a, E, W = three_point_set()
    G = family(a, 1, (W,))
    I, P2 = incidence_decomposition(E, G)
    assert (I, P2) == (3, 2)
    assert I + P2 == family_coset_energy(E, G) == 5


def test_incidence_identity_random_families():
    a = amb(3, 3)
    for m in (1, 2):
        G = full_family(a, m)
        for seed in range(4):
            E = random_point_set(a, 6 + seed, seed=seed)
            I, P2 = incidence_decomposition(E, G)
            assert I == len(G) * E.size
            assert I + P2 == family_coset_energy(E, G)
            single = random_point_set(a, 1, seed=seed)
            I1, P1 = incidence_decomposition(single, G)
            assert (I1, P1) == (len(G), 0)


# -- Cauchy-Schwarz chain -------------------------------------------------------


def test_cauchy_schwarz_empty_and_full_fiber():
    a, _, W = three_point_set()
    assert cauchy_schwarz_gap(PointSet.empty(a), W) == (0, 0)
    coset = affine_flat_set(W, FpVector(a, (1, 0)))
    lhs, rhs = cauchy_schwarz_gap(coset, W)
    assert lhs == rhs == 9


def test_cauchy_schwarz_exhaustive_sweep():
    a = amb(5, 3)
    E = random_point_set(a, 30, seed=7)
    for W in enumerate_subspaces(a, 2):
        lhs, rhs = cauchy_schwarz_gap(E, W)
        assert lhs <= rhs


# -- exceptional counts ----------------------------------------------------------


def test_exceptional_count_zero_threshold():
    a, E, W = three_point_set()
    G = full_family(a, 1)
    census = exceptional_count(E, G, [0])
    assert census.thresholds == (0,)
    columns = (census.count, census.bound_num, census.bound_den, census.ratio, census.pairs_bound_ok)
    assert typed([c.tolist() for c in columns]) == typed([[[0]], [[0]], [[1]], [[0.0]], [[True]]])


def test_exceptional_count_lagrange_threshold():
    a, E, W = three_point_set()
    G = full_family(a, 1)
    census = exceptional_count(E, G, [3])
    assert typed(census.count.tolist()) == typed([[len(G)]])


def test_exceptional_count_brute_force_example():
    a, E, W = three_point_set()
    G = full_family(a, 1)
    assert len(G) == 4
    expected = sum(1 for V in G if project(E, V).size <= 2)
    census = exceptional_count(E, G, [2])
    bound = Fraction(4 * 2 * (3 + 3), 3 * 3)
    columns = (census.count, census.bound_num, census.bound_den, census.ratio, census.pairs_bound_ok)
    [[count]], [[num]], [[den]], [[ratio]], [[ok]] = (c.tolist() for c in columns)
    assert typed((count, num, den, ok)) == typed((expected, bound.numerator, bound.denominator, True))
    assert Fraction(count * den, num) == Fraction(expected) / bound
    assert typed(ratio) == typed(float(Fraction(expected) / bound))


def test_exceptional_count_rejects_empty_set():
    a, _, W = three_point_set()
    with pytest.raises(ValueError, match="nonempty"):
        exceptional_count(PointSet.empty(a), full_family(a, 1), [1])


def test_exceptional_count_rejects_empty_family():
    a, _, W = three_point_set()
    with pytest.raises(ValueError, match="empty family"):
        exceptional_count(random_point_set(a, 3, seed=1), [], [1])


def test_pairs_inequality_holds_on_sweep():
    a = amb(3, 3)
    for m in (1, 2):
        G = full_family(a, m)
        for seed in range(5):
            E = random_point_set(a, 5 + 3 * seed, seed=seed)
            census = exceptional_count(E, G, (1, 2, 4, 9))
            assert typed(census.pairs_bound_ok.tolist()) == typed([[True] * 4])
            assert (census.pairs_lhs <= census.pairs_rhs).all()


def test_exceptional_count_agrees_with_per_subspace_recount():
    for p, n in [(2, 3), (3, 2), (3, 3)]:
        a = amb(p, n)
        for m in range(1, n):
            G = full_family(a, m)
            E = random_point_set(a, max(2, p, p**n // 3), seed=n + m)
            thresholds = range(0, p**m + 1)
            recount = [sum(1 for W in G if project(E, W).size <= N) for N in thresholds]
            assert typed(exceptional_count(E, G, thresholds).count.tolist()) == typed([recount])


# -- explicit-constant check -----------------------------------------------------


def test_explicit_check_single_point_vacuous():
    a = amb(11, 2)
    E = PointSet.from_codes(a, [17])
    res = exceptional_bound_check(E, 1, t=Fraction(1, 2))
    assert res.vacuous and res.passed and res.branch == "small"


def test_explicit_check_full_line_boundary():
    a = amb(11, 2)
    line = affine_flat_set(span_of_point(FpVector(a, (1, 0))), FpVector.zero(a))
    assert line.size == 11  # s = 1 = m, branch 'small', t = 1 allowed
    res = exceptional_bound_check(line, 1, t=Fraction(1))
    # threshold 11/10: only the line's own direction projects to one coset
    assert res.branch == "small" and res.count == 1 and res.passed


def test_explicit_check_random_eleven_points():
    a = amb(11, 2)
    E = random_point_set(a, 11, seed=0)
    res = exceptional_bound_check(E, 1, t=Fraction(1))
    assert res.branch == "small" and res.passed
    # exhaustive recount at the exact threshold floor(11/10) = 1
    expected = sum(1 for W in enumerate_subspaces(a, 1) if project(E, W).size <= 1)
    assert res.count == expected


def test_explicit_check_large_branch():
    a = amb(11, 2)
    E = random_point_set(a, 30, seed=1)  # |E| > p, branch 'large'
    res = exceptional_bound_check(E, 1)
    assert res.branch == "large"
    assert res.bound == Fraction(11**2, 2 * 30)
    assert res.passed  # no projection of 30 points fits in one coset of 11


def test_explicit_check_rejects_t_above_s():
    a = amb(11, 2)
    E = random_point_set(a, 5, seed=2)  # s < 1/2 would need p^t <= 5
    with pytest.raises(ValueError):
        exceptional_bound_check(E, 1, t=Fraction(1))


def test_explicit_check_requires_t_on_small_branch():
    a = amb(11, 2)
    E = random_point_set(a, 5, seed=2)
    with pytest.raises(ValueError):
        exceptional_bound_check(E, 1)
