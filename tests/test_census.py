"""The exceptional census over arrays against the per-row reference.

exceptional_census and census_cells count, for every (set, N) cell
at once, the members whose projection of a set has at most N
cosets.  Each test here recomputes the cells one at a time with
tests/oracles.py's exceptional_report_from_stats, which is how the
library built every census row (with Fractions) before.
"""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj import acceptance
from fpproj.families import circle_family, full_family
from fpproj.field import AmbientSpace
from fpproj.pointsets import PointSet, affine_flat_set, random_point_set
from fpproj.projection import (
    census_cells,
    exceptional_bound_check,
    exceptional_census,
    exceptional_count,
    exceptional_report_from_stats,
    explicit_bound_from_sizes,
    family_projection_stats,
)
from fpproj.subspaces import first_subspace, grassmannian
import oracles

RATIO_CONSTANTS = (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(16), Fraction(-1))


def point_sets(p, set_sizes):
    """Point sets of the given sizes in an ambient space large enough for them."""
    ambient = AmbientSpace(p, 6 if p == 2 else 4)
    return [PointSet.from_codes(ambient, range(size)) for size in set_sizes]


@st.composite
def censuses(draw):
    """(p, m, sets, sizes, energies, thresholds) with ties, N = 0 and repeats.

    Image sizes come from a small range, so rows hold many ties; size 0
    is drawn too, which no nonempty set has, so that N = 0 counts
    members.  The thresholds are unsorted, may repeat, and include 0
    and values above every size.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(1, 3))
    S = draw(st.integers(1, 5))
    K = draw(st.integers(0, 12))
    set_sizes = draw(st.lists(st.integers(1, 40), min_size=S, max_size=S))
    sizes = draw(st.lists(st.lists(st.integers(0, 6), min_size=K, max_size=K), min_size=S, max_size=S))
    energies = draw(
        st.lists(st.lists(st.integers(0, 300), min_size=K, max_size=K), min_size=S, max_size=S)
    )
    thresholds = draw(st.lists(st.integers(0, 9), max_size=8))
    return p, m, point_sets(p, set_sizes), sizes, energies, thresholds


def reference_cells(p, m, sets, sizes, energies, thresholds):
    return [
        [
            oracles.exceptional_report_from_stats(E.size, p, m, row_sizes, row_energies, N)
            for N in thresholds
        ]
        for E, row_sizes, row_energies in zip(sets, sizes, energies)
    ]


def assert_census_matches_reference(p, m, sets, sizes, energies, thresholds):
    S, T = len(sets), len(thresholds)
    counts, theta = exceptional_census(
        np.array(sizes, dtype=np.int64).reshape(S, -1),
        np.array(energies, dtype=np.int64).reshape(S, -1),
        thresholds,
    )
    stats = np.array(sizes).reshape(S, -1), np.array(energies).reshape(S, -1)
    reference = reference_cells(p, m, sets, sizes, energies, thresholds)
    assert counts.shape == theta.shape == (S, T)
    assert counts.dtype == theta.dtype == np.int64
    for C in (None, *RATIO_CONSTANTS):
        census = census_cells(sets, m, *stats, thresholds, C)
        for s, (row, ref_row) in enumerate(zip(census, reference)):
            for t, (cell, (count, theta_ref, bound, ratio, pairs_ok)) in enumerate(zip(row, ref_row)):
                assert counts[s, t] == count == cell.count
                assert theta[s, t] == theta_ref
                assert cell.threshold == thresholds[t]
                assert Fraction(cell.bound_num, cell.bound_den) == bound
                assert math.gcd(cell.bound_num, cell.bound_den) == 1
                assert type(cell.ratio) is float and cell.ratio == float(ratio)
                assert cell.within is (None if C is None else ratio <= C)
                assert cell.pairs_lhs == count * sets[s].size ** 2
                assert cell.pairs_rhs == theta_ref * thresholds[t]
                assert cell.pairs_bound_ok is pairs_ok


@settings(max_examples=200, deadline=None)
@given(censuses())
def test_census_matches_per_row_reference(case):
    assert_census_matches_reference(*case)


@settings(max_examples=60, deadline=None)
@given(censuses())
def test_one_cell_report_matches_reference(case):
    p, m, sets, sizes, energies, thresholds = case
    for E, row_sizes, row_energies in zip(sets, sizes, energies):
        for N in thresholds:
            report = exceptional_report_from_stats(
                E, m, np.array(row_sizes, dtype=np.int64), np.array(row_energies, dtype=np.int64), N
            )
            count, _, bound, ratio, pairs_ok = oracles.exceptional_report_from_stats(
                E.size, p, m, row_sizes, row_energies, N
            )
            assert (report.family_size, report.threshold) == (len(row_sizes), N)
            assert (report.count, report.bound, report.ratio) == (count, bound, ratio)
            assert report.pairs_bound_ok is pairs_ok


def test_census_of_kernel_stats_matches_reference():
    ambient = AmbientSpace(5, 3)
    sets = [random_point_set(ambient, size, seed=size) for size in (1, 7, 30, 90)]
    sets.append(affine_flat_set(first_subspace(ambient, 2), random_point_set(ambient, 1, 3).points()[0]))
    for m in (1, 2):
        G = full_family(ambient, m)
        stats = [family_projection_stats(E, G) for E in sets]
        sizes = [s.tolist() for s, _ in stats]
        energies = [e.tolist() for _, e in stats]
        assert_census_matches_reference(5, m, sets, sizes, energies, [8, 0, 3, 3, 25, 1, 200])


def test_census_products_beyond_int64_are_exact():
    # theta * N and the thresholds themselves leave the int64 range
    sets = point_sets(3, [40, 2])
    sizes = [[5, 1, 5, 3], [1, 2, 2, 1]]
    energies = [[2**40, 7, 2**41, 0], [4, 2**50, 9, 1]]
    assert_census_matches_reference(3, 2, sets, sizes, energies, [2**30, 2**70, 1, 0, 5])


def test_census_of_an_empty_family_at_thresholds_beyond_int64():
    # no member: every count, bound and ratio is 0, at any threshold
    sets = point_sets(7, [20, 1])
    huge = [7**25, 10**20, 2**63, 0, 3]
    assert_census_matches_reference(7, 1, sets, [[], []], [[], []], huge)
    for N in huge:
        report = exceptional_report_from_stats(sets[0], 1, np.zeros(0, np.int64), np.zeros(0, np.int64), N)
        assert (report.family_size, report.count, report.bound, report.ratio) == (0, 0, 0, 0)
        assert report.pairs_bound_ok


def test_census_ratios_are_correctly_rounded_at_any_size():
    # count * |E| p^m passes 2^53 here, where a float product would round
    # twice; the ratio must still equal float(Fraction(count) / bound)
    ambient = AmbientSpace(3, 2)
    sets = [SimpleNamespace(size=10**15 + 7919 * i, ambient=ambient) for i in range(6)]
    rng = np.random.default_rng(5)
    sizes = rng.integers(0, 6, size=(6, 40)).tolist()
    energies = rng.integers(0, 10**6, size=(6, 40)).tolist()
    assert_census_matches_reference(3, 2, sets, sizes, energies, [0, 1, 2, 3, 5, 7, 11])


def test_census_rejects_empty_sets_and_negative_thresholds():
    (E,) = point_sets(3, [4])
    empty = PointSet.empty(E.ambient)
    sizes = np.array([[1, 2]])
    with pytest.raises(ValueError, match="nonempty"):
        census_cells([E, empty], 1, np.vstack([sizes, sizes]), np.vstack([sizes, sizes]), [1])
    with pytest.raises(ValueError, match="nonempty"):
        exceptional_report_from_stats(empty, 1, sizes[0], sizes[0], 1)
    with pytest.raises(ValueError, match="nonnegative"):
        exceptional_census(sizes, sizes, [1, -1])
    with pytest.raises(ValueError, match="shapes"):
        exceptional_census(sizes, sizes[:, :1], [1])
    with pytest.raises(ValueError, match="int64"):
        exceptional_census(np.ones((1, 4), dtype=np.int64), np.full((1, 4), 2**62), [1])


def test_exceptional_count_is_a_census_cell():
    ambient = AmbientSpace(3, 3)
    G = full_family(ambient, 1)
    E = random_point_set(ambient, 9, seed=4)
    sizes, energies = family_projection_stats(E, G)
    for N in range(5):
        count, _, bound, ratio, pairs_ok = oracles.exceptional_report_from_stats(
            E.size, 3, 1, sizes.tolist(), energies.tolist(), N
        )
        report = exceptional_count(E, G, N)
        assert (report.count, report.bound, report.ratio, report.pairs_bound_ok) == (
            count, bound, ratio, pairs_ok
        )


# -- consumers ---------------------------------------------------------------------


def reference_ratio_rows(tag, G, family_id, sets, C, seed_field):
    """ratio_rows as it was built before: one Fraction report per (set, N).

    The bound is rendered as its lowest-terms num/den string, the text
    the CSV cell of the old Fraction was.
    """
    sizes, energies = acceptance.battery_stats(sets, G)
    rows, all_ok = [], True
    for (set_id, E), row_sizes, row_energies in zip(sets, sizes.tolist(), energies.tolist()):
        for N in (1, 2, 4, 8):
            count, _, bound, ratio, pairs_ok = oracles.exceptional_report_from_stats(
                E.size, G.ambient.p, G.m, row_sizes, row_energies, N
            )
            ok = ratio <= C
            all_ok = all_ok and ok and pairs_ok
            rows.append(
                (tag, G.ambient.p, G.ambient.n, G.m, family_id, len(G), seed_field, set_id,
                 E.size, N, count, f"{bound.numerator}/{bound.denominator}", float(ratio), pairs_ok, ok)
            )  # fmt: skip
    return rows, all_ok


def ratio_cases():
    for p in (5, 7):
        G = circle_family(p)
        yield "circle", G, "circle", acceptance.standard_sets(G.ambient, base_seed=p), ""
    for p, m, alpha in acceptance.random_model_grid()[:3]:
        G, sets, _ = acceptance.random_model_cell(p, m, alpha, 1)
        yield "random-model", G, f"random:{alpha}:1", sets, 1


@pytest.mark.parametrize("C", [Fraction(16), Fraction(1, 2)])
def test_ratio_rows_equal_reference_rows(C):
    for tag, G, family_id, sets, seed_field in ratio_cases():
        census = acceptance.battery_census(sets, G, C)
        rows, ok = acceptance.ratio_rows(tag, G, family_id, sets, census, seed_field)
        ref_rows, ref_ok = reference_ratio_rows(tag, G, family_id, sets, C, seed_field)
        assert ok == ref_ok
        assert rows == ref_rows
        # equal values of equal types, so the CSV renders the same bytes
        assert [[type(v) for v in row] for row in rows] == [[type(v) for v in row] for row in ref_rows]
    acceptance.clear_caches()


def test_criterion6_lists_a_violated_pair(monkeypatch):
    # zero one set's energies: every counted cell has count |E|^2 > 0 = theta N
    target = (*acceptance.random_model_grid()[0], 3)
    p, m, alpha, _ = target
    real_cell = acceptance.random_model_cell
    G, sets, census = real_cell(*target)
    s = next(s for s, cells in enumerate(census) if any(cell.count for cell in cells))
    sizes, energies = acceptance.battery_stats(sets, G)
    energies = energies.copy()
    energies[s] = 0
    corrupted = census_cells([E for _, E in sets], m, sizes, energies, acceptance._RATIO_NS, 16)

    def cell(*key):
        return (G, sets, corrupted) if key == target else real_cell(*key)

    monkeypatch.setattr(acceptance, "random_model_cell", cell)
    result = acceptance.criterion6()
    set_id, E = sets[s]
    violated = [
        ("argument", p, 3, m, set_id, c.count * E.size**2, 0, False) for c in census[s] if c.count
    ]
    assert not result.passed
    assert [row for row in result.rows if row[-1] is False] == [
        *violated,
        ("argument", p, 3, m, f"alpha={alpha}", "", "", False),
    ]
    acceptance.clear_caches()


# -- the explicit-constant census --------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((11, 13, 101)),
    st.integers(1, 12).flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))),
    st.data(),
)
def test_explicit_cutoffs_match_cross_multiplication(p, rq, data):
    # the small branch counts (10 size)^q <= p^r, the large 10 size <= p^m
    r, q = rq
    t = Fraction(r, q)
    ambient = AmbientSpace(p, 2)
    line = PointSet.from_codes(ambient, range(p))  # |E| = p^m, so any t <= 1 is valid
    sizes = np.array(data.draw(st.lists(st.integers(1, p), max_size=30)), dtype=np.int64)
    small = explicit_bound_from_sizes(line, 1, sizes, t)
    assert small.branch == "small"
    assert small.count == sum(1 for s in sizes.tolist() if (10 * s) ** t.denominator <= p**t.numerator)
    large = explicit_bound_from_sizes(PointSet.from_codes(ambient, range(p + 1)), 1, sizes)
    assert large.branch == "large"
    assert large.count == sum(1 for s in sizes.tolist() if 10 * s <= p)


def test_explicit_single_point_cutoff():
    ambient = AmbientSpace(11, 2)
    point = PointSet.from_codes(ambient, [5])
    sizes = np.ones(12, dtype=np.int64)
    for t, expected in ((Fraction(1, 2), 0), (Fraction(5), 12), (Fraction(1), 12)):
        res = explicit_bound_from_sizes(point, 1, sizes, t)
        assert res.vacuous and res.count == expected
        assert res.count == sum(1 for s in sizes.tolist() if (10 * s) ** t.denominator <= 11**t.numerator)


@pytest.mark.parametrize("p", [11, 13])
def test_criterion7_battery_rows_equal_per_set_checks(p):
    ambient = AmbientSpace(p, 2)
    sets = acceptance._criterion7_battery(ambient)
    sizes, _ = acceptance.battery_stats(sets, grassmannian(ambient, 1))
    for (_, E), row in zip(sets, sizes):
        t_values = (Fraction(1, 2), Fraction(3, 4), Fraction(1)) if E.size <= p else (None,)
        for t in t_values:
            if t is not None and p**t.numerator > E.size**t.denominator:
                continue
            assert explicit_bound_from_sizes(E, 1, row, t) == exceptional_bound_check(E, 1, t)
