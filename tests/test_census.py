"""The exceptional census over arrays against the per-row reference.

The columnar census (stacked_census) validates the (S, K) stats, bins
them by threshold and bounds every (cell, set, N) at once: the members
whose projection of a set has at most N cosets, and their summed
energy theta, read back as pairs_rhs = theta N.  Each test here
recomputes the cells one at a time with tests/oracles.py's
exceptional_report_from_stats, which is how the library built every
census row (with Fractions) before, or with its per-cell census loop
(oracles.stacked_census_cells).  A census is read as tuples zipped
from its columns (oracles.census_tuples) and compared with
oracles.typed, value and Python type together.
"""

import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj import acceptance, projection
from fpproj.families import circle_family, full_family
from fpproj.field import AmbientSpace
from fpproj.pointsets import PointSet, affine_flat_set, random_point_set
from fpproj.projection import (
    Census,
    battery_projection_stats,
    exceptional_bound_check,
    exceptional_count,
    exceptional_report_from_stats,
    explicit_bound_from_sizes,
    family_projection_stats,
    stacked_census,
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
    stats = np.array(sizes).reshape(S, -1), np.array(energies).reshape(S, -1)
    reference = reference_cells(p, m, sets, sizes, energies, thresholds)
    for C in (None, *RATIO_CONSTANTS):
        columns = stacked_census((sets,), None, m, *stats, thresholds, C)[0]
        assert columns.count.shape == columns.pairs_rhs.shape == (S, T)
        census = oracles.census_tuples(columns)
        assert len(census) == S
        for s, (row, ref_row) in enumerate(zip(census, reference)):
            assert len(row) == T
            for t, (cell, (count, theta_ref, bound, ratio, pairs_ok)) in enumerate(zip(row, ref_row)):
                N, cell_count, num, den, cell_ratio, within, lhs, rhs, ok = cell
                assert cell_count == count and type(cell_count) is int
                assert N == thresholds[t] and type(N) is int
                assert type(num) is type(den) is int
                assert Fraction(num, den) == bound
                assert math.gcd(num, den) == 1
                assert type(cell_ratio) is float and cell_ratio == float(ratio)
                assert within is (None if C is None else ratio <= C)
                assert lhs == count * sets[s].size ** 2 and type(lhs) is int
                assert rhs == theta_ref * thresholds[t] and type(rhs) is int
                assert ok is pairs_ok


@settings(max_examples=200, deadline=None)
@given(censuses())
def test_census_matches_per_row_reference(case):
    assert_census_matches_reference(*case)


def assert_matches_oracle(census, references):
    """A census with no C equals, at each (set, N), the oracle's (count, theta, bound, ratio, pairs_ok), types too.

    references[s][t] is oracles.exceptional_report_from_stats of set s
    at census.thresholds[t]; the ratio is checked as the exact Fraction
    count * bound_den / bound_num as well as its float.
    """
    assert census.within is None
    tuples = oracles.census_tuples(census)
    assert [len(row) for row in tuples] == [len(row) for row in references]
    for row, ref_row in zip(tuples, references):
        for (N, count, num, den, ratio, _, lhs, rhs, ok), (ref_count, theta, bound, ref_ratio, pairs_ok) in zip(
            row, ref_row
        ):
            assert type(num) is type(den) is int and math.gcd(num, den) == 1
            assert oracles.typed((count, Fraction(num, den), ratio, ok)) == oracles.typed(
                (ref_count, bound, float(ref_ratio), pairs_ok)
            )
            assert (Fraction(count * den, num) if num else Fraction(0)) == ref_ratio
            assert oracles.typed(rhs) == oracles.typed(theta * N) and type(lhs) is int


@settings(max_examples=60, deadline=None)
@given(censuses())
def test_one_cell_report_matches_reference(case):
    p, m, sets, sizes, energies, thresholds = case
    for E, row_sizes, row_energies in zip(sets, sizes, energies):
        for N in thresholds:
            census = exceptional_report_from_stats(
                E, m, np.array(row_sizes, dtype=np.int64), np.array(row_energies, dtype=np.int64), N
            )
            assert isinstance(census, Census) and census.thresholds == (N,)
            reference = oracles.exceptional_report_from_stats(E.size, p, m, row_sizes, row_energies, N)
            assert_matches_oracle(census, [[reference]])


@st.composite
def stacked_censuses(draw):
    """(m, batteries, sizes, energies, thresholds): 1-5 cells of S sets, some with no member."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    m = draw(st.integers(1, 3))
    S = draw(st.integers(1, 4))
    thresholds = draw(st.lists(st.integers(0, 9), max_size=6))
    batteries, sizes, energies = [], [], []
    for _ in range(draw(st.integers(1, 5))):
        K = draw(st.integers(0, 6))
        batteries.append(point_sets(p, draw(st.lists(st.integers(1, 40), min_size=S, max_size=S))))
        sizes.append(draw(st.lists(st.lists(st.integers(0, 6), min_size=K, max_size=K), min_size=S, max_size=S)))
        energies.append(
            draw(st.lists(st.lists(st.integers(0, 300), min_size=K, max_size=K), min_size=S, max_size=S))
        )
    return m, batteries, sizes, energies, thresholds


@settings(max_examples=120, deadline=None)
@given(stacked_censuses())
def test_stacked_census_equals_one_census_per_cell(case):
    m, batteries, sizes, energies, thresholds = case
    S = len(batteries[0])
    blocks = [(np.array(s, dtype=np.int64).reshape(S, -1), np.array(e, dtype=np.int64).reshape(S, -1)) for s, e in zip(sizes, energies)]
    edges = np.cumsum([0] + [s.shape[1] for s, _ in blocks])
    all_sizes = np.hstack([s for s, _ in blocks])
    all_energies = np.hstack([e for _, e in blocks])
    for C in (None, *RATIO_CONSTANTS):
        stacked = stacked_census(batteries, edges, m, all_sizes, all_energies, thresholds, C)
        assert stacked.count.shape == stacked.pairs_rhs.shape == (len(blocks), S, len(thresholds))
        for c, (sets, (s, e)) in enumerate(zip(batteries, blocks)):
            one = stacked_census((sets,), None, m, s, e, thresholds, C)[0]
            assert_same_columns(stacked[c], one)
            cells, one_cells = oracles.census_tuples(stacked[c]), oracles.census_tuples(one)
            assert oracles.typed(cells) == oracles.typed(one_cells)


def assert_same_columns(census, other):
    """Equal thresholds, and every column equal in shape, dtype and value."""
    assert census.thresholds == other.thresholds
    assert (census.within is None) == (other.within is None)
    for column, other_column in zip(census.columns(), other.columns()):
        if column is not None:
            assert column.shape == other_column.shape and column.dtype == other_column.dtype
            assert column.tolist() == other_column.tolist()


def assert_census_matches_per_cell_loop(batteries, edges, m, sizes, energies, thresholds):
    """stacked_census equals the per-cell loop, value and Python type, for every C."""
    for C in (None, *RATIO_CONSTANTS):
        census = stacked_census(batteries, edges, m, sizes, energies, thresholds, C)
        reference = oracles.stacked_census_cells(batteries, edges, m, sizes, energies, thresholds, C)
        cells = [oracles.census_tuples(census[c]) for c in range(len(reference))]
        assert oracles.typed(cells) == oracles.typed(reference)


@settings(max_examples=120, deadline=None)
@given(stacked_censuses())
def test_stacked_census_equals_the_per_cell_loop(case):
    m, batteries, sizes, energies, thresholds = case
    S = len(batteries[0])
    edges = np.cumsum([0] + [len(s[0]) for s in sizes])
    all_sizes = np.hstack([np.array(s, dtype=np.int64).reshape(S, -1) for s in sizes])
    all_energies = np.hstack([np.array(e, dtype=np.int64).reshape(S, -1) for e in energies])
    assert_census_matches_per_cell_loop(batteries, edges, m, all_sizes, all_energies, thresholds)


def test_census_columns_hold_python_integers_at_any_size():
    # the integer columns are Python integers, so products past 2^53 and
    # 2^63 stay exact; the cells agree with the per-cell loop either way
    sets = point_sets(3, [40, 2])
    sizes = np.array([[5, 1, 5, 3], [1, 2, 2, 1]])
    energies = np.array([[40, 7, 41, 0], [4, 50, 9, 1]])
    small = stacked_census((sets,), None, 2, sizes, energies, [0, 1, 5], 16)[0]
    for column in (small.count, small.bound_num, small.bound_den, small.pairs_lhs, small.pairs_rhs):
        assert column.dtype == object and {type(x) for x in column.ravel().tolist()} == {int}
    assert small.ratio.dtype == np.float64 and small.within.dtype == small.pairs_bound_ok.dtype == bool
    for big in ([0, 1, 5, 2**53], [0, 1, 5, 2**70]):
        census = stacked_census((sets,), None, 2, sizes, energies, big, 16)[0]
        cells = [row[:3] for row in oracles.census_tuples(census)]
        assert oracles.typed(cells) == oracles.typed(oracles.census_tuples(small))
        assert_census_matches_per_cell_loop([sets], None, 2, sizes, energies, big)
    for C in (Fraction(2**60, 3), Fraction(1, 2**60)):
        census = stacked_census((sets,), None, 2, sizes, energies, [0, 1, 5], C)[0]
        reference = oracles.stacked_census_cells([sets], None, 2, sizes, energies, [0, 1, 5], C)[0]
        assert oracles.typed(oracles.census_tuples(census)) == oracles.typed(reference)
    # a census of no set has no cell
    none = np.zeros((0, 4), dtype=np.int64)
    census = stacked_census(((),), None, 2, none, none, [0, 1], 16)[0]
    assert census.count.shape == (0, 2)
    assert oracles.census_tuples(census) == []


def test_census_of_the_random_model_grid_equals_the_per_cell_loop():
    # the (p, m) groups of criteria 6 and 8, against the loop they replace
    acceptance.clear_caches()
    for p, m in sorted({(p, m) for p, m, _ in acceptance.random_model_grid()}):
        group = acceptance._random_model_group(p, m)
        keys = [key for key, (G, _, _) in group.cells.items() if len(G)]
        batteries = [[E for _, E in group.cells[key][1]] for key in keys]
        sizes, energies = zip(
            *(battery_projection_stats(sets, group.cells[key][0]) for key, sets in zip(keys, batteries))
        )
        edges = np.cumsum([0] + [s.shape[1] for s in sizes])
        reference = oracles.stacked_census_cells(
            batteries, edges, m, np.hstack(sizes), np.hstack(energies), (1, 2, 4, 8), 16
        )
        cells = [oracles.census_tuples(group.cells[key][2]) for key in keys]
        assert oracles.typed(cells) == oracles.typed(reference)
    acceptance.clear_caches()


def test_stacked_census_rejects_bad_cells():
    sets = point_sets(3, [4, 2])
    sizes = np.array([[1, 2, 3], [1, 1, 2]])
    for edges in ([1, 3], [0, 2], [0, 2, 1, 3], [0], [[0, 3]]):
        with pytest.raises(ValueError, match="cell edges must rise from 0 to 3"):
            stacked_census([sets], edges, 1, sizes, sizes, [1])
    with pytest.raises(ValueError, match="cells"):
        stacked_census([sets], [0, 1, 3], 1, sizes, sizes, [1])
    with pytest.raises(ValueError, match="sets for 2 rows"):
        stacked_census([sets, sets[:1]], [0, 1, 3], 1, sizes, sizes, [1])
    with pytest.raises(ValueError, match="image sizes are nonnegative"):
        stacked_census([sets, sets], [0, 1, 3], 1, -sizes, sizes, [1])


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
        census = exceptional_report_from_stats(sets[0], 1, np.zeros(0, np.int64), np.zeros(0, np.int64), N)
        assert oracles.typed(oracles.census_tuples(census)) == oracles.typed([[(N, 0, 0, 1, 0.0, None, 0, 0, True)]])
        assert_matches_oracle(census, [[oracles.exceptional_report_from_stats(20, 7, 1, [], [], N)]])


def test_census_theta_beyond_2_to_the_53_is_exact():
    # theta sums energies past 2^53, where a float64 sum would round off the odd units
    sets = point_sets(3, [40, 2])
    sizes = [[5, 1, 5, 3, 2], [1, 2, 2, 1, 0]]
    energies = [[2**53 + 1, 7, 2**54 + 1, 0, 5], [4, 2**60 + 1, 9, 2**55 + 1, 3]]
    thresholds = [5, 2, 0, 1, 10**20]
    rhs = stacked_census((sets,), None, 2, sizes, energies, thresholds)[0].pairs_rhs
    every = [3 * 2**53 + 14, 2**60 + 2**55 + 18]
    theta = [[every[0], 12, 0, 7, every[0]], [every[1], every[1], 3, 2**55 + 8, every[1]]]
    assert rhs.tolist() == [[t * N for t, N in zip(row, thresholds)] for row in theta]
    assert_census_matches_reference(3, 2, sets, sizes, energies, thresholds)


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
        stacked_census(([E, empty],), None, 1, np.vstack([sizes, sizes]), np.vstack([sizes, sizes]), [1])
    with pytest.raises(ValueError, match="nonempty"):
        exceptional_report_from_stats(empty, 1, sizes[0], sizes[0], 1)
    with pytest.raises(ValueError, match="threshold N must be nonnegative"):
        stacked_census(([E],), None, 1, sizes, sizes, [1, -1])
    with pytest.raises(ValueError, match=r"stats of shapes \(1, 2\) and \(1, 1\); need one \(S, K\)"):
        stacked_census(([E],), None, 1, sizes, sizes[:, :1], [1])
    with pytest.raises(ValueError, match="summed energies exceed the exact int64 range"):
        stacked_census(([E],), None, 1, np.ones((1, 4), dtype=np.int64), np.full((1, 4), 2**62), [1])


def test_exceptional_count_is_a_census_cell():
    ambient = AmbientSpace(3, 3)
    G = full_family(ambient, 1)
    E = random_point_set(ambient, 9, seed=4)
    sizes, energies = family_projection_stats(E, G)
    census = exceptional_count(E, G, range(5))
    assert isinstance(census, Census) and census.thresholds == (0, 1, 2, 3, 4)
    references = [
        [oracles.exceptional_report_from_stats(E.size, 3, 1, sizes.tolist(), energies.tolist(), N) for N in range(5)]
    ]
    assert_matches_oracle(census, references)


@st.composite
def counts_on_both_routes(draw):
    """(route, E, family, thresholds): a set against some members of G(n, k).

    census_stats takes the line route when the family has more members
    than F_p^n has lines through 0, and the kernel otherwise; the route
    is drawn first and the family's size from its side of that line.
    """
    p, n, k = draw(st.sampled_from([(2, 4, 2), (3, 4, 2), (2, 5, 3), (2, 4, 1), (3, 3, 1)]))
    a = AmbientSpace(p, n)
    stack = grassmannian(a, k)
    K, L = len(stack), (p**n - 1) // (p - 1)
    route = draw(st.sampled_from(("lines", "kernel") if L < K else ("kernel",)))
    size = draw(st.integers(L + 1, K) if route == "lines" else st.integers(1, min(L, K)))
    family = stack.take(np.sort(draw(st.permutations(range(K)))[:size]))
    codes = draw(st.lists(st.integers(0, a.point_count - 1), min_size=1, max_size=20, unique=True))
    thresholds = draw(st.lists(st.one_of(st.integers(0, 25), st.sampled_from((10**20, 2**63))), max_size=6))
    return route, PointSet.from_codes(a, codes), family, thresholds


@settings(max_examples=60, deadline=None)
@given(counts_on_both_routes())
def test_exceptional_count_equals_the_oracle_on_both_routes(case):
    route, E, family, thresholds = case
    with mock.patch.object(projection, "_line_census_stats", wraps=projection._line_census_stats) as lines:
        census = exceptional_count(E, family, thresholds)
    assert lines.called == (route == "lines")
    assert census.thresholds == tuple(thresholds)
    a = E.ambient
    points = [v.coords for v in E.points()]
    spans = [oracles.span_set(W.basis, a.p, a.n) for W in family.members]
    sizes = [len(oracles.brute_projection_cosets(points, span, a.p)) for span in spans]
    energies = [oracles.energy_by_differences(points, span, a.p) for span in spans]
    assert_matches_oracle(
        census, [[oracles.exceptional_report_from_stats(E.size, a.p, family.codim, sizes, energies, N) for N in thresholds]]
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
                E.size, G.ambient.p, G.codim, row_sizes, row_energies, N
            )
            ok = ratio <= C
            all_ok = all_ok and ok and pairs_ok
            rows.append(
                (tag, G.ambient.p, G.ambient.n, G.codim, family_id, len(G), seed_field, set_id,
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
    s = next(s for s, counts in enumerate(census.count.tolist()) if any(counts))
    sizes, energies = acceptance.battery_stats(sets, G)
    energies = energies.copy()
    energies[s] = 0
    corrupted = stacked_census(([E for _, E in sets],), None, m, sizes, energies, acceptance._RATIO_NS, 16)[0]
    assert isinstance(census, Census)

    def cell(*key):
        return (G, sets, corrupted) if key == target else real_cell(*key)

    monkeypatch.setattr(acceptance, "random_model_cell", cell)
    result = acceptance.criterion6()
    set_id, E = sets[s]
    violated = [
        ("argument", p, 3, m, set_id, count * E.size**2, 0, False) for count in census.count[s].tolist() if count
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
