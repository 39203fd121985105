"""Line energies, and the census that fiber-counts only what Cauchy-Schwarz leaves open.

line_energies gives each set's energy E_l along every line l through 0;
summed over the lines of Per(W) they give every member's energy in
integers.  The tests here check those energies against the fiber kernel
and against first principles (tests/oracles.py: all cosets, the
difference histogram, the transform line by line), and the census of
census_stats, which fiber-counts only the candidates, against the
census of every image size (oracles.unpruned_census).
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fpproj.projection
from fpproj.budgets import BudgetError
from fpproj.families import full_family
from fpproj.field import AmbientSpace, FpVector, decode_array, encode_array
from fpproj.fourier import dft
from fpproj.pointsets import PointSet, affine_flat_set, moment_curve_set, random_point_set, random_point_sets
from fpproj.projection import (
    _line_census_stats,
    battery_projection_stats,
    census_stats,
    family_census,
    line_energies,
    stacked_census,
    stacked_projection_stats,
)
from fpproj.subspaces import (
    SubspaceStack,
    _line_minima,
    enumerate_subspaces,
    first_subspace,
    grassmannian,
    stacked_span_codes,
)
import oracles


def zeros(G):
    return np.zeros(len(G), dtype=np.int64)


def line_route(batteries, G, battery_of, thresholds=()):
    """The line route of census_stats, whatever the sizes say."""
    batteries = tuple(map(tuple, batteries))
    stack = SubspaceStack.of(batteries[0][0].ambient, None, G)
    return _line_census_stats(batteries, stack, np.asarray(battery_of), thresholds, None)


def is_line_minimum(coords):
    """Whether a nonzero point is its line's smallest code: its top nonzero coordinate is 1."""
    nonzero = np.flatnonzero(coords)
    return nonzero.size > 0 and coords[nonzero[-1]] == 1


def points_of(E):
    return [tuple(row) for row in E.coordinates().tolist()]


# -- the line energies -------------------------------------------------------------


@pytest.mark.parametrize(
    "p,n", [(2, 1), (11, 1), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]
)
def test_line_energies_count_every_line_directly(p, n):
    a = AmbientSpace(p, n)
    sets = [
        random_point_set(a, max(1, a.point_count // 3), seed=p + n),
        PointSet.empty(a),
        PointSet.full(a),
        PointSet.from_codes(a, [a.point_count - 1]),
    ]
    table = line_energies(sets, a)
    assert table.shape == (len(sets), a.point_count) and table.dtype == np.int64
    xi = decode_array(a, np.arange(a.point_count))
    for E, row in zip(sets, table):
        X = E.coordinates()
        for code, coords in enumerate(xi):
            if is_line_minimum(coords):
                counts = np.bincount(X @ coords % p, minlength=p)
                assert row[code] == int(counts @ counts)
            else:
                assert row[code] == 0
    # one point is alone on every hyperplane through it; all of F_p^n puts p^(n-1) points on each
    assert set(table[3][table[3] > 0].tolist()) == {1}
    assert set(table[2][table[2] > 0].tolist()) == {p ** (2 * n - 1)}


def test_line_energies_check_the_budget_before_allocating(monkeypatch):
    big = AmbientSpace(2, 40)
    E = PointSet.from_codes(big, [1, 2, 3])

    def no_decode(*args):
        raise AssertionError("points decoded before the budget check")

    monkeypatch.setattr(fpproj.projection, "decode_array", no_decode)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="line energies"):
            line_energies([E], big)  # 2^40 entries per set would be 8 TiB
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    small = AmbientSpace(3, 3)
    with pytest.raises(BudgetError):
        line_energies([random_point_set(small, 5, 1)], small, budget=26)
    with pytest.raises(ValueError, match="ambient mismatch"):
        line_energies([E], small)
    monkeypatch.undo()
    F = random_point_set(small, 5, 1)
    assert np.array_equal(line_energies([F], small, budget=27), line_energies([F], small, budget=None))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 5), (3, 3), (3, 4), (5, 3), (7, 3), (11, 3)])
def test_annihilator_line_points_are_their_lines_smallest_codes(p, n):
    # the census keys each member's lines by these points as they come
    a = AmbientSpace(p, n)
    for k in range(1, n):
        G = grassmannian(a, k)
        for _, codes in stacked_span_codes(a, G.annihilators, lines=True):
            assert np.array_equal(_line_minima(a)[codes], codes)
            assert codes.shape[1] == (p ** (n - k) - 1) // (p - 1)


ORACLE_GRID = [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 3, 1), (3, 3, 2), (2, 4, 2), (3, 4, 2), (5, 3, 2)]


@pytest.mark.parametrize("p,n,m", ORACLE_GRID)
def test_member_energies_by_line_equal_the_kernel_and_the_oracles(p, n, m):
    a = AmbientSpace(p, n)
    G = full_family(a, m)
    sets = [
        random_point_set(a, min(9, a.point_count - 1), seed=7 * p + n),
        affine_flat_set(first_subspace(a, 1), FpVector(a, (1,) * n)),
        PointSet.from_codes(a, [a.point_count - 1]),
        PointSet.empty(a),
    ]
    _, kernel = battery_projection_stats(sets, G)
    _, by_line = line_route([sets], G, zeros(G))
    assert by_line.tolist() == kernel.tolist()
    for E, row in zip(sets, by_line.tolist()):
        pts = points_of(E)
        for W, energy in zip(G, row):
            span = oracles.span_set(W.basis, p, n)
            assert energy == oracles.energy_by_differences(pts, span, p)
            if a.point_count <= 27:
                assert energy == oracles.brute_energy_over_cosets(pts, span, p, n)


@pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (7, 2), (3, 4)])
def test_transform_mass_on_each_line_is_its_exact_energy(p, n):
    # sum over lambda != 0 of |E_hat(lambda xi)|^2 = p E_l - |E|^2, within
    # the criterion-4 tolerance, and the lines and 0 add up to p^n |E| exactly
    a = AmbientSpace(p, n)
    sizes = [1, 2, 7, a.point_count // 2, a.point_count]
    sets = random_point_sets(a, sizes, range(len(sizes)))
    table = line_energies(sets, a)
    xi = decode_array(a, np.arange(a.point_count))
    multiples = np.arange(1, p)[:, None, None] * xi[None] % p  # (p - 1, p^n, n)
    codes = encode_array(a, multiples.reshape(-1, n)).reshape(p - 1, a.point_count)
    for E, row in zip(sets, table.tolist()):
        mass = np.abs(dft(E).values) ** 2
        e2 = E.size * E.size
        lines = [c for c in range(a.point_count) if is_line_minimum(xi[c])]
        assert len(lines) == (a.point_count - 1) // (p - 1)
        for c in lines:
            exact = p * row[c] - e2
            assert abs(float(mass[codes[:, c]].sum()) - exact) <= 1e-6 * max(1, exact)
        assert e2 + sum(p * row[c] - e2 for c in lines) == a.point_count * E.size


@st.composite
def members_and_sets(draw, max_batteries=1):
    """(ambient, members, batteries, battery_of): a few members of G(n, n-m) and small sets."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    a = AmbientSpace(p, n)
    G = enumerate_subspaces(a, n - m)
    picks = draw(st.lists(st.integers(0, len(G) - 1), min_size=1, max_size=8, unique=True))
    S = draw(st.integers(1, 3))
    B = draw(st.integers(1, max_batteries))
    code = st.integers(0, a.point_count - 1)
    batteries = [
        [PointSet.from_codes(a, draw(st.lists(code, max_size=20, unique=True))) for _ in range(S)]
        for _ in range(B)
    ]
    battery_of = np.array(draw(st.lists(st.integers(0, B - 1), min_size=len(picks), max_size=len(picks))))
    return a, tuple(G[i] for i in picks), batteries, battery_of


@settings(max_examples=120, deadline=None)
@given(members_and_sets())
def test_kernel_lines_and_differences_agree(case):
    a, members, (sets,), battery_of = case
    _, kernel = battery_projection_stats(sets, members)
    _, by_line = line_route([sets], members, battery_of)
    assert by_line.tolist() == kernel.tolist()
    for E, row in zip(sets, kernel.tolist()):
        pts = points_of(E)
        assert row == [oracles.energy_by_differences(pts, oracles.span_set(W.basis, a.p, a.n), a.p) for W in members]


# -- the pruned census -------------------------------------------------------------


def expected_census_sizes(sizes, energies, batteries, battery_of, q, thresholds):
    """The census sizes the documentation promises: exact for candidates, min(|E|, p^m) otherwise."""
    out = np.array(sizes, dtype=np.int64)
    for s, (row, energy_row) in enumerate(zip(out, energies)):
        for k, battery in enumerate(battery_of.tolist()):
            e = batteries[battery][s].size
            cap = min(e, q)
            nstar = max((N for N in thresholds if N < cap), default=-1)
            if not e * e <= nstar * int(energy_row[k]):
                row[k] = cap
    return out


def assert_pruned_census_is_exact(sets, G, thresholds, C=16):
    """Both the census_stats entry and its line route give the unpruned census, column for column."""
    stack = getattr(G, "stack", G)
    reference = oracles.unpruned_census(sets, stack, thresholds, C)
    sizes, energies = battery_projection_stats(sets, stack)
    q = stack.ambient.p**stack.codim
    clipped = expected_census_sizes(sizes, energies, [sets], zeros(stack), q, thresholds)
    by_line = line_route([sets], stack, zeros(stack), thresholds)
    assert by_line[0].tolist() == clipped.tolist()
    for got_sizes, got_energies in (census_stats([sets], stack, zeros(stack), thresholds), by_line):
        assert got_energies.tolist() == energies.tolist()
        assert ((got_sizes == sizes) | (got_sizes == clipped)).all()
        census = stacked_census((sets,), None, stack.codim, got_sizes, got_energies, thresholds, C)[0]
        for column, ref_column in zip(census.columns(), reference.columns()):
            assert column.tolist() == ref_column.tolist()


def standard_battery(a):
    """Random sets on both sides of p^m, a line, a plane, a single point and, for odd p, the moment curve."""
    p, n = a.p, a.n
    offset = FpVector(a, (1,) * n)
    sets = [
        *random_point_sets(a, [min(40, a.point_count - 1), 7, 3], [1, 2, 3]),
        affine_flat_set(first_subspace(a, 1), offset),
        affine_flat_set(first_subspace(a, 2), offset),
        PointSet.from_codes(a, [5]),
    ]
    return sets + ([moment_curve_set(p, n)] if p > 2 else [])


THRESHOLDS = [
    [0],
    [1, 2, 4, 8],
    [9, 3, 100, 0, 1, 3],  # any order, repeats, and past |E| and p^m
    [24, 25, 26, 39, 40, 41, 6, 7, 8],  # around p^m = 25 and |E| = 40, 7
    [],
    [2**63, 10**20, 1],  # thresholds beyond int64 never become N*
]


@pytest.mark.parametrize("p,n,m", [(3, 4, 2), (5, 4, 2), (2, 4, 2), (2, 4, 1), (3, 4, 1), (3, 4, 3), (2, 5, 2)])
@pytest.mark.parametrize("thresholds", THRESHOLDS, ids=range(len(THRESHOLDS)))
def test_pruned_census_equals_the_census_of_every_image_size(p, n, m, thresholds):
    a = AmbientSpace(p, n)
    assert_pruned_census_is_exact(standard_battery(a), full_family(a, m), thresholds)


def test_ties_at_the_cauchy_schwarz_bound_are_counted():
    # a line of p points meets one coset of each member containing its
    # direction: |E|^2 = p^2 = 1 * energy, a tie at N* = 1
    a = AmbientSpace(5, 4)
    G = full_family(a, 2)
    line = affine_flat_set(first_subspace(a, 1), FpVector(a, (0, 1, 2, 3)))
    sizes, energies = battery_projection_stats([line], G)
    ties = (sizes[0] == 1) & (energies[0] == 25)
    assert ties.sum() == 31  # the planes through the line's direction
    got, _ = line_route([[line]], G, zeros(G), [1])
    assert (got[0][ties] == 1).all()
    assert_pruned_census_is_exact([line], G, [1])
    assert_pruned_census_is_exact([line], G, [1, 30])


def test_no_candidate_runs_no_kernel(monkeypatch):
    a = AmbientSpace(11, 4)
    G = full_family(a, 2)
    sets = random_point_sets(a, [300, 150], [1, 2])
    calls = []

    def counted(*args):
        calls.append(len(args[1]))
        return stacked_projection_stats(*args)

    monkeypatch.setattr(fpproj.projection, "stacked_projection_stats", counted)
    sizes, energies = census_stats([sets], G, zeros(G), [1, 2, 4, 8])
    assert calls == []  # no member of G(4,2)/F_11 puts 300 or 150 random points in 8 cosets
    assert sizes.tolist() == [[121] * len(G), [121] * len(G)]
    monkeypatch.undo()
    assert energies.tolist() == battery_projection_stats(sets, G)[1].tolist()
    # the moment curve's 10 points leave candidates, which alone are counted, against it alone
    monkeypatch.setattr(fpproj.projection, "stacked_projection_stats", counted)
    census_stats([[*sets, moment_curve_set(11, 4)]], G, zeros(G), [1, 2, 4, 8])
    assert len(calls) == 1 and 0 < calls[0] < len(G)


@settings(max_examples=120, deadline=None)
@given(members_and_sets(max_batteries=3), st.lists(st.integers(0, 30), max_size=5))
def test_stacked_line_route_equals_the_kernel_per_battery(case, thresholds):
    a, members, batteries, battery_of = case
    stack = SubspaceStack.of(a, members[0].dim, members)
    sizes, energies = stacked_projection_stats(batteries, stack, battery_of)
    got_sizes, got_energies = line_route(batteries, stack, battery_of, thresholds)
    assert got_energies.tolist() == energies.tolist()
    q = a.p**stack.codim
    expected = expected_census_sizes(sizes, energies, batteries, battery_of, q, thresholds)
    assert got_sizes.tolist() == expected.tolist()
    # every threshold counts each (set, member) the same way
    for N in thresholds:
        assert ((got_sizes <= N) == (sizes <= N)).all()


@pytest.fixture
def routes(monkeypatch):
    """The names of the census routes taken, in call order."""
    taken = []
    for name in ("_line_census_stats", "stacked_projection_stats"):
        original = getattr(fpproj.projection, name)

        def spy(*args, name=name, original=original):
            taken.append(name)
            return original(*args)

        monkeypatch.setattr(fpproj.projection, name, spy)
    return taken


def test_the_route_follows_from_the_sizes(routes):
    taken = routes
    a = AmbientSpace(3, 4)
    G = full_family(a, 2)  # 130 members; F_3^4 has 40 lines
    cases = [
        (G, 1, "_line_census_stats"),  # 40 < 130
        (G, 3, "_line_census_stats"),  # 120 < 130
        (G, 4, "stacked_projection_stats"),  # 160 >= 130
        (full_family(AmbientSpace(3, 3), 1), 1, "stacked_projection_stats"),  # 13 lines, 13 members
    ]
    for family, B, route in cases:
        taken.clear()
        batteries = [[random_point_set(family.ambient, 5, b)] for b in range(B)]
        census_stats(batteries, family, np.arange(len(family)) % B, [1, 4])
        assert taken[0] == route


def test_a_point_budget_below_p_to_the_n_takes_the_kernel_route(routes, monkeypatch):
    # the kernel allocates no p^n table, so a budget under p^n = 81 raises no BudgetError
    a = AmbientSpace(3, 4)
    G = grassmannian(a, 2)  # 130 members against 40 lines: the line route when p^n fits
    E = random_point_set(a, 10, 1)
    args = (((E,),), G, np.arange(len(G)), (0, len(G)), (0,), (1, 2, 4), 16)
    unlimited = family_census(*args, budget=None)
    assert routes == ["_line_census_stats", "stacked_projection_stats"]  # the candidates are fiber-counted

    def no_line_energies(*args):
        raise AssertionError("line_energies called")

    monkeypatch.setattr(fpproj.projection, "line_energies", no_line_energies)
    routes.clear()
    for budget in (50, 80):
        census = family_census(*args, budget=budget)
        assert oracles.typed(oracles.census_tuples(census[0])) == oracles.typed(oracles.census_tuples(unlimited[0]))
    assert routes == ["stacked_projection_stats"] * 2


def test_line_route_checks_the_budget_and_the_int64_range():
    a = AmbientSpace(3, 4)
    G = full_family(a, 2)
    E = random_point_set(a, 5, 1)
    stack = SubspaceStack.of(a, None, G)
    with pytest.raises(BudgetError, match="line energies"):
        _line_census_stats(((E,),), stack, zeros(G), [1], 80)
    sizes, _ = _line_census_stats(((E,),), stack, zeros(G), [1], 81)
    assert sizes.shape == (1, len(G))

    class StandIn:
        """A point set with an ambient and a size but no points: reading one fails."""

        def __init__(self, ambient, size):
            self.ambient, self.size = ambient, size

    # p^m = 3^38 for a line of F_3^39: two points give |E|^2 (2 p^m + 1) >= 2^63
    big = AmbientSpace(3, 39)
    stack = SubspaceStack.of(big, 1, [first_subspace(big, 1)])
    assert 4 * (2 * 3**38 + 1) >= 2**63
    with pytest.raises(ValueError, match="int64"):
        _line_census_stats(((StandIn(big, 2),),), stack, zeros(stack), [1], None)


# -- one census for many families --------------------------------------------------


def assert_family_census_is_per_family(batteries, stack, families, battery_of, thresholds, C):
    """family_census equals, family by family, the unpruned census of its own battery; returns the route."""
    members = np.array([i for family in families for i in family], dtype=np.int64)
    edges = np.cumsum([0] + [len(family) for family in families])
    census = family_census(batteries, stack, members, edges, battery_of, thresholds, C)
    S, T = len(batteries[0]), len(thresholds)
    assert census.thresholds == tuple(thresholds)
    for column in census.columns():
        assert column is None or column.shape == (len(families), S, T)
    for c, family in enumerate(families):
        reference = oracles.unpruned_census(batteries[battery_of[c]], stack.take(family), thresholds, C)
        got = oracles.census_tuples(census[c])
        assert oracles.typed(got) == oracles.typed(oracles.census_tuples(reference))
    pairs = {(battery_of[c], i) for c, family in enumerate(families) for i in family}
    a = stack.ambient
    return "lines" if (a.p**a.n - 1) // (a.p - 1) * len(batteries) < len(pairs) else "kernel"


@st.composite
def family_layouts(draw):
    """(batteries, stack, families, battery_of): 1-5 families of G(n, k) against 1-3 batteries.

    A family is all of G(n, k), empty, a repeat of an earlier one or
    any distinct members, so families overlap and repeat.  F_2^4 has
    15 lines against 35 members of G(4, 2) and F_3^4 40 against 130,
    so a layout with many distinct (battery, member) pairs takes the
    line route and one with few the kernel; F_3^3 always takes the
    kernel.  The sets are random sets of any size and flats, whose
    small images leave candidates on the line route.
    """
    p, n, k = draw(st.sampled_from([(2, 4, 2), (3, 4, 2), (3, 3, 1)]))
    a = AmbientSpace(p, n)
    stack = grassmannian(a, k)
    K = len(stack)
    pool = [
        *random_point_sets(a, [1, 2, 5, 9, a.point_count // 2, a.point_count], [1, 2, 3, 4, 5, 6]),
        affine_flat_set(first_subspace(a, 1), FpVector(a, (1,) * n)),
        affine_flat_set(first_subspace(a, 2), FpVector(a, (0,) * (n - 1) + (1,))),
    ]
    B, S = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    batteries = [[pool[draw(st.integers(0, len(pool) - 1))] for _ in range(S)] for _ in range(B)]
    families = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["full", "empty", "repeat", "some"]))
        if kind == "full":
            families.append(list(range(K)))
        elif kind == "empty":
            families.append([])
        elif kind == "repeat" and families:
            families.append(draw(st.sampled_from(families)))
        else:
            families.append(draw(st.lists(st.integers(0, K - 1), unique=True, max_size=K)))
    battery_of = draw(st.lists(st.integers(0, B - 1), min_size=len(families), max_size=len(families)))
    return batteries, stack, families, battery_of


@settings(max_examples=60, deadline=None)
@given(
    family_layouts(),
    st.lists(st.integers(0, 30), max_size=4),
    st.sampled_from([None, Fraction(16), Fraction(1, 3)]),
)
def test_family_census_equals_each_family_on_its_own(layout, thresholds, C):
    route = assert_family_census_is_per_family(*layout, thresholds, C)
    event(f"route: {route}")


def test_family_census_takes_both_routes(routes):
    taken = routes
    a = AmbientSpace(3, 4)
    stack = grassmannian(a, 2)  # 130 members; F_3^4 has 40 lines
    sets = [random_point_set(a, 20, 1), affine_flat_set(first_subspace(a, 1), FpVector(a, (1, 1, 1, 1)))]
    full, half = list(range(130)), list(range(0, 130, 2))
    cases = [
        ([sets], [full, half, [], half], [0, 0, 0, 0], "lines"),  # 130 pairs > 40 lines
        ([sets, sets[::-1]], [half, half[:10], [3, 1]], [0, 1, 1], "kernel"),  # 65 + 10 + 2 pairs <= 80
        ([sets, sets[::-1]], [full, half], [0, 1], "lines"),  # 195 pairs > 80
    ]
    for batteries, families, battery_of, route in cases:
        taken.clear()
        assert assert_family_census_is_per_family(batteries, stack, families, battery_of, [1, 3, 9], 16) == route
        assert taken[0] == ("_line_census_stats" if route == "lines" else "stacked_projection_stats")


def test_family_census_counts_each_distinct_pair_once(monkeypatch):
    a = AmbientSpace(3, 3)
    stack = grassmannian(a, 1)  # 13 members
    batteries = [[random_point_set(a, 6, b)] for b in range(3)]
    calls = []
    original = fpproj.projection.census_stats

    def counted(batteries, G, battery_of, *rest):
        calls.append((len(G), np.asarray(battery_of).tolist()))
        return original(batteries, G, battery_of, *rest)

    monkeypatch.setattr(fpproj.projection, "census_stats", counted)
    members = [0, 1, 2, 2, 1, 0, 5, 12, 5]
    family_census(batteries, stack, members, [0, 3, 6, 9], [2, 2, 0], [1, 2])
    # (2, 0), (2, 1), (2, 2) once, then (0, 5) and (0, 12), battery-major
    assert calls == [(5, [0, 0, 2, 2, 2])]


def test_family_census_rejects_bad_layouts():
    a = AmbientSpace(3, 3)
    stack = grassmannian(a, 1)
    batteries = [[random_point_set(a, 6, 1)]]
    for members, edges, battery_of, match in (
        ([0, 1], [0, 3], [0], "edges"),
        ([0, 1], [0, 2, 1, 2], [0, 0, 0], "edges"),
        ([0, 1], [], [], "edges"),
        ([0, 1], [0, 2], [1], "battery_of"),
        ([0, 1], [0, 2], [-1], "battery_of"),
        ([0, 1], [0, 1, 2], [0], "battery_of"),
        ([0, 13], [0, 2], [0], "members"),
        ([-1, 0], [0, 2], [0], "members"),
    ):
        with pytest.raises(ValueError, match=match):
            family_census(batteries, stack, members, edges, battery_of, [1])
