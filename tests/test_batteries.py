"""Batteries as stacks: key blocks, the stacked transform and stacked annihilators.

random_point_sets, stacked_dft and perp_stack do for a whole battery or
stack what random_point_set, dft and perp do for one item (those are
their one-row cases).  Each test here recomputes the quantity one item
at a time with the references in tests/oracles.py, under chunk caps
small enough to split every battery.
"""

import inspect
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpproj.families
import fpproj.fourier
import fpproj.rng
import fpproj.subspaces
import oracles
from fpproj import acceptance
from fpproj.budgets import BudgetError
from fpproj.families import (
    RandomFamilyConfig,
    family,
    hyperplane_intersection_max,
    size_concentration_report,
    spread_containing,
    spread_perp,
    spread_profile,
)
from fpproj.field import AmbientSpace, decode_array, digit_table, power_vector
from fpproj.fourier import dft, stacked_dft, verify_coset_identities, verify_coset_identity
from fpproj.pointsets import PointSet, random_point_set, random_point_sets
from fpproj.projection import family_coset_energy
from fpproj.rng import TWO64, choose_rows, key64_rows, smallest_key_mask, threshold_rows
from fpproj.subspaces import (
    CHUNK_ELEMENTS,
    SubspaceStack,
    first_subspace,
    grassmannian,
    perp,
    perp_stack,
    stacked_span_codes,
)
from oracles import brute_nullspace_set, span_set

CHUNKS = (1, 3, 17, CHUNK_ELEMENTS)


def _chunks(chunk):
    mp = pytest.MonkeyPatch()
    mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
    return mp


# -- key blocks and the sampler -------------------------------------------------


@given(st.lists(st.integers(-(2**64), 2**65), max_size=5), st.integers(0, 40))
def test_key_rows_match_the_scalar_keys(seeds, count):
    block = key64_rows(seeds, count)
    assert block.dtype == np.uint64 and block.shape == (len(seeds), count)
    assert block.tolist() == [[oracles.splitmix_key(s, i) for i in range(count)] for s in seeds]


@st.composite
def draws(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 3))
    population = p**n
    count = draw(st.integers(1, 8))
    edge = st.sampled_from((0, 1, population - 1, population))
    sizes = draw(st.lists(st.one_of(edge, st.integers(0, population)), min_size=count, max_size=count))
    seeds = draw(st.lists(st.integers(0, 4), min_size=count, max_size=count))  # repeats
    return AmbientSpace(p, n), sizes, seeds


@settings(max_examples=120, deadline=None)
@given(draws(), st.sampled_from(CHUNKS))
def test_random_point_sets_match_per_set_draws(case, chunk):
    ambient, sizes, seeds = case
    mp = _chunks(chunk)
    try:
        sets = random_point_sets(ambient, sizes, seeds)
        singles = [random_point_set(ambient, size, seed) for size, seed in zip(sizes, seeds)]
    finally:
        mp.undo()
    assert len(sets) == len(sizes)
    for E, single, size, seed in zip(sets, singles, sizes, seeds):
        assert E.codes.tolist() == oracles.choose_without_replacement(seed, ambient.point_count, size)
        assert E.size == size
        assert E == single


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_smallest_key_mask_rows_match_stable_argsort_with_ties(data):
    count = data.draw(st.integers(1, 30))
    rows = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 5), min_size=count, max_size=count)  # heavily tied keys
    keys = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.uint64)
    sizes = data.draw(st.lists(st.integers(0, count), min_size=rows, max_size=rows))
    mask = smallest_key_mask(keys, sizes)
    for k, size, got in zip(keys, sizes, mask):
        assert np.flatnonzero(got).tolist() == sorted(np.argsort(k, kind="stable")[:size].tolist())


def test_sampler_arguments_are_checked():
    assert smallest_key_mask(np.zeros((2, 0), dtype=np.uint64), [0, 0]).shape == (2, 0)
    with pytest.raises(ValueError):
        smallest_key_mask(np.zeros((1, 3), dtype=np.uint64), [4])
    with pytest.raises(ValueError):
        choose_rows((1, 2), 10, (3,))
    with pytest.raises(ValueError):
        choose_rows((1,), 10, (11,))
    with pytest.raises(ValueError):
        random_point_sets(AmbientSpace(3, 2), [2, 10], [0, 1])
    assert random_point_sets(AmbientSpace(3, 2), [], []) == []


def test_sampler_budget_is_checked_once_before_any_key_or_mask(monkeypatch):
    def no_keys(*args):
        raise AssertionError("keys or masks allocated before the budget check")

    checks = []
    check_budget = fpproj.rng.check_budget
    monkeypatch.setattr(fpproj.rng, "check_budget", lambda *a: checks.append(a) or check_budget(*a))
    monkeypatch.setattr(fpproj.rng, "key64_rows", no_keys)
    monkeypatch.setattr(fpproj.rng, "smallest_key_mask", no_keys)
    with pytest.raises(BudgetError):
        random_point_sets(AmbientSpace(2, 40), [3, 5], [0, 1])  # 2^40 keys per set
    with pytest.raises(BudgetError):
        random_point_sets(AmbientSpace(3, 3), [3] * 4, range(4), budget=26)
    monkeypatch.undo()
    a = AmbientSpace(7, 3)
    monkeypatch.setattr(fpproj.rng, "check_budget", lambda *a: checks.append(a) or check_budget(*a))
    monkeypatch.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", 1000)  # two sets per chunk
    checks.clear()
    sets = random_point_sets(a, [5] * 9, range(9), budget=343)
    assert len(checks) == 1
    monkeypatch.undo()
    assert sets == [random_point_set(a, 5, seed) for seed in range(9)]


def test_concentration_and_spread_budgets_are_checked_before_any_key_or_table(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("keys or a p^n table allocated before the budget check")

    # |G(18, 1)| over F_2 = 2^18 - 1 keys per seed exceed the subspace budget of 200,000
    cfg = RandomFamilyConfig(AmbientSpace(2, 18), 17, Fraction(2), 0)
    # p^n = 2^17 exceeds the point budget of 100,000; G is one line
    G = family(AmbientSpace(2, 17), 16, [first_subspace(AmbientSpace(2, 17), 1)])
    G.annihilators  # built before the check, as every spread reads it
    monkeypatch.setattr(fpproj.families, "threshold_rows", no_alloc)
    monkeypatch.setattr(fpproj.families, "stacked_span_codes", no_alloc)
    monkeypatch.setattr(fpproj.families.np, "zeros", no_alloc)
    with pytest.raises(BudgetError, match="262143"):
        size_concentration_report(cfg, range(3))
    for spread in (spread_containing, spread_perp):
        with pytest.raises(BudgetError, match="131072"):
            spread(G)
        with pytest.raises(BudgetError, match="131072"):
            spread(G, budget=2**17 - 1)
    with pytest.raises(BudgetError, match="131072"):
        spread_profile(G, "perp", budget=10)
    monkeypatch.undo()
    assert spread_perp(G, budget=2**17).max_count == 1
    assert spread_profile(G, "contains", budget=None)[0] == 1


@pytest.mark.parametrize("chunk", CHUNKS)
def test_concentration_sizes_match_scalar_keys(monkeypatch, chunk):
    cfg = RandomFamilyConfig(AmbientSpace(7, 3), 1, Fraction(3, 2), 0)
    monkeypatch.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
    seeds = range(40)
    report = size_concentration_report(cfg, seeds)
    expected = [
        sum(oracles.splitmix_key(s, i) < cfg.threshold64 for i in range(cfg.grassmannian_size))
        for s in seeds
    ]
    assert list(report.sizes) == expected
    for threshold, fill in ((TWO64, True), (2**70, True), (0, False), (-1, False)):
        blocks = list(threshold_rows(seeds, 57, threshold))
        masks = np.concatenate([mask for _, mask in blocks])
        assert masks.shape == (40, 57) and bool(masks.all() if fill else not masks.any())


# -- the stacked transform -------------------------------------------------------


@st.composite
def transform_batteries(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 4))
    ambient = AmbientSpace(p, n)
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("empty", "full", "random")))
        if kind == "empty":
            sets.append(PointSet.empty(ambient))
        elif kind == "full":
            sets.append(PointSet.full(ambient))
        else:
            size = draw(st.integers(0, ambient.point_count))
            sets.append(random_point_set(ambient, size, draw(st.integers(0, 9))))
    return ambient, sets


@settings(max_examples=80, deadline=None)
@given(transform_batteries(), st.sampled_from(CHUNKS))
def test_stacked_transform_equals_per_set_transform(case, chunk):
    ambient, sets = case
    p, n = ambient.p, ambient.n
    mp = _chunks(chunk)
    try:
        blocks = list(stacked_dft(sets))
        singles = [dft(E).values for E in sets]
    finally:
        mp.undo()
    starts = [part.start for part, _ in blocks]
    assert starts == sorted(starts) and blocks[-1][0].stop == len(sets)
    for part, values in blocks:
        assert len(values) == part.stop - part.start <= max(1, chunk // ambient.point_count)
    rows = np.concatenate([values for _, values in blocks])
    for E, row, single in zip(sets, rows, singles):
        expected = oracles.dft_factored(E.mask, p, n)
        assert np.array_equal(row, expected)
        assert np.array_equal(single, expected)


@settings(max_examples=60, deadline=None)
@given(transform_batteries(), st.sampled_from(CHUNKS))
def test_transform_cube_from_codes_is_byte_equal_to_a_mask_cube(case, chunk):
    # each chunk's cube is scattered from the sets' codes; a cube stacked
    # from their p^n masks, transformed the same way, gives the same bytes
    ambient, sets = case
    p, n = ambient.p, ambient.n
    mp = _chunks(chunk)
    try:
        blocks = list(stacked_dft(sets))
    finally:
        mp.undo()
    for part, values in blocks:
        cube = np.array([E.mask for E in sets[part]], dtype=np.complex128)
        cube = cube.reshape((len(cube),) + (p,) * n)
        expected = np.fft.fftn(cube, axes=tuple(range(1, n + 1))).reshape(len(cube), -1)
        assert values.dtype == expected.dtype and values.shape == expected.shape
        assert values.tobytes() == expected.tobytes()


def test_stacked_transform_arguments_are_checked():
    assert list(stacked_dft(())) == []
    with pytest.raises(ValueError):
        stacked_dft([PointSet.empty(AmbientSpace(3, 2)), PointSet.empty(AmbientSpace(3, 3))])
    with pytest.raises(BudgetError):
        stacked_dft([PointSet.empty(AmbientSpace(3, 3))], budget=26)


def test_coset_identity_budget_is_checked_before_any_work(monkeypatch):
    a = AmbientSpace(2, 17)  # 131,072 points: above the default point budget
    E = PointSet.from_codes(a, [0, 1, 5, 77, 4096])
    W = first_subspace(a, 15)

    def never(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    with monkeypatch.context() as mp:
        mp.setattr(fpproj.fourier, "_dft_chunks", never)
        mp.setattr(fpproj.fourier, "battery_projection_stats", never)
        with pytest.raises(BudgetError):
            verify_coset_identities([E], [W])
        with pytest.raises(BudgetError):
            verify_coset_identity(E, W)
        with pytest.raises(BudgetError):
            verify_coset_identity(E, W, budget=2**17 - 1)
    res = verify_coset_identities([E], [W], budget=2**17)
    single = verify_coset_identity(E, W, budget=2**17)
    assert res.passed.all() and single.passed
    assert res.spatial[0, 0] == single.spatial == family_coset_energy(E, [W])
    assert res.spectral[0, 0] == single.spectral


# -- stacked annihilators --------------------------------------------------------


def _basis(bases, i):
    return tuple(map(tuple, bases[i].tolist()))


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7) for n in range(1, 6)])
def test_stacked_perp_matches_scalar_reference_and_brute_force(p, n):
    a = AmbientSpace(p, n)
    for k in range(n + 1):
        G = grassmannian(a, k)
        if len(G) > 3000:  # a spread-out sample keeps G(5, 2) over F_7 small
            G = G.take(np.linspace(0, len(G) - 1, 3000).astype(np.intp))
        V = perp_stack(G)
        assert (len(V), V.dim) == (len(G), n - k)
        assert np.array_equal(perp_stack(V).bases, G.bases)
        for i in np.unique(np.linspace(0, len(G) - 1, 200).astype(np.intp)):
            basis, annihilator = _basis(G.bases, i), _basis(V.bases, i)
            assert annihilator == oracles.perp_basis(p, n, basis)
            if p**n <= 125:
                assert span_set(annihilator, p, n) == brute_nullspace_set(basis, p, n)
    fpproj.subspaces._grassmannian.cache_clear()


def test_perp_is_the_one_member_case():
    a = AmbientSpace(3, 3)
    for k in range(4):
        G = grassmannian(a, k)
        V = perp_stack(G)
        assert [perp(W) for W in G.members] == list(V.members)
    with pytest.raises(ValueError):
        fpproj.subspaces._rref_stack(3, np.array([[[1, 0, 2], [2, 0, 1]]]))


def test_criterion3_fails_when_one_stacked_perp_member_is_wrong(monkeypatch):
    real = acceptance.perp_stack

    def one_wrong(stack):
        out = real(stack)
        if len(out) < 2:
            return out
        bases = out.bases.copy()
        bases[0] = bases[1]
        return SubspaceStack(out.ambient, bases)

    assert acceptance.criterion3().passed
    monkeypatch.setattr(acceptance, "perp_stack", one_wrong)
    result = acceptance.criterion3()
    assert not result.passed
    assert [row[:3] for row in result.rows] == [row[:3] for row in acceptance.criterion3().rows]
    assert any(row[3] for row in result.rows) and not all(row[3] for row in result.rows)


# -- memory bounds ---------------------------------------------------------------


def _transient_peak(fn):
    """Peak traced memory above what fn's result still holds when it returns."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_sampler_and_transform_peaks_do_not_grow_with_the_battery():
    a = AmbientSpace(7, 3)  # 343 points: 191 sets per chunk
    small, large = 200, 2000
    sampler = [
        _transient_peak(lambda: random_point_sets(a, [100] * S, range(S))) for S in (small, large)
    ]
    assert sampler[1] < 1.5 * sampler[0]
    sets = random_point_sets(a, [100] * large, range(large))

    def transform(S):
        for _ in stacked_dft(sets[:S]):
            pass

    transform_peaks = [_transient_peak(lambda: transform(S)) for S in (small, large)]
    assert transform_peaks[1] < 1.5 * transform_peaks[0]
    # the chunk being transformed, fftn's work arrays and the last chunk yielded
    assert transform_peaks[1] < 8 * CHUNK_ELEMENTS * 16


# -- the floor-division mod step and cached coordinates ----------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7, 11)),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(CHUNKS),
)
def test_span_codes_mod_step_matches_remainder(p, n, r, K, seed, chunk):
    r = min(r, n)
    rows = np.random.default_rng(seed).integers(0, p, size=(K, r, n))
    mp = _chunks(chunk)
    try:
        got = np.concatenate([codes for _, codes in stacked_span_codes(AmbientSpace(p, n), rows)])
    finally:
        mp.undo()
    expected = np.remainder(digit_table(p, r) @ rows, p) @ power_vector(p, n)
    assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(2, 3),
    st.integers(0, 60),
    st.integers(0, 99),
    st.sampled_from(CHUNKS),
)
def test_hyperplane_mod_step_matches_remainder(p, n, size, seed, chunk):
    a = AmbientSpace(p, n)
    S = random_point_set(a, min(size, a.point_count), seed)
    normals = grassmannian(a, n - 1).annihilators[:, 0, :]
    residues = np.remainder(S.coordinates() @ normals.T, p)
    expected = int(np.count_nonzero(residues == 0, axis=0).max()) if S.size else 0
    mp = _chunks(chunk)
    try:
        assert hyperplane_intersection_max(S) == expected
    finally:
        mp.undo()


def test_coordinates_are_cached_read_only_by_a_plain_method():
    E = random_point_set(AmbientSpace(5, 3), 20, 1)
    first = E.coordinates()
    assert first is E.coordinates()
    assert not first.flags.writeable
    assert np.array_equal(first, decode_array(E.ambient, E.codes))
    assert inspect.isfunction(inspect.getattr_static(PointSet, "coordinates"))
    assert PointSet.empty(AmbientSpace(3, 2)).coordinates().shape == (0, 2)
