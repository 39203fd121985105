"""The batched family kernel against the per-member path and the oracles.

battery_projection_stats (and its one-set case family_projection_stats),
the batched coset identity, hyperplane_intersection_max and
spread_profile work on stacked member arrays in chunks; each test here
recomputes the same quantity one set and one member at a time
(fiber_counts, coset_energy_spectral, contains_codes, span_codes) and,
where it is cheap enough, from first principles (tests/oracles.py).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpproj.subspaces
from fpproj.families import (
    Family,
    RandomFamilyConfig,
    full_family,
    hyperplane_intersection_max,
    sample_random_family,
    spread_profile,
)
from fpproj.field import AmbientSpace, decode
from fpproj.fourier import coset_energy_spectral, dft, verify_coset_identities
from fpproj.pointsets import PointSet, random_point_set
from fpproj.projection import (
    battery_projection_stats,
    cauchy_schwarz_gap,
    family_coset_energy,
    family_projection_stats,
    fiber_counts,
    incidence_decomposition,
)
from fpproj.subspaces import (
    CHUNK_ELEMENTS,
    Subspace,
    SubspaceStack,
    _annihilator_rows,
    contains_codes,
    enumerate_subspaces,
    first_subspace,
    grassmannian,
    member_chunks,
    perp,
    span_codes,
    stacked_span_codes,
)
from oracles import brute_fiber_counts, span_set

CHUNKS = (1, 3, 17, CHUNK_ELEMENTS)
BATTERY_CHUNKS = (1, 2, 3, 17)


@st.composite
def instances(draw):
    """(ambient, members, E): a random subset of G(n, n-m) and a random set."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    ambient = AmbientSpace(p, n)
    grassmannian = enumerate_subspaces(ambient, n - m)
    picks = draw(st.lists(st.integers(0, len(grassmannian) - 1), max_size=10, unique=True))
    codes = draw(st.lists(st.integers(0, ambient.point_count - 1), max_size=30, unique=True))
    members = tuple(grassmannian[i] for i in picks)
    return ambient, m, members, PointSet.from_codes(ambient, codes)


def per_member_stats(E, members):
    sizes, energies = [], []
    for W in members:
        counts = fiber_counts(E, W)
        sizes.append(int(counts.size))
        energies.append(int(np.dot(counts, counts)))
    return sizes, energies


def oracle_stats(E, members):
    p, n = E.ambient.p, E.ambient.n
    points = [decode(E.ambient, int(c)).coords for c in E.codes]
    sizes, energies = [], []
    for W in members:
        counts = brute_fiber_counts(points, span_set(W.basis, p, n), p)
        sizes.append(len(counts))
        energies.append(sum(c * c for c in counts))
    return sizes, energies


def spread_loop(G, variant):
    counts = np.zeros(G.ambient.point_count, dtype=np.int64)
    for W in G:
        np.add.at(counts, span_codes(W if variant == "contains" else perp(W)), 1)
    return counts


@settings(max_examples=150, deadline=None)
@given(instances(), st.sampled_from(CHUNKS))
def test_stats_match_per_member_path_and_oracle(case, chunk):
    ambient, m, members, E = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        sizes, energies = family_projection_stats(E, members)
        G = Family(ambient, m, members)
        family_sizes, family_energies = family_projection_stats(E, G)
    expected = per_member_stats(E, members)
    assert (sizes.tolist(), energies.tolist()) == expected
    assert (sizes.tolist(), energies.tolist()) == oracle_stats(E, members)
    assert (family_sizes.tolist(), family_energies.tolist()) == per_member_stats(E, G.members)


@settings(max_examples=60, deadline=None)
@given(instances(), st.sampled_from(CHUNKS))
def test_energy_and_incidences_match_per_member_sums(case, chunk):
    ambient, m, members, E = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        energy = family_coset_energy(E, members)
        incidences, pairs = incidence_decomposition(E, members)
    counts = [fiber_counts(E, W) for W in members]
    assert energy == sum(int(np.dot(c, c)) for c in counts)
    assert incidences == sum(int(c.sum()) for c in counts) == len(members) * E.size
    assert pairs == sum(int(np.dot(c, c - 1)) for c in counts)


@settings(max_examples=80, deadline=None)
@given(instances(), st.sampled_from(CHUNKS))
def test_spread_profile_matches_member_loop(case, chunk):
    ambient, m, members, _ = case
    G = Family(ambient, m, members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        for variant in ("contains", "perp"):
            assert np.array_equal(spread_profile(G, variant), spread_loop(G, variant))


@settings(max_examples=80, deadline=None)
@given(instances())
def test_annihilator_stack_spans_perp(case):
    ambient, m, members, _ = case
    stack = SubspaceStack.of(ambient, ambient.n - m, members)
    assert stack.annihilators.shape == (len(members), m, ambient.n)
    for W, rows in zip(members, stack.annihilators):
        span = Subspace.from_rows(ambient, rows.tolist())
        assert span.dim == m  # the rows are independent
        assert span == perp(W)


@settings(max_examples=80, deadline=None)
@given(instances(), st.sampled_from(BATTERY_CHUNKS))
def test_annihilator_spans_come_out_sorted(case, chunk):
    # the batched spectral side sums in this order; it must be span_codes'
    ambient, m, members, _ = case
    stack = SubspaceStack.of(ambient, ambient.n - m, members)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        spans = [codes for _, codes in stacked_span_codes(ambient, stack.annihilators)]
    rows = np.concatenate(spans) if spans else np.empty((0, ambient.p**m), dtype=np.int64)
    assert rows.tolist() == [span_codes(perp(W)).tolist() for W in members]


@settings(max_examples=40, deadline=None)
@given(instances())
def test_annihilators_built_on_first_use(case):
    ambient, m, members, _ = case
    stack = SubspaceStack.of(ambient, ambient.n - m, members)
    assert "annihilators" not in vars(stack)
    expected = _annihilator_rows(ambient.p, stack.bases)
    assert np.array_equal(stack.annihilators, expected)
    assert stack.annihilators is stack.annihilators
    assert not stack.annihilators.flags.writeable


def test_sampling_builds_no_grassmannian_annihilators():
    fpproj.subspaces._grassmannian.cache_clear()  # a fresh G(4, 2)
    a = AmbientSpace(5, 4)
    G = grassmannian(a, 2)
    sample = sample_random_family(RandomFamilyConfig(a, 2, Fraction(5, 2), seed=1))
    family_projection_stats(random_point_set(a, 9, seed=2), sample)
    assert "annihilators" in vars(sample.stack)
    assert "annihilators" not in vars(G)


def test_annihilator_stack_of_trivial_dimensions():
    a = AmbientSpace(3, 3)
    zero = SubspaceStack.of(a, 0, (Subspace.zero(a),))
    assert np.array_equal(zero.annihilators[0], np.eye(3, dtype=np.int64))
    whole = SubspaceStack.of(a, 3, (Subspace.full(a),))
    assert whole.annihilators.shape == (1, 0, 3)


@pytest.mark.parametrize("size", [0, 1, 40])
def test_family_larger_than_one_chunk(monkeypatch, size):
    a = AmbientSpace(5, 3)
    G = full_family(a, 2)
    E = random_point_set(a, size, seed=3)
    monkeypatch.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", 2)
    assert len(member_chunks(len(G), max(1, size * G.m))) > 1
    sizes, energies = family_projection_stats(E, G)
    assert (sizes.tolist(), energies.tolist()) == per_member_stats(E, G.members)
    if size <= 1:
        assert sizes.tolist() == energies.tolist() == [size] * len(G)


def test_member_chunks_cover_in_order():
    parts = member_chunks(10, CHUNK_ELEMENTS // 3)
    assert [list(range(10))[s] for s in parts] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    assert member_chunks(2, 10 * CHUNK_ELEMENTS) == [slice(0, 1), slice(1, 2)]
    assert member_chunks(0, 5) == []


def test_stats_empty_family_and_checks():
    a = AmbientSpace(3, 3)
    E = random_point_set(a, 5, seed=1)
    sizes, energies = family_projection_stats(E, ())
    assert sizes.size == energies.size == 0
    with pytest.raises(ValueError):
        family_projection_stats(E, (Subspace.full(a),))
    with pytest.raises(ValueError):
        family_projection_stats(E, enumerate_subspaces(AmbientSpace(3, 2), 1))
    with pytest.raises(ValueError):
        family_projection_stats(E, full_family(AmbientSpace(5, 3), 1))


def test_stack_rejects_inexact_products():
    a = AmbientSpace(2_147_483_659, 2)  # p^2 < 2^63 <= 2 (p-1)^2
    with pytest.raises(ValueError):
        SubspaceStack.of(a, 1, (first_subspace(a, 1),))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_first_subspace_is_first_enumerated(p):
    for n in range(1, 5):
        a = AmbientSpace(p, n)
        for k in range(n + 1):
            assert first_subspace(a, k) == enumerate_subspaces(a, k)[0]
    with pytest.raises(ValueError):
        first_subspace(AmbientSpace(p, 2), 3)


# -- multi-set kernel --------------------------------------------------------------


@st.composite
def batteries(draw):
    """(ambient, members, sets): members of G(n, n-m) and 1-6 point sets.

    Each set is empty, a single point, a random subset, or a repeat of
    an earlier set of the battery.
    """
    ambient, _, members, _ = draw(instances())
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("empty", "single", "random", "repeat")))
        if kind == "repeat" and sets:
            sets.append(sets[draw(st.integers(0, len(sets) - 1))])
            continue
        if kind == "empty":
            codes = []
        elif kind == "single":
            codes = [draw(st.integers(0, ambient.point_count - 1))]
        else:
            codes = draw(
                st.lists(st.integers(0, ambient.point_count - 1), max_size=30, unique=True)
            )
        sets.append(PointSet.from_codes(ambient, codes))
    return ambient, members, sets


@settings(max_examples=150, deadline=None)
@given(batteries(), st.sampled_from(BATTERY_CHUNKS))
def test_battery_stats_match_per_set_stats_and_oracle(case, chunk):
    ambient, members, sets = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        sizes, energies = battery_projection_stats(sets, members)
        per_set = [family_projection_stats(E, members) for E in sets]
    assert sizes.shape == energies.shape == (len(sets), len(members))
    for E, row_sizes, row_energies, (one_sizes, one_energies) in zip(
        sets, sizes, energies, per_set
    ):
        assert row_sizes.tolist() == one_sizes.tolist()
        assert row_energies.tolist() == one_energies.tolist()
        assert (row_sizes.tolist(), row_energies.tolist()) == oracle_stats(E, members)


@settings(max_examples=100, deadline=None)
@given(batteries(), st.sampled_from(BATTERY_CHUNKS))
def test_batched_spectral_side_is_bit_equal_to_per_member(case, chunk):
    ambient, members, sets = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        res = verify_coset_identities(sets, members)
    assert res.spatial.shape == res.spectral.shape == (len(sets), len(members))
    for E, spatial, spectral, passed in zip(sets, res.spatial, res.spectral, res.passed):
        table = dft(E)
        expected = [coset_energy_spectral(E, W, table=table) for W in members]
        assert spectral.tolist() == expected  # == on float64, not a tolerance
        assert spatial.tolist() == per_member_stats(E, members)[1]
        assert passed.all()


@settings(max_examples=80, deadline=None)
@given(batteries())
def test_cauchy_schwarz_gap_is_the_one_member_case(case):
    ambient, members, sets = case
    for E in sets:
        for W in members:
            counts = fiber_counts(E, W)
            expected = (E.size**2, int(counts.size) * int(np.dot(counts, counts)))
            assert cauchy_schwarz_gap(E, W) == expected


def test_battery_checks():
    a = AmbientSpace(3, 3)
    G = full_family(a, 1)
    E = random_point_set(a, 5, seed=1)
    with pytest.raises(ValueError):
        battery_projection_stats([], G)
    with pytest.raises(ValueError):
        battery_projection_stats([E, random_point_set(AmbientSpace(3, 2), 2, seed=1)], G)
    with pytest.raises(ValueError):
        verify_coset_identities([E, E], G, tables=[dft(E)])
    sizes, energies = battery_projection_stats([E, E], ())
    assert sizes.shape == energies.shape == (2, 0)


def test_battery_rejects_inexact_labels():
    # S * p^m >= 2^63 although p^m < 2^63 and n(p-1)^2 is small; the
    # guard fires before any point is read, so a stand-in set suffices.
    a = AmbientSpace(3, 39)

    class OnePoint:
        ambient = a
        size = 1

    assert 3**38 < 2**63 <= 7 * 3**38
    W = first_subspace(a, 1)
    with pytest.raises(ValueError, match="int64"):
        battery_projection_stats([OnePoint()] * 7, (W,))


# -- hyperplanes -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(p, n) for p in (2, 3, 5, 7) for n in (2, 3, 4) if p**n <= 400]),
    st.data(),
    st.sampled_from(BATTERY_CHUNKS),
)
def test_hyperplane_max_matches_member_loop_and_brute_force(shape, data, chunk):
    p, n = shape
    ambient = AmbientSpace(p, n)
    codes = data.draw(st.lists(st.integers(0, ambient.point_count - 1), max_size=30, unique=True))
    S = PointSet.from_codes(ambient, codes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fpproj.subspaces, "CHUNK_ELEMENTS", chunk)
        batched = hyperplane_intersection_max(S)
    hyperplanes = enumerate_subspaces(ambient, n - 1)
    pts = S.coordinates()
    loop = max((int(contains_codes(W, pts).sum()) for W in hyperplanes), default=0)
    points = {decode(ambient, int(c)).coords for c in S.codes}
    brute = max(len(points & span_set(W.basis, p, n)) for W in hyperplanes)
    assert batched == loop == brute
