from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj import families
from fpproj.budgets import BudgetError
from fpproj.families import (
    Family,
    RandomFamilyConfig,
    audit_family,
    circle_family,
    family_from_directions,
    full_family,
    hyperplane_intersection_max,
    inclusion_masks,
    load_family,
    moment_family,
    sample_random_family,
    save_family,
    size_concentration_report,
    spread_containing,
    spread_perp,
    spread_profile,
    stacked_spread,
    theoretical_spread_count,
)
from fpproj.field import AmbientSpace, FpVector, decode, encode
from fpproj.pointsets import (
    PointSet,
    circle_set,
    moment_curve_set,
    random_point_set,
)
from fpproj.subspaces import (
    Subspace,
    SubspaceStack,
    contains,
    enumerate_subspaces,
    grassmannian,
    parse_subspace,
    perp,
    span_of_point,
)
import oracles


def amb(p, n):
    return AmbientSpace(p, n)


# -- Family type ----------------------------------------------------------


def test_family_dedups_and_sorts():
    a = amb(3, 2)
    W = span_of_point(FpVector(a, (1, 1)))
    V = span_of_point(FpVector(a, (2, 2)))  # same line
    G = Family(a, 1, (W, V))
    assert len(G) == 1


def test_family_rejects_mixed_dimension():
    a = amb(3, 3)
    with pytest.raises(ValueError):
        Family(a, 1, (enumerate_subspaces(a, 1)[0],))


def test_family_rejects_bad_codimension():
    with pytest.raises(ValueError):
        Family(amb(3, 3), 3, ())


def test_family_rejects_stack_of_other_shape():
    a = amb(3, 3)
    with pytest.raises(ValueError):
        Family(a, 1, grassmannian(a, 1))
    with pytest.raises(ValueError):
        Family(a, 1, grassmannian(amb(5, 3), 2))


def test_membership_by_iteration():
    a = amb(3, 3)
    planes = enumerate_subspaces(a, 2)
    G = Family(a, 1, planes[::2])
    assert planes[0] in G
    assert planes[1] not in G  # same dimension, not a member
    assert enumerate_subspaces(a, 1)[0] not in G  # another dimension
    assert enumerate_subspaces(amb(5, 3), 2)[0] not in G  # another ambient space
    assert planes[1] not in Family(a, 1, ())


@st.composite
def grassmannian_cases(draw):
    """(ambient, m, G(n, n-m)) for p <= 7, n <= 4."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    a = amb(p, n)
    return a, m, grassmannian(a, n - m)


@settings(max_examples=60, deadline=None)
@given(grassmannian_cases(), st.data())
def test_family_of_shuffled_members_with_repeats(case, data):
    a, m, G = case
    index = st.integers(0, len(G) - 1)
    ms = [G.members[i] for i in data.draw(st.lists(index, max_size=30))]
    F = Family(a, m, ms)
    assert F.members == tuple(sorted(set(ms), key=lambda W: W.basis))
    assert len(F) == len(set(ms)) and list(F) == list(F.members)
    assert F == Family(a, m, reversed(ms)) and hash(F) == hash(Family(a, m, set(ms)))


@settings(max_examples=60, deadline=None)
@given(grassmannian_cases(), st.data())
def test_family_of_a_grassmannian_subset(case, data):
    a, m, G = case
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(G), max_size=len(G))))
    F = Family(a, m, G.take(mask))
    kept = [W for W, keep in zip(G.members, mask) if keep]
    assert F == Family(a, m, kept)
    assert F.members == tuple(kept)
    assert Family(a, m, G.take(np.flatnonzero(mask)[::-1])) == F
    dropped = [W for W, keep in zip(G.members, mask) if not keep]
    if kept and dropped:  # one member swapped: same size, not equal
        assert Family(a, m, kept[1:] + dropped[:1]) != F


# -- random model -----------------------------------------------------------


def cfg(p=7, n=3, m=1, alpha=Fraction(3, 2), seed=0):
    return RandomFamilyConfig(amb(p, n), m, Fraction(alpha), seed)


def test_config_validates_alpha_range():
    with pytest.raises(ValueError):
        cfg(alpha=Fraction(1))  # must exceed min(m, n-m) = 1
    with pytest.raises(ValueError):
        cfg(alpha=Fraction(5, 2))  # above m(n-m) = 2
    cfg(alpha=Fraction(2))  # top of the range is allowed


def test_delta_is_clamped_dyadic_approximation():
    c = cfg(alpha=Fraction(2))
    # alpha = m(n-m) makes p^alpha = 49 < |G| = 57, delta < 1
    assert 0 < c.delta < 1
    assert abs(float(c.delta) - 49 / 57) < 1e-12


def test_sampling_is_deterministic_and_order_independent():
    c = cfg(seed=42)
    G1 = sample_random_family(c)
    G2 = sample_random_family(c)
    assert G1.members == G2.members
    # inclusion decisions depend only on (seed, index)
    mask = inclusion_masks((c,))[0]
    grassmannian = enumerate_subspaces(c.ambient, 2)
    expected = tuple(W for W, keep in zip(grassmannian, mask) if keep)
    assert G1.members == expected


def test_mean_size_tracks_target():
    sizes = [len(sample_random_family(cfg(seed=s))) for s in range(100)]
    mean = np.mean(sizes)
    assert abs(mean - 7**1.5) < 0.25 * 7**1.5


def test_saturated_threshold_keeps_everything():
    # delta = 1 is unreachable through a legal config (alpha <= m(n-m)
    # forces p^alpha < |G|), but threshold_rows must still include
    # every index when the threshold saturates
    from fpproj.rng import TWO64, threshold_rows

    assert next(threshold_rows((123,), 57, TWO64))[1][0].all()
    assert not next(threshold_rows((123,), 57, 0))[1][0].any()


def test_threshold_stays_below_two64_at_the_top_of_the_alpha_range():
    from fpproj.rng import TWO64

    configs = [
        RandomFamilyConfig(amb(p, n), m, Fraction(m * (n - m)), seed=0)
        for p in (2, 3, 5, 7, 11, 13)
        for n in range(3, 7)
        for m in range(1, n)
    ]
    assert len(configs) == 84
    for c in configs:
        assert 0 < c.threshold64 < TWO64
        assert c.delta < 1


def test_size_concentration_report():
    report = size_concentration_report(cfg(), seeds=range(200))
    assert report.fraction <= Fraction(1, 10)
    assert 0.215 < report.chebyshev_bound < 0.217
    single = size_concentration_report(cfg(), seeds=[7])
    assert single.fraction in (Fraction(0), Fraction(1))


def test_concentration_with_delta_one():
    # m(n-m) = alpha = 4 over F_3, n = 4, m = 2: |G(4,2)| = 130 > 81 = p^alpha
    c = RandomFamilyConfig(amb(3, 4), 2, Fraction(4), seed=0)
    report = size_concentration_report(c, seeds=range(50))
    sizes = set(report.sizes)
    assert all(40 < s <= 130 for s in sizes)


# -- spreads --------------------------------------------------------------------


def test_spread_empty_family():
    a = amb(3, 3)
    G = Family(a, 1, ())
    assert spread_containing(G).max_count == 0
    assert spread_perp(G).max_count == 0


def test_spread_full_grassmannian_exact():
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            a = amb(p, n)
            for k in range(1, n):
                G = full_family(a, n - k)  # members have dimension k
                for variant, expected in (
                    ("contains", theoretical_spread_count(a, k, "contains")),
                    ("perp", theoretical_spread_count(a, k, "perp")),
                ):
                    profile = spread_profile(G, variant)
                    assert profile[0] == len(G)
                    assert np.all(profile[1:] == expected)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_spread_shortcut_matches_profile_on_full_grassmannians(p, monkeypatch):
    # a family of |G(n, n-m)| distinct members is the whole Grassmannian:
    # its spread is read off theoretical_spread_count, not counted
    for n in (2, 3, 4):
        a = amb(p, n)
        for m in range(1, n):
            G = full_family(a, m)
            expected = {}
            for variant in ("contains", "perp"):
                counts = spread_profile(G, variant)
                counts[0] = -1
                code = int(np.argmax(counts))
                expected[variant] = (int(counts[code]), decode(a, code))
            with monkeypatch.context() as mp:
                mp.setattr(families, "_spread_tables", None)  # the shortcut never counts
                assert tuple(spread_containing(G)) == expected["contains"]
                assert tuple(spread_perp(G)) == expected["perp"]
            # one member fewer is no longer the Grassmannian, and is counted
            mask = np.ones(len(G), dtype=bool)
            mask[len(G) // 2] = False
            H = Family(a, m, G.stack.take(mask))
            for variant, spread in (("contains", spread_containing), ("perp", spread_perp)):
                counts = spread_profile(H, variant)
                counts[0] = -1
                code = int(np.argmax(counts))
                assert tuple(spread(H)) == (int(counts[code]), decode(a, code))


def stacked_spread_cases():
    """(ambient, m, families): full Grassmannians, near-full, empty and random families of one (p, n, m)."""
    for p, n, m in ((3, 3, 1), (3, 3, 2), (5, 3, 1), (2, 4, 2), (7, 3, 2), (3, 4, 1)):
        a = amb(p, n)
        full = full_family(a, m)
        mask = np.ones(len(full), dtype=bool)
        mask[0] = False
        alpha = Fraction(min(m, n - m) + m * (n - m), 2)  # inside the legal range
        yield a, m, [
            full,
            Family(a, m, ()),
            Family(a, m, full.stack.take(mask)),
            *(sample_random_family(RandomFamilyConfig(a, m, alpha, seed)) for seed in range(4)),
            Family(a, m, ()),
            full,
            Family(a, m, full.stack.take(slice(0, 1))),
        ]


@pytest.mark.parametrize("table_elements", [1, 100, 2**20])
def test_stacked_spread_equals_one_family_at_a_time(monkeypatch, table_elements):
    # families in chunks of one, a few, or all at once, as index arrays into
    # a shuffled stack: each family's count and witness are its own spread's,
    # and a listing of its span points'
    monkeypatch.setattr(families, "TABLE_ELEMENTS", table_elements)
    rng = np.random.default_rng(table_elements)
    for a, m, fams in stacked_spread_cases():
        bases = np.concatenate([G.stack.bases for G in fams])
        order = rng.permutation(len(bases))
        stack = SubspaceStack(a, bases[order])
        members = np.argsort(order)  # stack.bases[members] == bases
        edges = np.cumsum([0] + [len(G) for G in fams])
        for variant, spread in (("contains", spread_containing), ("perp", spread_perp)):
            counts, codes = stacked_spread(stack, variant, members, edges)
            assert counts.dtype == codes.dtype == np.int64
            for G, count, code in zip(fams, counts.tolist(), codes.tolist()):
                max_count, witness = spread(G)
                rows = G.stack.bases if variant == "contains" else G.stack.annihilators
                ref_count, ref_code = oracles.spread_by_span_points(a.p, a.n, rows)
                assert count == max_count == ref_count
                assert code == (encode(witness) if len(G) else 0)
                assert witness == (None if ref_code is None else decode(a, ref_code))


def test_stacked_spread_counts_no_whole_grassmannian_and_checks_the_budget(monkeypatch):
    a = amb(5, 3)
    full = full_family(a, 1)
    stack = full.stack
    with monkeypatch.context() as mp:
        mp.setattr(families, "_spread_tables", None)  # whole Grassmannians and empties are not counted
        counts, codes = stacked_spread(stack, "perp", np.arange(len(full)), [0, 0, len(full), len(full)], budget=1)
        assert counts.tolist() == [0, theoretical_spread_count(a, 2, "perp"), 0]
        assert codes.tolist() == [0, 1, 0]
    with pytest.raises(BudgetError, match="125"):
        stacked_spread(stack, "contains", np.arange(len(full)), [0, 3, len(full)], budget=124)
    with pytest.raises(ValueError, match="variant"):
        stacked_spread(stack, "both", [0, 1, 2], [0, 3])
    # families may share members of the stack
    three = spread_containing(Family(a, 1, stack.take(slice(0, 3))))
    counts, _ = stacked_spread(stack, "contains", [0, 1, 2, 2, 1, 0], [0, 3, 6], budget=125)
    assert counts.tolist() == [three.max_count] * 2


def line_count_cases():
    """(name, family): full, random, circle and moment families for p in {2, 3, 5, 7}."""
    for p in (2, 3, 5, 7):
        for n, m in ((3, 1), (3, 2), (4, 2)):
            a = amb(p, n)
            yield f"full G({n},{n - m})/F_{p}", full_family(a, m)
            alpha = Fraction(min(m, n - m) + m * (n - m), 2)
            for seed in range(2):
                yield f"random {alpha} seed {seed} G({n},{n - m})/F_{p}", sample_random_family(
                    RandomFamilyConfig(a, m, alpha, seed)
                )
        if p > 2:  # the circle and the moment curve need an odd prime
            yield f"circle/F_{p}", circle_family(p)
            for n in (3, 4):
                yield f"moment n={n}/F_{p}", moment_family(p, n)


def profile_reference(G, variant):
    rows = G.stack.bases if variant == "contains" else G.stack.annihilators
    return oracles.spread_profile_by_span_points(G.ambient.p, G.ambient.n, rows)


def max_and_witness(profile):
    """(largest entry at a nonzero code, smallest such code)."""
    code = 1 + int(np.argmax(profile[1:]))
    return int(profile[code]), code


@pytest.mark.parametrize("name,G", list(line_count_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_line_counting_equals_every_span_point(name, G):
    # one point per line of each span gives the profile, count and witness
    # of counting every point of every span
    fams = (G, Family(G.ambient, G.m, G.stack.take(slice(1, None))))  # the second is counted even for full
    stack = G.stack
    members = np.r_[np.arange(len(G)), np.arange(1, len(G))]
    edges = [0, len(G), 2 * len(G) - 1]
    for variant in ("contains", "perp"):
        counts, codes = stacked_spread(stack, variant, members, edges)
        for F, count, code in zip(fams, counts.tolist(), codes.tolist()):
            expected = profile_reference(F, variant)
            assert np.array_equal(spread_profile(F, variant), expected)
            assert (count, code) == (max_and_witness(expected) if len(F) else (0, 0))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(2, 3), (2, 4), (3, 3), (3, 4), (5, 3), (7, 3)]),
    st.data(),
)
def test_line_counting_of_member_subsets(pn, data):
    # a few members at a time, so the largest count is often reached on
    # several lines and the witness is the smallest code of all of them
    p, n = pn
    a = amb(p, n)
    m = data.draw(st.integers(1, n - 1))
    G = grassmannian(a, n - m)
    member = st.integers(0, len(G) - 1)
    picks = data.draw(st.lists(st.lists(member, max_size=6, unique=True), min_size=1, max_size=4))
    fams = [Family(a, m, G.take(np.array(pick, dtype=np.intp))) for pick in picks]
    stack = SubspaceStack(a, np.concatenate([F.stack.bases for F in fams]))
    edges = np.cumsum([0] + [len(F) for F in fams])
    for variant in ("contains", "perp"):
        counts, codes = stacked_spread(stack, variant, np.arange(len(stack)), edges)
        for F, count, code in zip(fams, counts.tolist(), codes.tolist()):
            expected = profile_reference(F, variant)
            assert np.array_equal(spread_profile(F, variant), expected)
            assert (count, code) == (max_and_witness(expected) if len(F) else (0, 0))


def test_line_counting_witness_breaks_ties_by_smallest_code():
    # one plane of F_5^3 holds its 6 lines once each: every nonzero point of
    # the plane ties at 1, and the witness is the smallest of their codes
    a = amb(5, 3)
    W = Subspace.from_rows(a, [(2, 1, 3), (4, 4, 0)])
    G = Family(a, 1, [W])
    plane = np.flatnonzero(oracles.spread_profile_by_span_points(5, 3, G.stack.bases))[1:]
    assert len(plane) == 24
    assert spread_containing(G) == (1, decode(a, int(plane[0])))
    assert np.array_equal(np.flatnonzero(spread_profile(G, "contains"))[1:], plane)


def test_spread_worked_examples():
    a = amb(3, 3)
    G = full_family(a, 1)  # members are planes, dimension 2
    assert spread_containing(G).max_count == 4  # |G(2,1)| over F_3
    assert spread_perp(G).max_count == 1  # |G(2,2)| = 1
    assert theoretical_spread_count(a, 2, "contains") == 4
    assert theoretical_spread_count(a, 2, "perp") == 1


def test_distinct_lines_spread_at_most_one():
    a = amb(5, 3)
    lines = [span_of_point(FpVector(a, c)) for c in [(1, 0, 0), (1, 2, 3), (0, 1, 4)]]
    G = Family(a, 2, tuple(lines))
    assert spread_containing(G).max_count <= 1


def test_spread_witness_is_contained():
    G = circle_family(5)
    count, xi = spread_perp(G)
    assert count == sum(1 for W in G if contains(perp(W), xi))


# -- direction families ------------------------------------------------------------


def test_family_from_directions_dedups_scalars():
    a = amb(5, 3)
    x = FpVector(a, (1, 2, 3))
    D = PointSet.from_vectors(a, [x, x.scale(2)])
    assert len(family_from_directions(D)) == 1


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_family_from_directions_matches_per_point_lines(p, n, data):
    a = amb(p, n)
    codes = data.draw(st.lists(st.integers(1, p**n - 1), max_size=12))
    scales = data.draw(st.lists(st.integers(1, p - 1), min_size=len(codes), max_size=len(codes)))
    # scalar multiples and repeated codes land on lines already drawn
    vectors = [decode(a, c) for c in codes]
    vectors += [x.scale(k) for x, k in zip(vectors, scales)] + vectors[:3]
    D = PointSet.from_vectors(a, vectors)
    expected = Family(a, n - 1, {span_of_point(x) for x in D.points()})
    assert family_from_directions(D) == expected


def test_family_from_directions_rejects_zero():
    a = amb(5, 3)
    with pytest.raises(ValueError):
        family_from_directions(PointSet.from_codes(a, [0, 1]))


def test_circle_family_sizes():
    assert len(circle_family(5)) == 4
    assert len(circle_family(7)) == 8
    for p in (5, 7, 11, 13):
        G = circle_family(p)
        assert len(G) == circle_set(p).size  # z = 1 keeps spans distinct
        assert all(W.dim == 1 for W in G)
        assert spread_perp(G).max_count <= 2


def test_moment_family_sizes():
    assert len(moment_family(7, 3)) == 6
    for p in (3, 5, 7, 11, 13):
        for n in (3, 4):
            assert len(moment_family(p, n)) == p - 1


def test_hyperplane_intersection_max_moment():
    for p in (3, 5, 7, 11, 13):
        for n in (3, 4):
            assert hyperplane_intersection_max(moment_curve_set(p, n)) <= n - 1
    assert hyperplane_intersection_max(PointSet.empty(amb(7, 3))) == 0


def test_hyperplane_intersection_containment_case():
    a = amb(3, 3)
    W = enumerate_subspaces(a, 2)[0]
    from fpproj.pointsets import affine_flat_set

    S = affine_flat_set(W, FpVector.zero(a))
    assert hyperplane_intersection_max(S) == 9


# -- audits --------------------------------------------------------------------------


def test_audit_empty_family_vacuous():
    a = amb(3, 3)
    G = Family(a, 1, ())
    audit = audit_family(G, "perp", beta=2, C=4)
    assert audit.passed


def test_audit_full_grassmannian_perp():
    a = amb(3, 3)
    G = full_family(a, 1)
    audit = audit_family(G, "perp", beta=2, C=4)
    assert audit.spread.max_count == 1 and audit.spread_ok


def test_audit_energy_conclusions_hold():
    a = amb(7, 3)
    sets = [random_point_set(a, s, seed=s) for s in (5, 20, 80)]
    for seed in range(10):
        G = sample_random_family(cfg(seed=seed))
        audit = audit_family(G, "contains", beta=1, C=8, test_sets=sets)
        assert audit.passed, (seed, audit)
    G2 = full_family(amb(7, 3), 2)
    audit2 = audit_family(G2, "perp", beta=1, C=8, test_sets=sets)
    assert audit2.passed


def test_audit_can_fail():
    # a family of many planes through one line concentrates badly
    a = amb(3, 3)
    xi = FpVector(a, (1, 0, 0))
    members = tuple(W for W in enumerate_subspaces(a, 2) if contains(W, xi))
    G = Family(a, 1, members)
    audit = audit_family(G, "contains", beta=1, C=1)
    assert audit.spread.max_count == len(G)
    assert not audit.spread_ok


# -- family files -----------------------------------------------------------------------


def test_family_file_round_trip(tmp_path):
    G = circle_family(5)
    path = tmp_path / "family.txt"
    save_family(G, path)
    loaded = load_family(path)
    assert loaded == G
    assert load_family(path, ambient=G.ambient, m=2) == G


def test_family_file_equals_its_lines_parsed_one_by_one(tmp_path, monkeypatch):
    # lines of one to four rows (scaled, dependent, zero), members listed twice, blank lines
    a = AmbientSpace(5, 4)
    rng = np.random.default_rng(3)
    members = grassmannian(a, 2).members[::37]
    lines = []
    for W in members + members[::3]:
        rows = [tuple(int(c) * s % 5 for c in row) for row, s in zip(W.basis, rng.integers(1, 5, 2))]
        extra = [tuple((3 * x + 2 * y) % 5 for x, y in zip(*rows)), (0,) * 4, tuple(c + 10 for c in rows[1])]
        rows = rows + extra[: int(rng.integers(0, 3))]
        lines.append(";".join(",".join(map(str, row)) for row in rng.permutation(rows).tolist()))
        if rng.random() < 0.1:
            lines.append("  ")
    path = tmp_path / "family.txt"
    path.write_text("p=5,n=4,m=2\n" + "\n".join(lines) + "\n")
    assert len(set(map(len, (line.split(";") for line in lines if line.strip())))) == 3
    calls = []
    eliminate = families._eliminate
    monkeypatch.setattr(families, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    loaded = load_family(path)
    assert len(calls) == 1  # one elimination for the whole file
    assert loaded == Family(a, 2, [parse_subspace(a, line) for line in lines if line.strip()])
    assert list(loaded) == sorted(members, key=lambda W: W.basis)
    path.write_text("p=5,n=4,m=2\n\n")
    assert len(load_family(path)) == 0


def test_family_file_errors_name_the_file_and_the_line(tmp_path):
    path = tmp_path / "family.txt"
    for line, message in (
        ("1,0,0,0;x,1,0,0", "invalid literal for int"),
        ("1,0,0,0;0,1,0," + "1" * 5001, "4300"),
        ("1,0,0;0,1,0", "row '1,0,0' has 3 coordinates, expected 4"),
        ("1,0,0,0;2,0,0,0", "rows of rank 1, expected n - m = 2"),
        ("0,0,0,0", "rows of rank 0, expected n - m = 2"),
        ("1,0,0,0;0,1,0,0;0,0,1,0", "rows of rank 3, expected n - m = 2"),
    ):
        path.write_text(f"p=5,n=4,m=2\n1,0,0,0;0,1,0,0\n\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_family(path)
        assert str(exc.value).startswith(f"{path}: line 4: ") and message in str(exc.value)
    path.write_text("p=5,n=4,m=4\n1,0,0,0\n")
    with pytest.raises(ValueError, match="codimension m = 4 out of range"):
        load_family(path)


def test_family_file_header_checks(tmp_path):
    path = tmp_path / "family.txt"
    path.write_text("p=5,n=3,m=2\n")
    assert len(load_family(path)) == 0
    with pytest.raises(ValueError):
        load_family(path, m=1)
    path.write_text("nonsense\n")
    with pytest.raises(ValueError):
        load_family(path)
