import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj.budgets import BudgetError
from fpproj.field import AmbientSpace, FpVector
from fpproj.pointsets import (
    PointSet,
    affine_flat_set,
    circle_set,
    load_point_set,
    moment_curve_set,
    random_point_set,
    random_point_sets,
    save_point_set,
)
from fpproj.subspaces import enumerate_subspaces, first_subspace, span_of_point


def amb(p, n):
    return AmbientSpace(p, n)


# -- construction and basics ---------------------------------------------


def test_from_codes_and_membership():
    a = amb(3, 2)
    E = PointSet.from_codes(a, [0, 5, 5, 7])
    assert E.size == 3
    assert E.contains_code(5) and not E.contains_code(1)
    assert FpVector(a, (2, 1)) in E


def test_from_codes_rejects_out_of_range():
    with pytest.raises(ValueError):
        PointSet.from_codes(amb(3, 2), [9])


def test_a_point_of_another_space_is_refused_not_re_encoded():
    # (2, 2) of F_3^2 has code 8, which in F_5^2 is the point (3, 1)
    x = FpVector(amb(3, 2), (2, 2))
    mismatch = r"ambient mismatch: AmbientSpace\(p=5, n=2\) vs AmbientSpace\(p=3, n=2\)"
    with pytest.raises(ValueError, match=mismatch):
        PointSet.from_vectors(amb(5, 2), [FpVector(amb(5, 2), (3, 1)), x])
    with pytest.raises(ValueError, match=mismatch):
        x in PointSet.from_codes(amb(5, 2), [8])
    with pytest.raises(ValueError, match="ambient mismatch"):
        FpVector(amb(3, 3), (2, 2, 0)) in PointSet.from_codes(amb(3, 2), [8])
    assert PointSet.from_vectors(amb(3, 2), [x, x]).codes.tolist() == [8]
    assert x in PointSet.from_codes(amb(3, 2), [8])


def test_size_is_counted_once_and_matches_codes():
    a = AmbientSpace(3, 3)
    for E in (PointSet.empty(a), PointSet.full(a), random_point_set(a, 11, seed=4)):
        assert E.size == len(E) == E.codes.size


def test_empty_and_full():
    a = amb(3, 2)
    assert PointSet.empty(a).size == 0
    assert PointSet.full(a).size == 9


def test_mask_is_immutable():
    E = PointSet.from_codes(amb(3, 2), [1])
    with pytest.raises(ValueError):
        E.mask[0] = True


def mask_of(a, codes):
    """The membership mask oracle: one bool per point code."""
    mask = np.zeros(a.point_count, dtype=bool)
    mask[list(codes)] = True
    return mask


def assert_matches_mask(E, a, mask):
    expected = np.flatnonzero(mask)
    assert E.size == len(E) == int(mask.sum())
    assert E.codes.dtype == np.int64 and np.array_equal(E.codes, expected)
    assert not E.codes.flags.writeable
    first, second = E.mask, E.mask
    assert first is not second and np.array_equal(first, mask) and np.array_equal(second, mask)
    assert not first.flags.writeable
    points = list(itertools.product(range(a.p), repeat=a.n))
    coords = np.array([pt[::-1] for pt in points], dtype=np.int64)[expected]  # code = sum x_i p^i
    assert np.array_equal(E.coordinates(), coords.reshape(-1, a.n))
    for code in range(-1, a.point_count + 1):
        assert E.contains_code(code) is bool(0 <= code < a.point_count and mask[code])
    for pt in points:
        v = FpVector(a, pt[::-1])
        assert (v in E) is bool(mask[sum(x * a.p**i for i, x in enumerate(v.coords))])


SPACES = [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (3, 3)]


@settings(max_examples=150, deadline=None)
@given(space=st.sampled_from(SPACES), data=st.data())
def test_point_set_matches_a_mask_oracle(space, data):
    a = AmbientSpace(*space)
    codes = st.lists(st.integers(0, a.point_count - 1), max_size=2 * a.point_count)
    xs, ys = data.draw(codes), data.draw(codes)  # unsorted, with repeats
    E, F = PointSet.from_codes(a, xs), PointSet.from_codes(a, np.array(ys, dtype=np.int64))
    mx, my = mask_of(a, xs), mask_of(a, ys)
    assert_matches_mask(E, a, mx)
    assert_matches_mask(F, a, my)
    assert_matches_mask(E.union(F), a, mx | my)
    assert_matches_mask(F.union(E), a, mx | my)
    assert_matches_mask(PointSet.empty(a), a, mask_of(a, []))
    assert_matches_mask(PointSet.full(a), a, ~mask_of(a, []))
    assert (E == F) is bool(np.array_equal(mx, my))
    assert E == PointSet.from_codes(a, reversed(xs + xs)) == PointSet(a, np.flatnonzero(mx))
    assert E.union(E) == E and E.union(PointSet.empty(a)) == E
    assert PointSet.from_codes(AmbientSpace(a.p, a.n + 1), xs) != E  # same codes, other space


def test_constructor_rejects_anything_but_increasing_codes_in_range():
    a = amb(3, 2)
    bad = [
        np.zeros(9, dtype=bool),  # a membership mask is not a list of codes
        np.array([True, False]),
        np.array([0.0, 1.0]),
        [0.0, 1.0],
        np.array([3, 1]),  # unsorted
        np.array([1, 1]),  # repeated
        np.array([-1, 0]),
        np.array([0, 9]),  # 9 = p^n
        np.array([[0, 1]]),
    ]
    for codes in bad:
        with pytest.raises(ValueError):
            PointSet(a, codes)
    for codes in ([1.5], np.array([0.0, 2.0]), np.array([True, False]), [-1], [9]):
        with pytest.raises(ValueError):
            PointSet.from_codes(a, codes)
    assert PointSet(a, np.array([0, 4, 8], dtype=np.uint8)) == PointSet.from_codes(a, [8, 0, 4, 4])


def test_sets_of_a_large_space_never_allocate_its_mask(tmp_path):
    # 3^14 = 4,782,969 points: a mask takes 4.8 MB, a table of coordinates 535 MB
    a = AmbientSpace(3, 14)
    rng = np.random.default_rng(5)
    codes = rng.integers(0, a.point_count, size=1000)
    path = tmp_path / "pts.txt"  # written by hand: save_point_set would decode the codes untraced
    rows = [",".join(str(c // 3**i % 3) for i in range(14)) for c in sorted(set(codes[:50].tolist()))]
    path.write_text("p=3,n=14\n" + "\n".join(rows) + "\n")
    W = first_subspace(a, 3)
    offset = FpVector(a, tuple(int(x) for x in rng.integers(0, 3, size=14)))
    E = PointSet.from_codes(a, codes)
    F = PointSet.from_codes(a, (codes[500:] + 1) % a.point_count)
    steps = {
        "from_codes": lambda: PointSet.from_codes(a, codes),
        "empty": lambda: PointSet.empty(a),
        "union": lambda: E.union(F),
        "affine_flat_set": lambda: affine_flat_set(W, offset),
        "load_point_set": lambda: load_point_set(path, ambient=a),
        "coordinates": lambda: PointSet.from_codes(a, codes).coordinates(),
        "contains_code": lambda: [E.contains_code(int(c)) for c in codes[:20]],
        "==": lambda: E == F,
    }
    for name, step in steps.items():
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6, (name, peak)
    assert affine_flat_set(W, offset).size == 27
    assert load_point_set(path) == PointSet.from_codes(a, codes[:50])
    assert np.array_equal(E.coordinates() @ 3 ** np.arange(14), E.codes)


# -- random sets ----------------------------------------------------------


def test_random_set_edges():
    a = amb(3, 3)
    assert random_point_set(a, 0, seed=1).size == 0
    assert random_point_set(a, 27, seed=1) == PointSet.full(a)
    with pytest.raises(ValueError):
        random_point_set(a, 28, seed=1)


def test_random_set_budget_is_checked_before_allocating(monkeypatch):
    import fpproj.rng

    def no_keys(*args):
        raise AssertionError("keys allocated before the budget check")

    monkeypatch.setattr(fpproj.rng, "key64_rows", no_keys)
    with pytest.raises(BudgetError):
        random_point_set(AmbientSpace(2, 40), 3, 0)  # 2^40 keys would be 8 TiB
    with pytest.raises(BudgetError):
        random_point_set(amb(3, 3), 3, 0, budget=26)
    monkeypatch.undo()
    assert random_point_set(amb(3, 3), 3, 0, budget=27) == random_point_set(amb(3, 3), 3, 0)


def test_drawn_sets_equal_sets_built_by_the_checking_constructor():
    a = amb(5, 3)
    sizes = [0, 1, 7, 60, 124, 125]
    for E in random_point_sets(a, sizes, range(len(sizes))):
        F = PointSet(a, np.array(E.codes))
        assert E == F and E.size == F.size == len(E.codes)
        assert E.codes.dtype == np.int64 and not E.codes.flags.writeable
        assert np.array_equal(E.coordinates(), F.coordinates())
    assert [E.size for E in random_point_sets(a, sizes, range(len(sizes)))] == sizes


def test_random_set_deterministic():
    a = amb(5, 3)
    x = random_point_set(a, 25, seed=99)
    y = random_point_set(a, 25, seed=99)
    assert x == y and np.array_equal(x.mask, y.mask)
    assert x != random_point_set(a, 25, seed=100)


def test_random_set_exact_size():
    a = amb(7, 2)
    for size in (1, 10, 48):
        assert random_point_set(a, size, seed=3).size == size


def test_random_set_inclusion_frequencies():
    # 200 seeds at p=5, n=3, size=25: every point should land near 0.2
    a = amb(5, 3)
    hits = np.zeros(125, dtype=np.int64)
    for seed in range(200):
        hits += random_point_set(a, 25, seed=seed).mask
    freq = hits / 200.0
    assert freq.min() >= 0.12 and freq.max() <= 0.28


# -- flats ------------------------------------------------------------------


def test_flat_is_subspace_when_offset_inside():
    a = amb(3, 2)
    W = span_of_point(FpVector.unit(a, 0))
    E = affine_flat_set(W, FpVector(a, (2, 0)))
    assert E == PointSet.from_vectors(a, [FpVector(a, (i, 0)) for i in range(3)])


def test_flat_worked_example():
    a = amb(3, 2)
    W = span_of_point(FpVector.unit(a, 0))
    E = affine_flat_set(W, FpVector(a, (0, 1)))
    expected = {(0, 1), (1, 1), (2, 1)}
    assert {v.coords for v in E.points()} == expected


def test_flat_cardinality():
    a = amb(5, 3)
    for k in range(3):
        for W in enumerate_subspaces(a, k)[:4]:
            assert affine_flat_set(W, FpVector(a, (1, 2, 3))).size == 5**k


# -- circle -----------------------------------------------------------------


def test_circle_sizes():
    assert circle_set(5).size == 4
    assert circle_set(7).size == 8
    with pytest.raises(ValueError):
        circle_set(2)


def test_circle_points_satisfy_equation():
    for p in (5, 7, 11, 13):
        for v in circle_set(p).points():
            x1, x2, x3 = v.coords
            assert (x1 * x1 + x2 * x2) % p == 1
            assert x3 == 1


def test_circle_size_formula_brute():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        expected = sum(
            1
            for x1 in range(p)
            for x2 in range(p)
            if (x1 * x1 + x2 * x2) % p == 1
        )
        assert circle_set(p).size == expected
        assert expected == (p - 1 if p % 4 == 1 else p + 1)


# -- moment curve -------------------------------------------------------------


def test_moment_curve_size_and_points():
    E = moment_curve_set(7, 3)
    assert E.size == 6
    firsts = sorted(v.coords[0] for v in E.points())
    assert firsts == [1, 2, 3, 4, 5, 6]
    for v in E.points():
        aa = v.coords[0]
        assert v.coords == (aa, aa * aa % 7, aa**3 % 7)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 3), (7, 4), (13, 3)])
def test_moment_curve_cardinality(p, n):
    assert moment_curve_set(p, n).size == p - 1


def test_moment_curve_preconditions():
    with pytest.raises(ValueError):
        moment_curve_set(7, 1)
    with pytest.raises(ValueError):
        moment_curve_set(2, 3)


# -- files --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    a = amb(3, 3)
    E = random_point_set(a, 11, seed=5)
    path = tmp_path / "pts.txt"
    save_point_set(E, path)
    assert load_point_set(path) == E
    assert load_point_set(path, ambient=a) == E


def test_load_empty_body(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("p=3,n=2\n")
    assert load_point_set(path) == PointSet.empty(amb(3, 2))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("q=3,n=2\n")
    with pytest.raises(ValueError):
        load_point_set(path)


def test_load_rejects_ambient_mismatch(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("p=3,n=2\n1,1\n")
    with pytest.raises(ValueError):
        load_point_set(path, ambient=amb(5, 2))


def test_load_rejects_out_of_range_coordinate(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("p=3,n=2\n3,0\n")
    with pytest.raises(ValueError):
        load_point_set(path)


def test_load_names_the_file_and_line_of_a_coordinate_that_is_no_integer(tmp_path):
    # every per-line error names the file and the line: integers, width, range, duplicates
    path = tmp_path / "pts.txt"
    for line, message in (
        ("x,1", "invalid literal for int"),
        ("1," + "2" * 5001, "Exceeds the limit (4300 digits)"),
        ("1", "expected 2 coordinates"),
        ("1,2,0", "expected 2 coordinates"),
        ("3,0", "coordinate = 3 out of range [0, 2]"),
        ("0,-1", "coordinate = -1 out of range [0, 2]"),
        ("0,0", "duplicate point (0, 0)"),
    ):
        path.write_text(f"p=3,n=2\n0,0\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_point_set(path)
        assert str(exc.value).startswith(f"{path}: line 3: ") and message in str(exc.value)


def test_load_rejects_duplicates(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("p=3,n=2\n1,0\n1,0\n")
    with pytest.raises(ValueError):
        load_point_set(path)


def test_saved_file_format(tmp_path):
    a = amb(3, 2)
    E = PointSet.from_codes(a, [5, 0])
    path = tmp_path / "pts.txt"
    save_point_set(E, path)
    assert path.read_text() == "p=3,n=2\n0,0\n2,1\n"
