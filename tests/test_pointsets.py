import numpy as np
import pytest

from fpproj.budgets import BudgetError
from fpproj.field import AmbientSpace, FpVector
from fpproj.pointsets import (
    PointSet,
    affine_flat_set,
    circle_set,
    load_point_set,
    moment_curve_set,
    random_point_set,
    save_point_set,
)
from fpproj.subspaces import enumerate_subspaces, span_of_point


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
