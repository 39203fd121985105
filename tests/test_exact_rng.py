import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpproj.exact import (
    floor_mul_pow,
    floor_pow,
    int_nth_root,
    le_affine_pow,
    le_pow,
    parse_fraction,
)
from fpproj.budgets import DEFAULT_POINT_BUDGET, BudgetError
from fpproj.rng import TWO64, choose_rows, key64_rows, smallest_key_mask
from oracles import choose_without_replacement as reference_choice
from oracles import splitmix_key


# -- integer roots ---------------------------------------------------------


def test_int_nth_root_small_exhaustive():
    for q in (1, 2, 3, 5):
        for x in range(0, 200):
            r = int_nth_root(x, q)
            assert r**q <= x < (r + 1) ** q


@given(st.integers(0, 10**30), st.integers(1, 7))
def test_int_nth_root_property(x, q):
    r = int_nth_root(x, q)
    assert r**q <= x < (r + 1) ** q


def test_int_nth_root_rejects_negatives():
    with pytest.raises(ValueError):
        int_nth_root(-1, 2)


# -- power comparisons ------------------------------------------------------


def test_le_pow_exact_boundaries():
    # 7^(3/2) = sqrt(343) ~ 18.5202: 18 <= it, 19 > it
    assert le_pow(18, 1, 7, Fraction(3, 2))
    assert not le_pow(19, 1, 7, Fraction(3, 2))
    # integer exponent boundary is inclusive
    assert le_pow(49, 1, 7, 2)
    assert not le_pow(50, 1, 7, 2)


def test_le_pow_negative_exponent():
    # 4 * 7^(-1/2) ~ 1.5119
    assert le_pow(1, 4, 7, Fraction(-1, 2))
    assert not le_pow(2, 4, 7, Fraction(-1, 2))


def test_le_affine_pow_moves_constant():
    # 10 <= 7 + 2 * 3^(1/2) ~ 10.46 but 11 is not
    assert le_affine_pow(10, 7, 2, 3, Fraction(1, 2))
    assert not le_affine_pow(11, 7, 2, 3, Fraction(1, 2))
    assert le_affine_pow(-5, 0, 0, 3, Fraction(1, 2))
    assert not le_affine_pow(1, 0, 0, 3, Fraction(1, 2))


@given(
    st.integers(0, 500),
    st.integers(2, 13).filter(lambda p: p in (2, 3, 5, 7, 11, 13)),
    st.fractions(min_value=-3, max_value=4).filter(lambda f: f.denominator <= 6),
)
def test_le_pow_agrees_with_high_precision_float(lhs, p, expo):
    approx = float(p) ** float(expo)
    # only check away from the boundary, where float is trustworthy
    if abs(lhs - approx) > 1e-6 * max(1.0, approx):
        assert le_pow(lhs, 1, p, expo) == (lhs < approx)


# -- rational floors -----------------------------------------------------------


def test_floor_pow_values():
    assert floor_pow(11, Fraction(1, 2)) == 3
    assert floor_pow(11, Fraction(3, 2)) == 36
    assert floor_pow(7, Fraction(0)) == 1
    assert floor_pow(5, 3) == 125


def test_floor_mul_pow_values():
    assert floor_mul_pow(Fraction(1, 7), 7, 1) == 1
    assert floor_mul_pow(Fraction(1, 2), 7, Fraction(1, 2)) == 1  # 1.32...
    assert floor_mul_pow(Fraction(3, 2), 2, 10) == 1536
    assert floor_mul_pow(0, 7, Fraction(5, 2)) == 0


@given(
    st.fractions(min_value=0, max_value=100).filter(lambda f: f.denominator <= 20),
    st.sampled_from([2, 3, 5, 7]),
    st.fractions(min_value=-2, max_value=6).filter(lambda f: f.denominator <= 6),
)
def test_floor_mul_pow_property(coeff, p, expo):
    t = floor_mul_pow(coeff, p, expo)
    # t <= coeff * p^expo < t + 1, checked through le_pow itself
    assert le_pow(t, coeff, p, expo)
    assert not le_pow(t + 1, coeff, p, expo)


def test_parse_fraction_forms():
    assert parse_fraction("3/2") == Fraction(3, 2)
    assert parse_fraction("1.5") == Fraction(3, 2)
    assert parse_fraction(1.3) == Fraction(13, 10)
    assert parse_fraction(2) == Fraction(2)
    assert parse_fraction(Fraction(5, 4)) == Fraction(5, 4)
    for flag in (True, False):
        with pytest.raises(ValueError, match="bool"):
            parse_fraction(flag)
    for value, spelled in ((None, "null"), ([1], "[1]"), ({"a": 1}, '{"a": 1}')):
        with pytest.raises(ValueError, match=f"^expected a rational number, got {re.escape(spelled)}$"):
            parse_fraction(value)
    for text in ("1/0", " 3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_fraction(text)
    # a decimal exponent is bounded before 10^exponent is built
    assert parse_fraction("1e4300") == 10**4300
    assert parse_fraction("-2.5E-4300") == Fraction(-25, 10**4301)
    assert parse_fraction("1e00000000003") == 1000
    for text in ("1e4301", "1E-4301", "1e999999999", "3.5e+00100000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent"):
            parse_fraction(text)


# -- counter-based keys ----------------------------------------------------------


def _choose(seed, population, size, budget=DEFAULT_POINT_BUDGET):
    # one seed's sample, as sorted indices: one row of choose_rows
    return np.flatnonzero(next(choose_rows((seed,), population, (size,), budget))[1][0])


def _smallest(keys, size):
    # indices of the size smallest keys, ties by index: row 0 of smallest_key_mask
    return np.flatnonzero(smallest_key_mask(keys[None], (size,))[0])


def test_key64_scalar_matches_array():
    keys = key64_rows((987654321,), 50)[0]
    for i in range(50):
        assert int(keys[i]) == splitmix_key(987654321, i)


def test_key64_range_and_determinism():
    ks = key64_rows((5,), 100)[0].tolist()
    assert all(0 <= k < TWO64 for k in ks)
    assert ks == key64_rows((5,), 100)[0].tolist()
    assert len(set(ks)) == 100  # no collisions at this scale
    assert ks != key64_rows((6,), 100)[0].tolist()


def test_choose_without_replacement_contract():
    out = _choose(7, 100, 30)
    assert out.shape == (30,)
    assert len(np.unique(out)) == 30
    assert np.all(out[:-1] < out[1:])
    assert out.min() >= 0 and out.max() < 100
    assert np.array_equal(out, _choose(7, 100, 30))
    assert out.tolist() == reference_choice(7, 100, 30)
    with pytest.raises(ValueError):
        _choose(7, 10, 11)


def _stable_smallest(keys, size):
    return np.sort(np.argsort(keys, kind="stable")[:size])


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=40),
    st.data(),
)
def test_smallest_keys_matches_stable_argsort_with_ties(values, data):
    # keys drawn from {0..5} are heavily tied, so the tie break by index decides
    keys = np.array(values, dtype=np.uint64)
    size = data.draw(st.integers(0, keys.size))
    assert np.array_equal(_smallest(keys, size), _stable_smallest(keys, size))


@pytest.mark.parametrize("population", [1, 2, 7, 300])
def test_smallest_keys_boundary_sizes(population):
    keys = key64_rows((11,), population)[0]
    tied = np.full(population, 2**63, dtype=np.uint64)
    tied[::3] = 5
    for k in (keys, tied):
        for size in (0, 1, population):
            assert np.array_equal(_smallest(k, size), _stable_smallest(k, size))
    with pytest.raises(ValueError):
        _smallest(keys, population + 1)


def test_choose_without_replacement_matches_full_sort():
    for seed in range(20):
        for population, size in ((1, 1), (50, 0), (50, 1), (50, 17), (343, 300)):
            expected = _stable_smallest(key64_rows((seed,), population)[0], size)
            assert np.array_equal(_choose(seed, population, size), expected)
            if population <= 50:
                assert expected.tolist() == reference_choice(seed, population, size)


def test_choose_without_replacement_checks_budget_first(monkeypatch):
    import fpproj.rng

    def no_keys(*args):
        raise AssertionError("keys allocated before the budget check")

    monkeypatch.setattr(fpproj.rng, "key64_rows", no_keys)
    with pytest.raises(BudgetError):
        _choose(0, 2**40, 3)
    with pytest.raises(BudgetError):
        _choose(0, 11, 3, budget=10)


def test_choose_without_replacement_is_roughly_uniform():
    hits = np.zeros(20, dtype=int)
    for seed in range(500):
        hits[_choose(seed, 20, 5)] += 1
    # each index expected 125 times; allow wide but meaningful band
    assert hits.min() > 80 and hits.max() < 170


# -- fractional beta through the audit path ----------------------------------------


def test_audit_family_fractional_beta():
    from fpproj.families import audit_family, full_family
    from fpproj.field import AmbientSpace
    from fpproj.pointsets import random_point_set

    ambient = AmbientSpace(3, 3)
    G = full_family(ambient, 1)
    E = random_point_set(ambient, 9, seed=1)
    # spread_containing is exactly 4 = |G(2,1)|; 4 <= C |G| 3^-beta pins C
    audit = audit_family(G, "contains", beta=Fraction(3, 2), C=2, test_sets=[E])
    assert audit.spread.max_count == 4
    # 2 * 13 * 3^-1.5 ~ 5.004 >= 4
    assert audit.spread_ok
    tight = audit_family(G, "contains", beta=Fraction(3, 2), C=Fraction(3, 4))
    # 0.75 * 13 * 3^-1.5 ~ 1.876 < 4
    assert not tight.spread_ok