import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj.field import (
    AmbientSpace,
    FpMatrix,
    FpVector,
    decode,
    dot,
    encode,
    format_point,
    gaussian_binomial,
    is_prime,
    nullspace,
    parse_point,
    rref,
)
from fpproj.subspaces import Subspace, parse_subspace, serialize_subspace
from oracles import brute_gaussian_count, brute_nullspace_set, span_set


def vec(p, n, coords):
    return FpVector(AmbientSpace(p, n), tuple(coords))


# -- ambient space ------------------------------------------------------


def test_ambient_rejects_composite_p():
    with pytest.raises(ValueError):
        AmbientSpace(6, 2)
    with pytest.raises(ValueError):
        AmbientSpace(1, 2)


def test_ambient_rejects_bad_n():
    with pytest.raises(ValueError):
        AmbientSpace(3, 0)


def test_ambient_rejects_oversized_space():
    with pytest.raises(ValueError):
        AmbientSpace(2, 64)
    # refused from the bit lengths alone, before p^n or primality is computed
    for p, n in ((2, 10**12), (3, 10**8), (2**61 - 1, 2), (4, 10**9)):
        with pytest.raises(ValueError, match="exact index range"):
            AmbientSpace(p, n)
    assert AmbientSpace(2, 62).point_count == 2**62
    assert AmbientSpace(2**61 - 1, 1).point_count == 2**61 - 1


def test_point_count():
    assert AmbientSpace(3, 4).point_count == 81
    assert AmbientSpace(7, 2).point_count == 49


# -- dot ----------------------------------------------------------------


def test_dot_known_values():
    assert dot(vec(3, 2, (1, 2)), vec(3, 2, (2, 1))) == 1
    zero = vec(5, 3, (0, 0, 0))
    for v in [vec(5, 3, c) for c in [(1, 2, 3), (4, 4, 4)]]:
        assert dot(zero, v) == 0
    for p in (2, 3, 5, 7):
        amb = AmbientSpace(p, 3)
        assert dot(FpVector.unit(amb, 0), FpVector.unit(amb, 1)) == 0


def test_dot_ambient_mismatch():
    with pytest.raises(ValueError):
        dot(vec(3, 2, (1, 0)), vec(5, 2, (1, 0)))
    with pytest.raises(ValueError):
        dot(vec(3, 2, (1, 0)), vec(3, 3, (1, 0, 0)))


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_dot_bilinear_in_first_slot(a, b, k):
    amb = AmbientSpace(7, 2)
    u = FpVector(amb, (a, b))
    v = FpVector(amb, (3, 5))
    assert dot(u.scale(k), v) == (k * dot(u, v)) % 7


# -- encode / decode ----------------------------------------------------


def test_encode_known_values():
    assert encode(vec(3, 2, (0, 0))) == 0
    assert encode(vec(3, 2, (2, 1))) == 5


def test_decode_rejects_out_of_range():
    amb = AmbientSpace(3, 2)
    with pytest.raises(ValueError):
        decode(amb, 9)
    with pytest.raises(ValueError):
        decode(amb, -1)


@pytest.mark.parametrize("p,n", [(3, 3), (2, 5), (5, 5), (7, 2)])
def test_encode_decode_bijective(p, n):
    amb = AmbientSpace(p, n)
    seen = set()
    for code in range(p**n):
        v = decode(amb, code)
        assert encode(v) == code
        seen.add(v.coords)
    assert len(seen) == p**n


# -- rref ---------------------------------------------------------------


def test_rref_identity_fixed():
    amb = AmbientSpace(3, 2)
    M = FpMatrix(amb, ((1, 0), (0, 1)))
    R, rank, pivots = rref(M)
    assert R.rows == M.rows and rank == 2 and pivots == (0, 1)


def test_rref_zero_matrix():
    amb = AmbientSpace(3, 2)
    R, rank, pivots = rref(FpMatrix(amb, ((0, 0), (0, 0))))
    assert R.rows == () and rank == 0 and pivots == ()


def test_rref_dependent_rows():
    amb = AmbientSpace(5, 2)
    R, rank, _ = rref(FpMatrix(amb, ((1, 2), (2, 4))))
    assert R.rows == ((1, 2),) and rank == 1


def _random_matrices(p, n, rows, count, seed):
    import random

    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(rows)
        )


@pytest.mark.parametrize("p,n", [(2, 3), (3, 4), (5, 3), (7, 2)])
def test_rref_idempotent_and_preserves_rowspace(p, n):
    amb = AmbientSpace(p, n)
    for rows in _random_matrices(p, n, 3, 25, seed=p * 100 + n):
        R, rank, pivots = rref(FpMatrix(amb, rows))
        R2, rank2, _ = rref(R)
        assert R2.rows == R.rows and rank2 == rank
        assert list(pivots) == sorted(pivots)
        # row space preserved, checked by exhaustive span membership
        original_span = span_set(list(rows), p, n)
        reduced_span = span_set(list(R.rows), p, n)
        assert original_span == reduced_span


# -- nullspace ----------------------------------------------------------


def test_nullspace_identity_is_trivial():
    amb = AmbientSpace(3, 2)
    assert nullspace(FpMatrix(amb, ((1, 0), (0, 1)))).rows == ()


def test_nullspace_zero_row_is_everything():
    amb = AmbientSpace(3, 3)
    basis = nullspace(FpMatrix(amb, ((0, 0, 0),)))
    assert len(basis.rows) == 3


def test_nullspace_example_exhaustive():
    amb = AmbientSpace(3, 3)
    M = ((1, 0, 1),)
    basis = nullspace(FpMatrix(amb, M))
    assert len(basis.rows) == 2
    assert span_set(list(basis.rows), 3, 3) == brute_nullspace_set(M, 3, 3)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 3)])
def test_rank_nullity(p, n):
    amb = AmbientSpace(p, n)
    for rows in _random_matrices(p, n, 2, 30, seed=17 * p + n):
        M = FpMatrix(amb, rows)
        _, rank, _ = rref(M)
        assert rank + len(nullspace(M).rows) == n
        assert span_set(list(nullspace(M).rows), p, n) == brute_nullspace_set(rows, p, n)


# -- gaussian binomial --------------------------------------------------


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 2) == 35
    for n, p in [(3, 3), (4, 2), (5, 5)]:
        assert gaussian_binomial(n, 0, p) == 1
        assert gaussian_binomial(n, n, p) == 1


def test_gaussian_binomial_against_brute_count():
    assert gaussian_binomial(3, 1, 3) == brute_gaussian_count(3, 3, 1)
    assert gaussian_binomial(4, 2, 2) == brute_gaussian_count(2, 4, 2)


def test_gaussian_binomial_symmetry():
    for p in (2, 3, 5):
        for n in range(6):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)


def test_gaussian_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 3)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 3)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 4)


# -- primality helper ---------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for m in range(-2, 32):
        assert is_prime(m) == (m in primes)


def test_is_prime_equals_trial_division():
    # a sieve below 10^5, then a Mersenne prime, a strong pseudoprime to
    # the bases 2, 3, 5 and 7, a Carmichael number, and numbers just below 2^63 and 2^64
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [m for m in range(limit) if is_prime(m)] == [m for m in range(limit) if sieve[m]]
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751) and 3215031751 == 151 * 751 * 28351
    assert not is_prime(561) and 561 == 3 * 11 * 17
    assert is_prime(2**63 - 25) and is_prime(2**64 - 59)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


# -- vectors normalize --------------------------------------------------


@given(st.lists(st.integers(-20, 20), min_size=3, max_size=3))
@settings(max_examples=50)
def test_vector_coords_reduced(coords):
    v = vec(5, 3, coords)
    assert all(0 <= c < 5 for c in v.coords)
    assert v.coords == tuple(c % 5 for c in coords)


# -- the coordinate grammar ----------------------------------------------


spaces = st.sampled_from([(2, 1), (2, 5), (3, 3), (5, 4), (7, 2), (13, 3)])


@given(spaces, st.data())
def test_a_point_read_back_from_its_text_is_the_point(space, data):
    p, n = space
    a = AmbientSpace(p, n)
    coords = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
    text = format_point(coords)
    assert parse_point(a, text) == FpVector(a, coords)
    assert format_point(parse_point(a, text).coords) == text


@given(spaces, st.data())
def test_a_subspace_read_back_from_its_text_is_the_subspace(space, data):
    p, n = space
    a = AmbientSpace(p, n)
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    W = Subspace.from_rows(a, data.draw(st.lists(row, max_size=n + 1)))
    text = serialize_subspace(W)
    assert parse_subspace(a, text) == W
    assert serialize_subspace(parse_subspace(a, text)) == text


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,0", "expected 3 coordinates, got 2"),
        ("1,0,0,0", "expected 3 coordinates, got 4"),
        ("1,x,0", "invalid literal for int()"),
        ("1.0,0,0", "invalid literal for int()"),
        ("1,0," + "1" * 5001, "Exceeds the limit (4300 digits)"),
        ("6,0,0", "coordinate = 6 out of range [0, 4]"),
        ("5,0,0", "coordinate = 5 out of range [0, 4]"),
        ("0,-4,0", "coordinate = -4 out of range [0, 4]"),
        ("1_0,0,0", "invalid literal for int() with base 10: '1_0'"),
        ("0,0_1,0", "invalid literal for int() with base 10: '0_1'"),
        ("1,\u0663,0", "invalid literal for int() with base 10: '\u0663'"),
        ("1,\uff11,0", "invalid literal for int() with base 10: '\uff11'"),
    ],
)
def test_text_is_read_strictly(text, message):
    # a family line, --subspace and a flat's OFFSET reduced 6 to 1 and -4 to 1 over F_5
    a = AmbientSpace(5, 3)
    for parse in (parse_point, parse_subspace):
        with pytest.raises(ValueError) as exc:
            parse(a, text)
        assert str(exc.value).startswith(message)


def test_text_allows_what_int_allows_around_each_coordinate():
    a = AmbientSpace(5, 3)
    assert parse_point(a, " 1, +2 ,-0") == FpVector(a, (1, 2, 0))
    assert parse_subspace(a, "0,2,0; 1,0,0") == Subspace(a, ((1, 0, 0), (0, 1, 0)))
    assert parse_subspace(a, " ") == Subspace.zero(a)  # blank text is the zero subspace, but no point
    with pytest.raises(ValueError, match="invalid literal for int"):
        parse_point(a, "")


def test_a_coordinate_is_ascii_digits_as_in_a_file_header():
    # int() read "1_0,\u0663" over F_11 as the point (10, 3)
    a = AmbientSpace(11, 2)
    assert parse_point(a, "10,3") == FpVector(a, (10, 3))
    for text in ("1_0,\u0663", "1_0,3", "10,\u0663"):
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_point(a, text)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda a: FpVector.unit(a, -1), r"unit vector index i = -1 out of range \[0, 2\]"),
        (lambda a: FpVector.unit(a, 3), r"unit vector index i = 3 out of range \[0, 2\]"),
        (lambda a: FpVector(a, (1.7, 0, 0)), "coordinates must be integers"),
        (lambda a: FpVector(a, (1.0, 0, 0)), "coordinates must be integers"),
        (lambda a: FpVector(a, ("1", 0, 0)), "coordinates must be integers"),
        (lambda a: FpVector(a, (np.float64(2), 0, 0)), "coordinates must be integers"),
    ],
    ids=["unit-negative", "unit-past-n", "float", "integral-float", "string", "numpy-float"],
)
def test_a_vector_refuses_an_index_or_coordinate_it_used_to_bend(make, message):
    # unit(a, -1) was (0, 0, 1) and (1.7, 0, 0) was truncated to (1, 0, 0); a
    # ValueError is what the command line reports with exit code 2
    with pytest.raises(ValueError, match=message):
        make(AmbientSpace(3, 3))


def test_a_vector_takes_python_and_numpy_integers():
    a = AmbientSpace(5, 3)
    v = FpVector(a, (np.int64(6), np.int32(-4), np.uint8(0)))
    assert v.coords == (1, 1, 0) and all(type(c) is int for c in v.coords)
    assert FpVector(a, (True, False, 7)).coords == (1, 0, 2)
    assert [FpVector.unit(a, i).coords for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_integer_constructors_still_reduce_mod_p():
    a = AmbientSpace(5, 3)
    assert FpVector(a, (6, -4, 0)).coords == (1, 1, 0)
    assert FpMatrix(a, ((6, -4, 0),)).rows == ((1, 1, 0),)
    assert Subspace.from_rows(a, [(6, 0, 0), (0, -4, 0)]) == Subspace(a, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        FpMatrix(a, ((1, 0, 0), (1, 0)))
