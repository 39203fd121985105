"""The one Gaussian elimination against the scalar oracle.

rref, nullspace, Subspace checking, Subspace.from_rows, perp and the
stacked forms all run field._eliminate, perp once per call; tests/oracles.py keeps the
row-by-row elimination on Python integers as the reference.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpproj import field
from fpproj.field import AmbientSpace, FpMatrix, _eliminate, _rref_stack, is_prime, nullspace, rref
from fpproj.subspaces import Subspace, perp
from oracles import perp_basis, scalar_nullspace, scalar_rref

# the largest prime below 2^63: n = 1 only, where products of residues leave int64
P63 = next(p for p in range(2**63 - 1, 0, -2) if is_prime(p))


@st.composite
def matrices(draw):
    """(p, n, rows): a few random rows, then zero rows and combinations of them, shuffled."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 5))
    entry = st.integers(-2 * p, 3 * p)  # reduced mod p on the way in
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=n + 1))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
        rows.append(tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)))
    rows += [(0,) * n] * draw(st.integers(0, 2))
    return p, n, tuple(draw(st.permutations(rows)))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_every_one_matrix_entry_point_equals_the_oracle(case):
    p, n, rows = case
    a = AmbientSpace(p, n)
    reduced, rank, pivots = scalar_rref(rows, p, n)
    R, r, piv = rref(FpMatrix(a, rows))
    assert (R.rows, r, piv) == (reduced, rank, pivots)
    assert nullspace(FpMatrix(a, rows)).rows == scalar_nullspace(rows, p, n)
    W = Subspace.from_rows(a, rows)
    assert W.basis == reduced
    assert perp(W).basis == perp_basis(p, n, reduced) == scalar_nullspace(reduced, p, n)
    # Subspace checks its basis: accepted exactly when it is already its own reduced form,
    # and kept as the rows it checked, reduced mod p
    given_rows = tuple(tuple(c % p for c in row) for row in rows)
    if given_rows == reduced:
        assert Subspace(a, rows).basis == given_rows
    else:
        with pytest.raises(ValueError, match="reduced-row-echelon"):
            Subspace(a, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(matrices(), min_size=1, max_size=6), st.sampled_from([2, 3, 5, 7, 11]))
def test_the_stack_form_equals_the_oracle_per_member(cases, p):
    # one p and n for the stack, each member zero-padded to the tallest
    n = cases[0][1]
    members = [[tuple(row[j] if j < len(row) else 0 for j in range(n)) for row in rows] for _, _, rows in cases]
    height = max(map(len, members))
    stack = np.zeros((len(members), height, n), dtype=np.int64)
    for i, rows in enumerate(members):
        stack[i, : len(rows)] = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    reduced, rank = _eliminate(p, stack)
    assert reduced.dtype == np.int64 and reduced.shape == stack.shape
    for i, rows in enumerate(members):
        expected, r, _ = scalar_rref(rows, p, n)
        assert rank[i] == r
        assert reduced[i, :r].tolist() == [list(row) for row in expected]
        assert not reduced[i, r:].any()  # rows at or past the rank come out zero


@pytest.mark.parametrize("p,n", [(2, 1), (3, 4), (5, 3), (11, 5)])
def test_no_rows_zero_rows_and_full_rank(p, n):
    a = AmbientSpace(p, n)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for rows, rank in (((), 0), (((0,) * n,) * 3, 0), (identity, n), (identity[::-1], n)):
        R, r, pivots = rref(FpMatrix(a, rows))
        assert (R.rows, r, pivots) == scalar_rref(rows, p, n)
        assert r == rank == len(pivots)
        assert nullspace(FpMatrix(a, rows)).rows == scalar_nullspace(rows, p, n)
        assert len(nullspace(FpMatrix(a, rows)).rows) == n - rank
    assert perp(Subspace.zero(a)) == Subspace.full(a) and perp(Subspace.full(a)) == Subspace.zero(a)
    assert _rref_stack(p, np.zeros((0, 2, n), dtype=np.int64)).shape == (0, 2, n)
    with pytest.raises(ValueError, match="linearly dependent"):
        _rref_stack(p, np.zeros((1, 1, n), dtype=np.int64))


@pytest.mark.parametrize("p", [2**61 - 1, P63])
def test_the_line_over_a_prime_near_2_63_runs_on_python_integers(p):
    # (p-1)^2 >= 2^63, so int64 products would wrap; the same steps run on objects
    a = AmbientSpace(p, 1)
    rng = random.Random(p)
    values = [rng.randrange(2, p) for _ in range(4)]
    assert _eliminate(p, np.array([[[values[0]]]], dtype=np.int64))[0].dtype == object
    for rows in (((values[0],), (values[1],)), ((0,), (values[2],)), ((values[3],),), ((0,),), ()):
        assert rref(FpMatrix(a, rows)) == (FpMatrix(a, scalar_rref(rows, p, 1)[0]), *scalar_rref(rows, p, 1)[1:])
        assert nullspace(FpMatrix(a, rows)).rows == scalar_nullspace(rows, p, 1)
    line = Subspace.from_rows(a, [(values[0],), (values[1],)])
    assert line == Subspace(a, ((1,),)) == Subspace.full(a)
    assert perp(line) == Subspace.zero(a) and perp(Subspace.zero(a)) == line
    with pytest.raises(ValueError, match="reduced-row-echelon"):
        Subspace(a, ((values[0],),))


def test_the_plane_over_the_largest_prime_with_p_squared_in_int64():
    # p^2 < 2^63 < 2 (p-1)^2: products of two residues fit int64, sums of two do not
    p = 3_037_000_493
    a = AmbientSpace(p, 2)
    rng = random.Random(5)
    assert _eliminate(p, np.array([[[1, 2]]], dtype=np.int64))[0].dtype == np.int64
    for _ in range(20):
        rows = [tuple(rng.randrange(p) for _ in range(2)) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            rows.append(tuple(rng.randrange(1, p) * c % p for c in rows[0]))  # dependent
        assert rref(FpMatrix(a, rows)) == (FpMatrix(a, scalar_rref(rows, p, 2)[0]), *scalar_rref(rows, p, 2)[1:])
        assert nullspace(FpMatrix(a, rows)).rows == scalar_nullspace(rows, p, 2)
        W = Subspace.from_rows(a, rows)
        assert W.basis == scalar_rref(rows, p, 2)[0]
        assert perp(W).basis == perp_basis(p, 2, W.basis)


@pytest.mark.parametrize("p,n", [(2, 1), (5, 3), (11, 4), (2**61 - 1, 1), (P63, 1), (3_037_000_493, 2)])
def test_perp_runs_one_elimination_and_equals_the_oracle(p, n, monkeypatch):
    a = AmbientSpace(p, n)
    rng = random.Random(p * n)
    calls = []
    real = field._eliminate

    def counted(q, rows):
        calls.append(rows.shape)
        return real(q, rows)

    monkeypatch.setattr(field, "_eliminate", counted)
    for _ in range(12):
        rows = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randrange(n + 1))]
        W = Subspace.from_rows(a, rows)
        calls.clear()
        assert perp.__wrapped__(W).basis == perp_basis(p, n, W.basis)
        assert calls == [(1, n - W.dim, n)]  # the annihilator rows alone, not W's basis again
        assert all(type(c) is int for row in perp.__wrapped__(W).basis for c in row)
