"""Exact arithmetic and linear algebra over the prime field F_p.

Vectors are tuples of residues, matrices are tuples of row tuples, and
every count is a Python integer, so all identities in this package can
be checked with zero tolerance.  The numpy kernels at the bottom move
many points at once and hold the one Gaussian elimination, of which
rref and nullspace are one-matrix cases; they never round anything.

Points of F_p^n are indexed by little-endian base-p codes: coordinate i
of a vector is digit i of its code, so (2, 1) over F_3 has code
2 + 1*3 = 5.  This fixes file formats and array indexing unambiguously.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Point codes live in int64 arrays; spaces with more points are rejected.
MAX_POINT_COUNT = 2**63 - 1

# An integer in text (file headers and coordinates): ASCII digits with an
# optional sign.  int() alone would also read '1_0' and non-ASCII digits.
INTEGER = "[+-]?[0-9]+"


# Miller-Rabin with every prime base up to 37 decides primality exactly below 3.18 * 10^23.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..37: exact for every p below 2^64."""
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    for a in _WITNESSES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):  # a prime p has a^(d 2^j) = p - 1 for some j < s
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@dataclass(frozen=True)
class AmbientSpace:
    """The vector space F_p^n, fixing modulus, dimension and point order."""

    p: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # p >= 2^(bits - 1), so p^n is refused unbuilt when (bits - 1) n reaches 63
        if self.p > 1 and ((int(self.p).bit_length() - 1) * self.n >= 63 or self.p**self.n > MAX_POINT_COUNT):
            raise ValueError(f"p^n = {self.p}^{self.n} exceeds the exact index range")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    @property
    def point_count(self) -> int:
        return self.p**self.n

    def __repr__(self):
        return f"AmbientSpace(p={self.p}, n={self.n})"


@dataclass(frozen=True)
class FpVector:
    """A point (or frequency) of F_p^n with coordinates reduced mod p."""

    ambient: AmbientSpace
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.ambient.n:
            raise ValueError(
                f"expected {self.ambient.n} coordinates, got {len(self.coords)}"
            )
        p = self.ambient.p
        try:  # operator.index takes ints and numpy integers, and refuses 1.7 rather than truncate it
            coords = tuple(operator.index(c) % p for c in self.coords)
        except TypeError:
            raise ValueError(f"coordinates must be integers, got {self.coords!r}") from None
        object.__setattr__(self, "coords", coords)

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "FpVector":
        return cls(ambient, (0,) * ambient.n)

    @classmethod
    def unit(cls, ambient: AmbientSpace, i: int) -> "FpVector":
        check_range("unit vector index i", i, 0, ambient.n - 1)
        coords = [0] * ambient.n
        coords[i] = 1
        return cls(ambient, tuple(coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "FpVector") -> "FpVector":
        check_same_ambient(self.ambient, other.ambient)
        return FpVector(self.ambient, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FpVector") -> "FpVector":
        check_same_ambient(self.ambient, other.ambient)
        return FpVector(self.ambient, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, k: int) -> "FpVector":
        return FpVector(self.ambient, tuple(k * c for c in self.coords))


def check_same_ambient(a: AmbientSpace, b: AmbientSpace, message: str | None = None) -> None:
    """The package's one check that two objects share their space F_p^n; message replaces the default error."""
    if a != b:
        raise ValueError(message or f"ambient mismatch: {a} vs {b}")


def check_range(what: str, value: int, lo: int, hi: int) -> None:
    """The package's one range check, of a dimension, codimension or coordinate: lo <= value <= hi."""
    if not lo <= value <= hi:
        raise ValueError(f"{what} = {value} out of range [{lo}, {hi}]")


def parse_point(ambient: AmbientSpace, text: str) -> FpVector:
    """The package's one reading of a point from text: n integers joined by ',', each in [0, p), none reduced.

    Each integer matches INTEGER, whitespace around it allowed, and int()
    reads it, so its digit limit holds; FpVector checks the count.
    """
    coords = tuple(map(_parse_integer, text.split(",")))
    for c in coords:
        check_range("coordinate", c, 0, ambient.p - 1)
    return FpVector(ambient, coords)


def _parse_integer(text: str) -> int:
    if re.fullmatch(INTEGER, text.strip()) is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def format_point(coords) -> str:
    """The text that parse_point reads back as the point with these coordinates: e.g. '1,0,2'."""
    return ",".join(map(str, coords))


def dot(u: FpVector, v: FpVector) -> int:
    """The bilinear form u.v = sum_i u_i v_i mod p."""
    check_same_ambient(u.ambient, v.ambient)
    return sum(a * b for a, b in zip(u.coords, v.coords)) % u.ambient.p


def encode(v: FpVector) -> int:
    """Little-endian base-p point code of v."""
    code = 0
    for c in reversed(v.coords):
        code = code * v.ambient.p + c
    return code


def decode(ambient: AmbientSpace, code: int) -> FpVector:
    """Inverse of encode: coordinate i is base-p digit i of code; rejects out-of-range codes."""
    check_range("code", code, 0, ambient.point_count - 1)
    return FpVector(ambient, tuple(code // ambient.p**i % ambient.p for i in range(ambient.n)))


@dataclass(frozen=True)
class FpMatrix:
    """Rows over F_p sharing one ambient row length."""

    ambient: AmbientSpace
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):  # each row checked and reduced as an FpVector
        object.__setattr__(self, "rows", tuple(FpVector(self.ambient, row).coords for row in self.rows))


def rref(M: FpMatrix) -> tuple[FpMatrix, int, tuple[int, ...]]:
    """Unique reduced row echelon form over F_p: _eliminate on the one-member stack of M.

    Pivot entries are 1, pivot columns are otherwise 0, zero rows are
    dropped and pivot columns strictly increase.  Returns the reduced
    matrix, its rank and the pivot column indices.
    """
    reduced, rank = _eliminate(M.ambient.p, np.array(M.rows, dtype=np.int64).reshape(1, -1, M.ambient.n))
    rows = reduced[0, : rank[0]]
    pivots = tuple((rows != 0).argmax(axis=1).tolist())
    return FpMatrix(M.ambient, tuple(map(tuple, rows.tolist()))), len(rows), pivots


def nullspace(M: FpMatrix) -> FpMatrix:
    """RREF-canonical basis of {x : M x^T = 0}; has n - rank(M) rows: _perp_rows of the RREF of M."""
    return FpMatrix(M.ambient, _perp_rows(M.ambient, rref(M)[0].rows))


def _perp_rows(ambient: AmbientSpace, basis) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of Per(W) for an RREF basis of W: its annihilator rows after one elimination."""
    bases = np.array(basis, dtype=np.int64).reshape(1, len(basis), ambient.n)
    rows = _rref_stack(ambient.p, _annihilator_rows(ambient.p, bases))[0]
    return tuple(map(tuple, rows.tolist()))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Exact number of k-dimensional subspaces of F_p^n.

    Computed by the product formula prod_i (p^n - p^i) / (p^k - p^i);
    the division is checked to be exact.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    check_range("k", k, 0, n)
    num = 1
    den = 1
    for i in range(k):
        num *= p**n - p**i
        den *= p**k - p**i
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Gaussian binomial product {num}/{den} is not an integer")
    return q


# ---------------------------------------------------------------------------
# numpy kernels: bulk encode/decode, and the one Gaussian elimination
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def power_vector(p: int, length: int) -> np.ndarray:
    """int64 vector (1, p, p^2, ...) used to encode digit matrices."""
    out = p ** np.arange(length, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def digit_table(p: int, length: int) -> np.ndarray:
    """(p^length, length) int64 table; row c holds the digits of code c."""
    count = p**length
    codes = np.arange(count, dtype=np.int64)
    out = np.empty((count, length), dtype=np.int64)
    for i in range(length):
        out[:, i] = codes % p
        codes //= p
    out.setflags(write=False)
    return out


def encode_array(ambient: AmbientSpace, points: np.ndarray) -> np.ndarray:
    """Codes of a (m, n) matrix of reduced coordinates."""
    return points @ power_vector(ambient.p, ambient.n)


def decode_array(ambient: AmbientSpace, codes: np.ndarray) -> np.ndarray:
    """(m, n) coordinates of codes in O(m n) memory; unravel_index gives the top digit first."""
    return np.array(np.unravel_index(codes, (ambient.p,) * ambient.n)[::-1], dtype=np.int64).T


def _eliminate(p: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reduced, rank): the reduced row echelon form and rank of each member of a (K, r, n) stack.

    Column by column, every member that still has a row with a nonzero
    entry there at or below its rank swaps the first such row up,
    scales it to a leading 1 and clears the column in its other rows;
    rows at or past its rank come out zero.  Products of two residues
    fit int64 while (p-1)^2 < 2^63, as p^n < 2^63 gives for n >= 2; for
    n = 1 with p past that the same steps run on Python integers.
    """
    out = np.asarray(rows, dtype=np.int64 if (p - 1) ** 2 < 2**63 else object) % p
    K, r, n = out.shape
    rank = np.zeros(K, dtype=np.intp)
    for col in range(n):
        candidates = (out[:, :, col] != 0) & (np.arange(r) >= rank[:, None])
        has = candidates.any(axis=1)
        if not has.any():
            continue
        who, src, dst = np.flatnonzero(has), candidates[has].argmax(axis=1), rank[has]
        pivot = out[who, src]
        out[who, src] = out[who, dst]
        pivot = pivot * _inverse_mod(pivot[:, col], p)[:, None] % p
        out[who, dst] = pivot
        factors = out[who, :, col]
        factors[np.arange(len(who)), dst] = 0
        out[who] = (out[who] - factors[:, :, None] * pivot[:, None, :]) % p
        rank[has] += 1
    return out, rank


def _rref_stack(p: int, rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form of each member of a (K, r, n) stack of independent rows."""
    out, rank = _eliminate(p, rows)
    if not np.all(rank == out.shape[1]):
        raise ValueError("rows of a stack member are linearly dependent")
    return out


def _inverse_mod(values: np.ndarray, p: int) -> np.ndarray:
    """values^(p-2) mod p elementwise: the inverses of nonzero residues."""
    out = np.ones_like(values)
    base = values.copy()
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _annihilator_rows(p: int, bases: np.ndarray) -> np.ndarray:
    """Closed-form bases of Per(W) for a (K, k, n) stack of RREF bases.

    For each free (non-pivot) column f the row is 1 at f and -R[i, f] at
    pivot column i; these span the nullspace, and _rref_stack makes
    them canonical.
    """
    K, k, n = bases.shape
    m = n - k
    out = np.zeros((K, m, n), dtype=bases.dtype)
    members = np.arange(K)[:, None]
    pivots = (bases != 0).argmax(axis=2)  # (K, k): first nonzero entry of each row
    free_mask = np.ones((K, n), dtype=bool)
    free_mask[members, pivots] = False
    free = np.nonzero(free_mask)[1].reshape(K, m)  # (K, m), increasing per member
    at_free = np.take_along_axis(bases, np.broadcast_to(free[:, None, :], (K, k, m)), axis=2)
    out[members[:, :, None], np.arange(m)[None, :, None], pivots[:, None, :]] = (
        -at_free.transpose(0, 2, 1) % p
    )
    out[members, np.arange(m)[None, :], free] = 1
    return out
