"""Exact arithmetic and linear algebra over the prime field F_p.

Vectors are tuples of residues, matrices are tuples of row tuples, and
every count is a Python integer, so all identities in this package can
be checked with zero tolerance.  The numpy kernels at the bottom exist
only to move many points at once; they never round anything.

Points of F_p^n are indexed by little-endian base-p codes: coordinate i
of a vector is digit i of its code, so (2, 1) over F_3 has code
2 + 1*3 = 5.  This fixes file formats and array indexing unambiguously.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Point codes live in int64 arrays; spaces with more points are rejected.
MAX_POINT_COUNT = 2**63 - 1


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
        object.__setattr__(self, "coords", tuple(int(c) % p for c in self.coords))

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "FpVector":
        return cls(ambient, (0,) * ambient.n)

    @classmethod
    def unit(cls, ambient: AmbientSpace, i: int) -> "FpVector":
        coords = [0] * ambient.n
        coords[i] = 1
        return cls(ambient, tuple(coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "FpVector") -> "FpVector":
        _same_ambient(self, other)
        p = self.ambient.p
        return FpVector(
            self.ambient, tuple((a + b) % p for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "FpVector") -> "FpVector":
        _same_ambient(self, other)
        p = self.ambient.p
        return FpVector(
            self.ambient, tuple((a - b) % p for a, b in zip(self.coords, other.coords))
        )

    def scale(self, k: int) -> "FpVector":
        p = self.ambient.p
        return FpVector(self.ambient, tuple((k * c) % p for c in self.coords))


def _same_ambient(u, v):
    if u.ambient != v.ambient:
        raise ValueError(f"ambient mismatch: {u.ambient} vs {v.ambient}")


def dot(u: FpVector, v: FpVector) -> int:
    """The bilinear form u.v = sum_i u_i v_i mod p."""
    _same_ambient(u, v)
    return sum(a * b for a, b in zip(u.coords, v.coords)) % u.ambient.p


def encode(v: FpVector) -> int:
    """Little-endian base-p point code of v."""
    code = 0
    for c in reversed(v.coords):
        code = code * v.ambient.p + c
    return code


def decode(ambient: AmbientSpace, code: int) -> FpVector:
    """Inverse of encode; rejects out-of-range codes."""
    if not 0 <= code < ambient.point_count:
        raise ValueError(f"code {code} out of range [0, {ambient.point_count})")
    coords = []
    for _ in range(ambient.n):
        code, r = divmod(code, ambient.p)
        coords.append(r)
    # least-significant digit first = coordinate 0
    return FpVector(ambient, tuple(coords))


@dataclass(frozen=True)
class FpMatrix:
    """Rows over F_p sharing one ambient row length."""

    ambient: AmbientSpace
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p, n = self.ambient.p, self.ambient.n
        norm = []
        for row in self.rows:
            if len(row) != n:
                raise ValueError(f"row length {len(row)} != ambient n = {n}")
            norm.append(tuple(int(c) % p for c in row))
        object.__setattr__(self, "rows", tuple(norm))


def rref(M: FpMatrix) -> tuple[FpMatrix, int, tuple[int, ...]]:
    """Unique reduced row echelon form over F_p.

    Pivot entries are 1, pivot columns are otherwise 0, zero rows are
    dropped and pivot columns strictly increase.  Returns the reduced
    matrix, its rank and the pivot column indices.
    """
    p, n = M.ambient.p, M.ambient.n
    rows = [list(r) for r in M.rows]
    pivots = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return FpMatrix(M.ambient, tuple(tuple(row) for row in rows[:r])), r, tuple(pivots)


def nullspace(M: FpMatrix) -> FpMatrix:
    """RREF-canonical basis of {x : M x^T = 0}; has n - rank(M) rows.

    For each free column f of the RREF R of M, the vector 1 at f and
    -R[i][f] at pivot column i lies in the nullspace; one rref makes
    these canonical.
    """
    p, n = M.ambient.p, M.ambient.n
    R, _, pivots = rref(M)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[f] = 1
        for row, c in zip(R.rows, pivots):
            v[c] = -row[f] % p
        basis.append(tuple(v))
    out, rank, _ = rref(FpMatrix(M.ambient, tuple(basis)))
    if rank != len(basis):
        raise ArithmeticError(f"nullspace basis of rank {rank}, expected {len(basis)}")
    return out


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Exact number of k-dimensional subspaces of F_p^n.

    Computed by the product formula prod_i (p^n - p^i) / (p^k - p^i);
    the division is checked to be exact.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} out of range [0, {n}]")
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
# numpy kernels: bulk encode/decode for the enumeration-heavy modules
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
