"""Linear subspaces of F_p^n: canonical bases, enumeration, annihilators, cosets.

A subspace is identified with its unique reduced-row-echelon basis, so
equality, hashing and enumeration order are all deterministic.  Cosets
of a proper nontrivial subspace W are labeled by the smallest point
code they contain; the labeling is computed by eliminating coordinates
from the most significant end, which lands exactly on that minimum.
Any collection of subspaces of one dimension, a whole Grassmannian or a
family, is one SubspaceStack of bases; Subspace objects are built from
it only when a caller iterates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .budgets import DEFAULT_SUBSPACE_BUDGET, check_budget
from .field import (
    AmbientSpace,
    FpMatrix,
    FpVector,
    decode,
    digit_table,
    encode_array,
    gaussian_binomial,
    power_vector,
    rref,
    rref_nullspace,
)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace held as its canonical RREF basis."""

    ambient: AmbientSpace
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        M = FpMatrix(self.ambient, self.basis)
        R, rank, _ = rref(M)
        if rank != len(self.basis) or R.rows != M.rows:
            raise ValueError("basis must be a reduced-row-echelon matrix of full rank")

    @classmethod
    def _canonical(cls, ambient: AmbientSpace, basis) -> "Subspace":
        """Wrap a basis already known to be reduced row echelon (no check)."""
        W = object.__new__(cls)
        object.__setattr__(W, "ambient", ambient)
        object.__setattr__(W, "basis", basis)
        return W

    @classmethod
    def from_rows(cls, ambient: AmbientSpace, rows) -> "Subspace":
        """Canonicalize arbitrary spanning rows into a Subspace."""
        R, _, _ = rref(FpMatrix(ambient, tuple(tuple(r) for r in rows)))
        return cls(ambient, R.rows)

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "Subspace":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: AmbientSpace) -> "Subspace":
        eye = tuple(
            tuple(1 if i == j else 0 for j in range(ambient.n)) for i in range(ambient.n)
        )
        return cls(ambient, eye)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient.n - len(self.basis)

    def is_proper_nontrivial(self) -> bool:
        return 0 < self.dim < self.ambient.n

    def basis_vectors(self) -> list[FpVector]:
        return [FpVector(self.ambient, row) for row in self.basis]

    def __repr__(self):
        return f"Subspace({self.ambient.p}^{self.ambient.n}, [{serialize_subspace(self)}])"


def serialize_subspace(W: Subspace) -> str:
    """Rows joined by ';', coordinates by ',': e.g. '1,0,2;0,1,1'."""
    return ";".join(",".join(str(c) for c in row) for row in W.basis)


def parse_subspace(ambient: AmbientSpace, text: str) -> Subspace:
    """Inverse of serialize_subspace; rows are canonicalized on the way in."""
    text = text.strip()
    if not text:
        return Subspace.zero(ambient)
    rows = []
    for part in text.split(";"):
        coords = tuple(int(c) for c in part.split(","))
        if len(coords) != ambient.n:
            raise ValueError(f"row '{part}' has {len(coords)} coordinates, expected {ambient.n}")
        rows.append(coords)
    return Subspace.from_rows(ambient, rows)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def grassmannian(ambient: AmbientSpace, k: int, budget=DEFAULT_SUBSPACE_BUDGET) -> SubspaceStack:
    """All k-dimensional subspaces as one stack, sorted by their flattened bases.

    The order is a fixed total order (lexicographic on the canonical
    basis read row by row), which gives every subspace the stable index
    required by the seeded family sampler.  |G(n, k)| is checked against
    budget before anything is allocated.
    """
    if not 0 <= k <= ambient.n:
        raise ValueError(f"k = {k} out of range [0, {ambient.n}]")
    total = gaussian_binomial(ambient.n, k, ambient.p)
    check_budget(total, budget, f"|G({ambient.n},{k})| over F_{ambient.p}")
    return _grassmannian(ambient, k)


@lru_cache(maxsize=32)
def _grassmannian(ambient: AmbientSpace, k: int) -> SubspaceStack:
    # One block per pivot pattern: 1 at each pivot, every free entry (right
    # of its row's pivot, outside the pivot columns) running over F_p.
    p, n = ambient.p, ambient.n
    bases = np.zeros((gaussian_binomial(n, k, p), k, n), dtype=np.int64)
    start = 0
    for pivots in itertools.combinations(range(n), k):
        free = [(i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
        block = bases[start : start + p ** len(free)]
        block[:, np.arange(k), list(pivots)] = 1
        rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        block[:, rows, cols] = digit_table(p, len(free))
        start += len(block)
    return SubspaceStack(ambient, bases).distinct()


def enumerate_subspaces(
    ambient: AmbientSpace, k: int, budget=DEFAULT_SUBSPACE_BUDGET
) -> tuple[Subspace, ...]:
    """The members of grassmannian(ambient, k, budget) as Subspace objects.

    The total count always equals the Gaussian binomial.
    """
    return grassmannian(ambient, k, budget).members


def first_subspace(ambient: AmbientSpace, k: int) -> Subspace:
    """span(e_(n-k), ..., e_(n-1)): element [0] of enumerate_subspaces(ambient, k)."""
    n = ambient.n
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} out of range [0, {n}]")
    basis = tuple(tuple(1 if j == n - k + i else 0 for j in range(n)) for i in range(k))
    return Subspace._canonical(ambient, basis)


def span_of_point(x: FpVector) -> Subspace:
    """The line {k*x : k in F_p} through a nonzero point."""
    if x.is_zero():
        raise ValueError("the zero vector spans no line")
    return Subspace.from_rows(x.ambient, [x.coords])


# One acceptance pass takes Per of about 1,500 distinct subspaces.
@lru_cache(maxsize=2048)
def perp(W: Subspace) -> Subspace:
    """The annihilator Per(W) = {x : x.w = 0 for all w in W}.

    dim W + dim Per(W) = n, but unlike a Euclidean orthogonal
    complement, W and Per(W) may intersect nontrivially.  W.basis is
    already in RREF, its pivots the first nonzero entry of each row, so
    one rref of the closed-form rows suffices.
    """
    if W.dim == 0:
        return Subspace.full(W.ambient)
    pivots = tuple(next(j for j, c in enumerate(row) if c) for row in W.basis)
    return Subspace._canonical(W.ambient, rref_nullspace(W.ambient, W.basis, pivots).rows)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def contains(W: Subspace, v: FpVector) -> bool:
    """True iff v lies in W: the coset v+W has minimum 0."""
    if W.ambient != v.ambient:
        raise ValueError(f"ambient mismatch: {W.ambient} vs {v.ambient}")
    return bool(contains_codes(W, np.array([v.coords], dtype=np.int64))[0])


def contains_codes(W: Subspace, points: np.ndarray) -> np.ndarray:
    """Vectorized membership for a (m, n) coordinate matrix."""
    return reduce_points(W, points) == 0


def flat_codes(W: Subspace, offset) -> np.ndarray:
    """Codes of the p^dim points offset + W, in coefficient-digit order."""
    p = W.ambient.p
    basis = np.array(W.basis, dtype=np.int64).reshape(W.dim, W.ambient.n)
    points = digit_table(p, W.dim) @ basis + np.asarray(offset, dtype=np.int64)
    return encode_array(W.ambient, np.remainder(points, p, out=points))


@lru_cache(maxsize=2048)
def span_codes(W: Subspace) -> np.ndarray:
    """Sorted codes of all p^dim points of W (read-only)."""
    out = np.sort(flat_codes(W, 0))
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# stacked members: one array per family instead of one object per member
# ---------------------------------------------------------------------------

# Batched kernels work on at most this many int64 elements per step, so
# their memory stays bounded whatever the family size, |E| or p^m.
CHUNK_ELEMENTS = 2**16


def member_chunks(count: int, per_member: int, cap: int | None = None):
    """Slices of range(count) holding at most cap // per_member members.

    cap defaults to CHUNK_ELEMENTS.  Every slice holds at least one
    member, so a member wider than the cap still gets a step of its own.
    """
    step = max(1, (CHUNK_ELEMENTS if cap is None else cap) // max(1, per_member))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


@dataclass(frozen=True, eq=False)
class SubspaceStack:
    """K subspaces of one dimension k as int64 arrays.

    bases is (K, k, n) with each member's canonical RREF basis (read
    only).  annihilators, built on first use, is (K, n-k, n) with a
    basis of each member's Per(W): two points lie in one coset of W iff
    they have equal dot products with every annihilator row, so these
    rows label cosets.  Every matrix product against the stacks sums n
    products of residues, so n(p-1)^2 < 2^63 keeps them exact in int64;
    construction checks it.
    """

    ambient: AmbientSpace
    bases: np.ndarray

    def __post_init__(self):
        p, n = self.ambient.p, self.ambient.n
        if n * (p - 1) ** 2 >= 2**63:
            raise ValueError(f"n(p-1)^2 for p={p}, n={n} exceeds the exact int64 range")
        self.bases.setflags(write=False)

    @classmethod
    def of(cls, ambient: AmbientSpace, dim: int, members) -> "SubspaceStack":
        """The stack of dim-dimensional subspaces of ambient: members itself if a stack."""
        if isinstance(members, cls):
            if (members.ambient, members.dim) != (ambient, dim):
                raise ValueError(
                    f"stack of dimension {members.dim} in {members.ambient}, "
                    f"expected dimension {dim} in {ambient}"
                )
            return members
        members = tuple(members)
        for W in members:
            if W.ambient != ambient:
                raise ValueError(f"ambient mismatch: {ambient} vs {W.ambient}")
            if W.dim != dim:
                raise ValueError(f"member of dimension {W.dim} in a stack of dimension {dim}")
        bases = np.array([W.basis for W in members], dtype=np.int64)
        return cls(ambient, bases.reshape(len(members), dim, ambient.n))

    def __len__(self) -> int:
        return self.bases.shape[0]

    @property
    def dim(self) -> int:
        return self.bases.shape[1]

    @property
    def codim(self) -> int:
        return self.ambient.n - self.dim

    @cached_property
    def annihilators(self) -> np.ndarray:
        out = _annihilator_rows(self.ambient.p, self.bases)
        out.setflags(write=False)
        return out

    @cached_property
    def members(self) -> tuple[Subspace, ...]:
        """One Subspace per member, in stack order, built on first use."""
        ambient = self.ambient
        return tuple(
            Subspace._canonical(ambient, tuple(map(tuple, basis))) for basis in self.bases.tolist()
        )

    def take(self, index) -> "SubspaceStack":
        """The members selected by an index array or boolean mask, as a new stack."""
        return SubspaceStack(self.ambient, self.bases[index])

    def distinct(self) -> "SubspaceStack":
        """The distinct members sorted by basis read row by row (self if already so)."""
        flat = self.bases.reshape(len(self), self.dim * self.ambient.n)
        # lexsort's last key is the primary one; the member index only
        # breaks ties, and keeps the key list nonempty when k = 0.
        order = np.lexsort((np.arange(len(flat)), *flat.T[::-1]))
        keep = np.ones(len(flat), dtype=bool)
        keep[1:] = np.diff(flat[order], axis=0).any(axis=1)
        index = order[keep]
        return self if np.array_equal(index, np.arange(len(self))) else self.take(index)


def _annihilator_rows(p: int, bases: np.ndarray) -> np.ndarray:
    """Closed-form bases of Per(W) for a (K, k, n) stack of RREF bases.

    For each free (non-pivot) column f the row is 1 at f and -R[i, f] at
    pivot column i, the nullspace construction without its final rref.
    """
    K, k, n = bases.shape
    m = n - k
    out = np.zeros((K, m, n), dtype=np.int64)
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


def stacked_span_codes(ambient: AmbientSpace, rows: np.ndarray):
    """(part, codes) per chunk of a (K, r, n) stack of independent rows.

    codes[i] lists the codes of the p^r points spanned by rows[part][i],
    each once, in the order of the coefficient digits (digit_table).
    For a stack of annihilators that order is increasing: row j's last
    nonzero coordinate is its free column f_j, where every other row is
    zero, and above f_j only rows l > j are nonzero, so a span point's
    code compares as its coefficients read from the last.
    """
    p = ambient.p
    coeffs = digit_table(p, rows.shape[1])
    weights = power_vector(p, ambient.n)
    for part in member_chunks(len(rows), len(coeffs) * ambient.n):
        points = coeffs @ rows[part]
        yield part, np.remainder(points, p, out=points) @ weights


def member_stack(ambient: AmbientSpace, G) -> SubspaceStack:
    """The stack of a family: G itself, a Family's stack, or built from an iterable."""
    stack = getattr(G, "stack", G)
    if isinstance(stack, SubspaceStack):
        return SubspaceStack.of(ambient, stack.dim, stack)
    members = tuple(G)
    dim = members[0].dim if members else 0
    return SubspaceStack.of(ambient, dim, members)


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetLabel:
    """A coset x+W named by the smallest point code it contains."""

    subspace: Subspace
    representative: int

    def representative_vector(self) -> FpVector:
        return decode(self.subspace.ambient, self.representative)


def _coset_reduction(W: Subspace):
    """Basis of W in RREF over the reversed columns, and its pivot columns.

    Row r is 1 at its trailing (highest-index) column trail[r], and
    every other row vanishes there.  Subtracting x[trail[r]] * row_r
    for all r zeroes the trailing columns of x; any other coset element
    differs first (from the most significant coordinate down) by a
    nonzero entry at some trail[r], so the reduced point is the coset
    minimum in point-code order.
    """
    n = W.ambient.n
    R, _, pivots = rref(FpMatrix(W.ambient, tuple(row[::-1] for row in W.basis)))
    rows = np.array(R.rows, dtype=np.int64).reshape(W.dim, n)[:, ::-1]
    return rows, tuple(n - 1 - c for c in pivots)


def _require_proper(W: Subspace):
    if not W.is_proper_nontrivial():
        raise ValueError("cosets are only defined for proper nontrivial subspaces")


def reduce_points(W: Subspace, points: np.ndarray) -> np.ndarray:
    """Coset-minimum codes for a (m, n) coordinate matrix (vectorized)."""
    p = W.ambient.p
    rows, trail = _coset_reduction(W)
    x = points
    for row, c in zip(rows, trail):
        x = (x - x[:, c : c + 1] * row) % p
    return encode_array(W.ambient, x)


def coset_label(W: Subspace, x: FpVector) -> CosetLabel:
    """Label of the coset x+W; two points get equal labels iff x-y in W."""
    _require_proper(W)
    if W.ambient != x.ambient:
        raise ValueError(f"ambient mismatch: {W.ambient} vs {x.ambient}")
    pts = np.array([x.coords], dtype=np.int64)
    return CosetLabel(W, int(reduce_points(W, pts)[0]))


def enumerate_cosets(W: Subspace) -> list[CosetLabel]:
    """All p^(n-dim W) coset labels, sorted by representative code."""
    _require_proper(W)
    ambient = W.ambient
    _, trail = _coset_reduction(W)
    free = [c for c in range(ambient.n) if c not in trail]
    coeffs = digit_table(ambient.p, len(free))
    pts = np.zeros((len(coeffs), ambient.n), dtype=np.int64)
    pts[:, free] = coeffs
    codes = np.sort(encode_array(ambient, pts))
    return [CosetLabel(W, int(c)) for c in codes]


def coset_points(label: CosetLabel) -> np.ndarray:
    """Sorted codes of the points of the coset."""
    W = label.subspace
    return np.sort(flat_codes(W, decode(W.ambient, label.representative).coords))
