"""Linear subspaces of F_p^n: canonical bases, enumeration, annihilators, cosets.

A subspace is identified with its unique reduced-row-echelon basis, so
equality, hashing and enumeration order are all deterministic.  Cosets
of a proper nontrivial subspace W are labeled by the smallest point
code they contain, read off the residues of a point against the
canonical basis of the annihilator Per(W): the one coset labelling,
also behind membership (a point lies in W iff its label is 0).
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
    _annihilator_rows,
    _perp_rows,
    _rref_stack,
    check_range,
    check_same_ambient,
    decode,
    decode_array,
    digit_table,
    encode_array,
    format_point,
    gaussian_binomial,
    parse_point,
    power_vector,
    rref,
)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace held as its canonical RREF basis."""

    ambient: AmbientSpace
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        M = FpMatrix(self.ambient, self.basis)
        if rref(M)[0].rows != M.rows:  # rref drops dependent rows, so short rank shows too
            raise ValueError("basis must be a reduced-row-echelon matrix of full rank")
        object.__setattr__(self, "basis", M.rows)  # the rows checked: reduced mod p

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
        return cls._canonical(ambient, rref(FpMatrix(ambient, tuple(tuple(r) for r in rows)))[0].rows)

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "Subspace":
        return first_subspace(ambient, 0)

    @classmethod
    def full(cls, ambient: AmbientSpace) -> "Subspace":
        return first_subspace(ambient, ambient.n)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient.n - len(self.basis)

    def is_proper_nontrivial(self) -> bool:
        return 0 < self.dim < self.ambient.n

    def __repr__(self):
        return f"Subspace({self.ambient.p}^{self.ambient.n}, [{serialize_subspace(self)}])"


def serialize_subspace(W: Subspace) -> str:
    """Rows joined by ';', each in format_point: e.g. '1,0,2;0,1,1'."""
    return ";".join(map(format_point, W.basis))


def csv_subspace_name(W: Subspace) -> str:
    """serialize_subspace with ' ' and '|' as separators, one CSV field: e.g. '1 0 2|0 1 1'."""
    return serialize_subspace(W).replace(",", " ").replace(";", "|")


def parse_subspace(ambient: AmbientSpace, text: str) -> Subspace:
    """Inverse of serialize_subspace; rows are canonicalized on the way in."""
    return Subspace.from_rows(ambient, _parse_rows(ambient, text))


def _parse_rows(ambient: AmbientSpace, text: str) -> list[tuple[int, ...]]:
    """The rows of serialized text as given, each read by parse_point; blank text has none."""
    return [parse_point(ambient, row).coords for row in text.split(";")] if text.strip() else []


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
    grassmannian_size(ambient, k, budget)
    return _grassmannian(ambient, k)


def grassmannian_size(ambient: AmbientSpace, k: int, budget=DEFAULT_SUBSPACE_BUDGET) -> int:
    """|G(n, k)|, checked against budget as grassmannian checks it, with nothing enumerated."""
    check_range("k", k, 0, ambient.n)
    total = gaussian_binomial(ambient.n, k, ambient.p)
    check_budget(total, budget, f"|G({ambient.n},{k})| over F_{ambient.p}")
    return total


@lru_cache(maxsize=64)  # one acceptance pass asks for 48 distinct (ambient, k)
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
    check_range("k", k, 0, n)
    basis = tuple(tuple(1 if j == n - k + i else 0 for j in range(n)) for i in range(k))
    return Subspace._canonical(ambient, basis)


def span_of_point(x: FpVector) -> Subspace:
    """The line {k*x : k in F_p} through a nonzero point."""
    if x.is_zero():
        raise ValueError("the zero vector spans no line")
    return Subspace.from_rows(x.ambient, [x.coords])


@lru_cache(maxsize=2048)
def perp(W: Subspace) -> Subspace:
    """The annihilator Per(W) = {x : x.w = 0 for all w in W}.

    dim W + dim Per(W) = n, but unlike a Euclidean orthogonal
    complement, W and Per(W) may intersect nontrivially.  _perp_rows
    runs one elimination, on W's canonical basis as it is, and builds no
    SubspaceStack, whose int64 bound would refuse a large p.
    """
    return Subspace._canonical(W.ambient, _perp_rows(W.ambient, W.basis))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def contains(W: Subspace, v: FpVector) -> bool:
    """True iff v lies in W: the coset v+W has minimum 0."""
    check_same_ambient(W.ambient, v.ambient)
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


def check_int64_products(ambient: AmbientSpace):
    """Refuse an ambient space where a sum of n products of residues, n(p-1)^2, leaves int64."""
    p, n = ambient.p, ambient.n
    if n * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"n(p-1)^2 for p={p}, n={n} exceeds the exact int64 range")


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
        check_int64_products(self.ambient)
        self.bases.setflags(write=False)

    @classmethod
    def of(cls, ambient: AmbientSpace, dim: int | None, members) -> "SubspaceStack":
        """The stack of dim-dimensional subspaces of ambient: members itself if a stack.

        The package's one conversion of Subspaces to a stack.  dim None
        takes the members' own dimension: the first Subspace's, 0 for none.
        """
        if isinstance(members, cls):
            check_same_ambient(ambient, members.ambient)
            if dim is not None and members.dim != dim:
                raise ValueError(f"stack of dimension {members.dim}, expected dimension {dim}")
            return members
        members = tuple(members)
        dim = (members[0].dim if members else 0) if dim is None else dim
        for W in members:
            check_same_ambient(ambient, W.ambient)
            if W.dim != dim:
                raise ValueError(f"member of dimension {W.dim} in a stack of dimension {dim}")
        bases = np.array([W.basis for W in members], dtype=np.int64)
        return cls(ambient, bases.reshape(len(members), dim, ambient.n))

    def __len__(self) -> int:
        return self.bases.shape[0]

    def __iter__(self):
        return iter(self.members)

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
        """The members selected by an index array or boolean mask, rows already built included."""
        out = SubspaceStack(self.ambient, self.bases[index])
        if "annihilators" in self.__dict__:  # a member's rows depend on its basis alone
            out.__dict__["annihilators"] = self.annihilators[index]  # where cached_property keeps them
            out.annihilators.setflags(write=False)
        return out

    @cached_property
    def _sorted_distinct(self) -> bool:
        return _strictly_increasing(_row_keys(self))

    def distinct(self) -> "SubspaceStack":
        """The distinct members sorted by basis read row by row (self if already so, as checked once per stack)."""
        return self if self._sorted_distinct else stack_union((self,))[0]


def _row_keys(stack: SubspaceStack) -> np.ndarray:
    """(K, k) keys: each basis row read as a base-p number, its first coordinate on top.

    Rows compare as their keys do, so members compare as their key rows
    read left to right; the keys are below p^n, within int64.
    """
    return stack.bases @ power_vector(stack.ambient.p, stack.ambient.n)[::-1]


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether every key row is above the one before it, read left to right."""
    steps = keys[1:] - keys[:-1]
    sign = np.zeros(len(steps), dtype=np.int64)  # rows of no columns are all equal
    for column in steps.T[::-1]:  # the first column that differs decides
        sign = np.where(column != 0, column, sign)
    return bool(np.all(sign > 0))


def stack_union(stacks) -> tuple[SubspaceStack, np.ndarray, np.ndarray]:
    """(union, members, edges): the distinct members of stacks of one ambient space and dimension.

    union holds them sorted by basis read row by row, and
    members[edges[i]:edges[i + 1]] are the members of stacks[i] as
    indices into union, in that stack's order.  One lexsort over the
    row keys sorts every member.
    """
    stacks = tuple(stacks)
    if not stacks:
        raise ValueError("no stacks to unite")
    ambient, dim = stacks[0].ambient, stacks[0].dim
    every = stacks[0]  # one stack is read in place, not copied
    if len(stacks) > 1:
        every = SubspaceStack(ambient, np.concatenate([SubspaceStack.of(ambient, dim, s).bases for s in stacks]))
    keys = _row_keys(every)
    # lexsort's last key is the primary one; the member index only breaks
    # ties, and keeps the key list nonempty when k = 0.
    order = np.lexsort((np.arange(len(keys)), *keys.T[::-1]))
    first = np.ones(len(keys), dtype=bool)  # the first member of each run of equal keys
    first[1:] = np.diff(keys[order], axis=0).any(axis=1)
    members = np.empty(len(every), dtype=np.int64)
    members[order] = np.cumsum(first) - 1
    return every.take(order[first]), members, np.cumsum([0] + [len(s) for s in stacks])


def perp_stack(stack: SubspaceStack) -> SubspaceStack:
    """Per(W) of every member, canonical, as one stack of dimension n - k.

    The closed-form annihilator rows of all members are brought to
    reduced row echelon form by one elimination over the whole stack.
    The rows are independent and the form is unique, so member i is
    perp(stack.members[i]).
    """
    return SubspaceStack(stack.ambient, _rref_stack(stack.ambient.p, stack.annihilators))


def stacked_span_codes(ambient: AmbientSpace, rows: np.ndarray, lines: bool = False):
    """(part, codes) per chunk of a (K, r, n) stack of independent rows.

    codes[i] lists the codes of the p^r points spanned by rows[part][i],
    each once, in the order of the coefficient digits (digit_table).
    For a stack of annihilators that order is increasing: row j's last
    nonzero coordinate is its free column f_j, where every other row is
    zero, and above f_j only rows l > j are nonzero, so a span point's
    code compares as its coefficients read from the last.  With lines,
    only the coefficients line_codes(p, r) are spanned: one point on
    each of the (p^r - 1)/(p - 1) lines through 0 of a span.  For
    annihilators, a point whose top coefficient is c_j = 1 is 0 above
    f_j and 1 at f_j: its line's smallest code already.
    """
    p, r = ambient.p, rows.shape[1]
    coeffs = digit_table(p, r)[line_codes(p, r)] if lines else digit_table(p, r)
    weights = power_vector(p, ambient.n)
    for part in member_chunks(len(rows), len(coeffs) * ambient.n):
        points = coeffs @ rows[part]
        points -= points // p * p  # mod p; numpy divides by a scalar ~4x faster than np.remainder
        yield part, points @ weights


def line_codes(p: int, r: int) -> np.ndarray:
    """The codes in [p^d, 2p^d) for d < r: each line through 0 of F_p^r by its smallest code.

    lambda x for lambda != 0 runs over x's line, and a code compares by
    its top digit first, so the smallest has top nonzero digit 1.
    """
    blocks = (np.arange(p**d, 2 * p**d, dtype=np.int64) for d in range(r))
    return np.concatenate([np.empty(0, dtype=np.int64), *blocks])


def _line_minima(ambient: AmbientSpace) -> np.ndarray:
    """(p^n,) codes: each code's line's smallest code (line_codes), 0 for code 0.

    Callers check p^n against their point budget first; the map is
    built per call and not kept.
    """
    lines = line_codes(ambient.p, ambient.n)
    x = decode_array(ambient, lines)
    out = np.zeros(ambient.point_count, dtype=np.int64)
    for scale in range(1, ambient.p):
        out[encode_array(ambient, x * scale % ambient.p)] = lines
    return out


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CosetLabel:
    """A coset x+W named by its smallest point code, read off x's residues against Per(W)."""

    subspace: Subspace
    representative: int

    def representative_vector(self) -> FpVector:
        return decode(self.subspace.ambient, self.representative)


def _require_proper(W: Subspace):
    if not W.is_proper_nontrivial():
        raise ValueError("cosets are only defined for proper nontrivial subspaces")


def _coset_weights(W: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The RREF rows b_j of Per(W) as an (m, n) array, and p^(c_j) for each pivot column c_j."""
    n = W.ambient.n
    rows = np.array(perp(W).basis, dtype=np.int64).reshape(W.codim, n)
    return rows, power_vector(W.ambient.p, n)[(rows != 0).argmax(axis=1)]


def reduce_points(W: Subspace, points: np.ndarray) -> np.ndarray:
    """Coset-minimum codes for a (m, n) coordinate matrix (vectorized).

    x and y share a coset iff b_j.x = b_j.y mod p for every row b_j of
    Per(W).  The point with residue b_j.x at each pivot column c_j and 0
    elsewhere lies in x+W, as b_j is 1 at c_j and every other row is 0
    there.  It is the minimum: any other coset point differs from it by
    a nonzero w in W whose last nonzero coordinate is no c_j (b_j
    vanishes before c_j and b_j.w = 0), so it is nonzero where the
    minimum is 0 and equal to it above.  W = 0 gives the point's code,
    W = F_p^n gives 0.  As b_j is 1 at c_j, b_j.x <= (p-1) + (n-1)(p-1)^2
    < p^n < 2^63: exact in int64 for every ambient space.
    """
    rows, weights = _coset_weights(W)
    return (points @ rows.T % W.ambient.p) @ weights


def coset_label(W: Subspace, x: FpVector) -> CosetLabel:
    """Label of the coset x+W; two points get equal labels iff x-y in W."""
    _require_proper(W)
    check_same_ambient(W.ambient, x.ambient)
    pts = np.array([x.coords], dtype=np.int64)
    return CosetLabel(W, int(reduce_points(W, pts)[0]))


def enumerate_cosets(W: Subspace) -> list[CosetLabel]:
    """All p^(n-dim W) coset labels, sorted by representative code."""
    _require_proper(W)
    _, weights = _coset_weights(W)
    # the pivot columns increase, so digit order is already code order
    codes = digit_table(W.ambient.p, W.codim) @ weights
    return [CosetLabel(W, c) for c in codes.tolist()]


def coset_points(label: CosetLabel) -> np.ndarray:
    """Sorted codes of the points of the coset."""
    W = label.subspace
    return np.sort(flat_codes(W, decode(W.ambient, label.representative).coords))
