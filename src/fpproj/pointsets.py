"""Point sets E of F_p^n: random sets, flats, the two curve examples, files.

A set is stored as the sorted, distinct int64 codes of its members: it
costs O(|E|) memory however large p^n is.  The projection kernels
read its coordinates and the transform its codes; the p^n membership
mask is built only when asked for.  Sets are immutable.
"""

from __future__ import annotations

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET
from .field import AmbientSpace, FpVector, decode, decode_array, encode, encode_array
from .rng import choose_rows
from .subspaces import Subspace, flat_codes


class PointSet:
    """An exact subset of F_p^n: its codes, strictly increasing, and their count."""

    __slots__ = ("ambient", "codes", "size", "_coordinates")

    def __init__(self, ambient: AmbientSpace, codes: np.ndarray):
        codes = np.asarray(codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError(f"point codes must be a 1-d integer array, not {codes.dtype} {codes.shape}")
        if codes.size and not (codes[1:] > codes[:-1]).all():
            raise ValueError("point codes must be strictly increasing")
        if codes.size and (codes[0] < 0 or codes[-1] >= ambient.point_count):
            raise ValueError("point code out of range")
        self._fill(ambient, codes.astype(np.int64))

    def _fill(self, ambient: AmbientSpace, codes: np.ndarray) -> None:
        codes.setflags(write=False)
        self.ambient = ambient
        self.codes = codes
        self.size = codes.size
        self._coordinates = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, ambient: AmbientSpace, codes: np.ndarray) -> "PointSet":
        """Wrap int64 codes already strictly increasing and in range (no check, no copy)."""
        E = cls.__new__(cls)
        E._fill(ambient, codes)
        return E

    @classmethod
    def empty(cls, ambient: AmbientSpace) -> "PointSet":
        return cls(ambient, np.empty(0, dtype=np.int64))

    @classmethod
    def full(cls, ambient: AmbientSpace) -> "PointSet":
        return cls(ambient, np.arange(ambient.point_count, dtype=np.int64))

    @classmethod
    def from_codes(cls, ambient: AmbientSpace, codes) -> "PointSet":
        """Codes in any order, with repeats: one sort (np.unique would add a hash pass)."""
        codes = np.sort(codes if isinstance(codes, np.ndarray) else list(codes))
        if not codes.size:
            return cls.empty(ambient)
        return cls(ambient, codes[np.concatenate(([True], codes[1:] != codes[:-1]))])

    @classmethod
    def from_vectors(cls, ambient: AmbientSpace, vectors) -> "PointSet":
        return cls.from_codes(ambient, [encode(v) for v in vectors])

    # -- queries ------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        """A new read-only p^n membership array, indexed by point code."""
        mask = np.zeros(self.ambient.point_count, dtype=bool)
        mask[self.codes] = True
        mask.setflags(write=False)
        return mask

    def __len__(self) -> int:
        return self.size

    def __contains__(self, v: FpVector) -> bool:
        return self.contains_code(encode(v))

    def contains_code(self, code: int) -> bool:
        i = self.codes.searchsorted(code)
        return bool(i < self.size and self.codes[i] == code)

    def points(self) -> list[FpVector]:
        return [decode(self.ambient, int(c)) for c in self.codes]

    def coordinates(self) -> np.ndarray:
        """(|E|, n) coordinate matrix of the members (cached, read-only)."""
        if self._coordinates is None:
            coordinates = decode_array(self.ambient, self.codes)
            coordinates.setflags(write=False)
            self._coordinates = coordinates
        return self._coordinates

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.ambient == other.ambient and np.array_equal(self.codes, other.codes)

    __hash__ = None

    def union(self, other: "PointSet") -> "PointSet":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return PointSet.from_codes(self.ambient, np.concatenate((self.codes, other.codes)))

    def __repr__(self):
        return f"PointSet(p={self.ambient.p}, n={self.ambient.n}, size={self.size})"


def random_point_sets(
    ambient: AmbientSpace, sizes, seeds, budget=DEFAULT_POINT_BUDGET
) -> list[PointSet]:
    """One uniform random subset of exactly sizes[i] points per seeds[i].

    Sampling is without replacement and fully determined by
    (ambient, size, seed): the members are the `size` codes with the
    smallest counter-based keys (see rng module).  The keys of many
    seeds are drawn as one block per chunk of sets, and p^n is checked
    against budget once, before any key is allocated.  A mask's
    flatnonzero is increasing and in range, so each set wraps it
    without the constructor's checks and copy.
    """
    out = []
    for _, masks in choose_rows(seeds, ambient.point_count, sizes, budget=budget):
        for mask in masks:
            out.append(PointSet._canonical(ambient, np.flatnonzero(mask).astype(np.int64, copy=False)))
    return out


def random_point_set(
    ambient: AmbientSpace, size: int, seed: int, budget=DEFAULT_POINT_BUDGET
) -> PointSet:
    """Uniform random subset of exactly `size` points: the one-set case of random_point_sets."""
    return random_point_sets(ambient, (size,), (seed,), budget=budget)[0]


def affine_flat_set(W: Subspace, offset: FpVector) -> PointSet:
    """The plane offset+W as a point set; cardinality p^dim(W)."""
    if W.ambient != offset.ambient:
        raise ValueError("ambient mismatch")
    return PointSet(W.ambient, np.sort(flat_codes(W, offset.coords)))  # p^dim distinct codes


def circle_set(p: int) -> PointSet:
    """{(x1, x2, 1) in F_p^3 : x1^2 + x2^2 = 1}.

    Cardinality is p-1 when p = 1 mod 4 and p+1 when p = 3 mod 4.
    """
    if p < 3:
        raise ValueError("the circle needs an odd prime (p = 2 is degenerate)")
    ambient = AmbientSpace(p, 3)
    x1, x2 = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    on = (x1 * x1 + x2 * x2) % p == 1
    codes = x1[on] + p * x2[on] + p * p  # third coordinate fixed to 1
    return PointSet.from_codes(ambient, codes.astype(np.int64))


def moment_curve_set(p: int, n: int) -> PointSet:
    """{(a, a^2, ..., a^n) : a in F_p, a != 0}; exactly p-1 points."""
    if n < 2:
        raise ValueError("moment curve needs n >= 2")
    if p < 3:
        raise ValueError("moment curve needs p >= 3")
    ambient = AmbientSpace(p, n)
    a = np.arange(1, p, dtype=np.int64)
    pts = np.empty((p - 1, n), dtype=np.int64)
    acc = a.copy()
    for i in range(n):
        pts[:, i] = acc
        acc = (acc * a) % p
    return PointSet.from_codes(ambient, encode_array(ambient, pts))


# ---------------------------------------------------------------------------
# file format: header "p=<p>,n=<n>", then one point per line as "c0,c1,..."
# ---------------------------------------------------------------------------


def save_point_set(E: PointSet, path) -> None:
    lines = [f"p={E.ambient.p},n={E.ambient.n}"]
    for pt in E.coordinates():
        lines.append(",".join(str(int(c)) for c in pt))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(line: str) -> tuple[int, int]:
    try:
        left, right = line.strip().split(",")
        if not (left.startswith("p=") and right.startswith("n=")):
            raise ValueError
        return int(left[2:]), int(right[2:])
    except ValueError:
        raise ValueError(f"malformed point-set header: {line!r}") from None


def load_point_set(path, ambient: AmbientSpace | None = None) -> PointSet:
    """Read a point-set file; duplicates and range errors are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty point-set file (missing header)")
    p, n = _parse_header(lines[0])
    file_ambient = AmbientSpace(p, n)
    if ambient is not None and ambient != file_ambient:
        raise ValueError(
            f"header (p={p}, n={n}) does not match requested "
            f"(p={ambient.p}, n={ambient.n})"
        )
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            coords = tuple(int(c) for c in line.split(","))
        except ValueError as exc:  # not an integer, or past the digit limit of int()
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if len(coords) != n:
            raise ValueError(f"line {lineno}: expected {n} coordinates")
        if any(not 0 <= c < p for c in coords):
            raise ValueError(f"line {lineno}: coordinate out of range [0, {p})")
        code = encode(FpVector(file_ambient, coords))
        if code in seen:
            raise ValueError(f"line {lineno}: duplicate point {coords}")
        seen.add(code)
    return PointSet(file_ambient, np.array(sorted(seen), dtype=np.int64))
