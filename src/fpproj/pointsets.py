"""Point sets E of F_p^n: random sets, flats, the two curve examples, files.

A set is a dense boolean membership array indexed by point code, which
makes the projection inner loops O(1) per membership test at desk
scale.  Sets are immutable once built.
"""

from __future__ import annotations

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET
from .field import AmbientSpace, FpVector, decode, decode_array, encode, encode_array
from .rng import choose_rows
from .subspaces import Subspace, flat_codes


class PointSet:
    """An exact subset of F_p^n with cached cardinality."""

    __slots__ = ("ambient", "size", "_mask", "_codes", "_coordinates")

    def __init__(self, ambient: AmbientSpace, mask: np.ndarray):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (ambient.point_count,):
            raise ValueError(
                f"mask length {mask.shape} != point count {ambient.point_count}"
            )
        mask.setflags(write=False)
        self.ambient = ambient
        self.size = int(np.count_nonzero(mask))
        self._mask = mask
        self._codes = None
        self._coordinates = None

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, ambient: AmbientSpace) -> "PointSet":
        return cls(ambient, np.zeros(ambient.point_count, dtype=bool))

    @classmethod
    def full(cls, ambient: AmbientSpace) -> "PointSet":
        return cls(ambient, np.ones(ambient.point_count, dtype=bool))

    @classmethod
    def from_codes(cls, ambient: AmbientSpace, codes) -> "PointSet":
        mask = np.zeros(ambient.point_count, dtype=bool)
        codes = np.asarray(list(codes) if not isinstance(codes, np.ndarray) else codes)
        if codes.size:
            if codes.min() < 0 or codes.max() >= ambient.point_count:
                raise ValueError("point code out of range")
            mask[codes] = True
        return cls(ambient, mask)

    @classmethod
    def from_vectors(cls, ambient: AmbientSpace, vectors) -> "PointSet":
        return cls.from_codes(ambient, [encode(v) for v in vectors])

    # -- queries ------------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    @property
    def codes(self) -> np.ndarray:
        """Sorted codes of the members (cached)."""
        if self._codes is None:
            codes = np.flatnonzero(self._mask).astype(np.int64)
            codes.setflags(write=False)
            self._codes = codes
        return self._codes

    def __len__(self) -> int:
        return self.size

    def __contains__(self, v: FpVector) -> bool:
        return bool(self._mask[encode(v)])

    def contains_code(self, code: int) -> bool:
        return bool(self._mask[code])

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
        return self.ambient == other.ambient and np.array_equal(self._mask, other._mask)

    __hash__ = None

    def union(self, other: "PointSet") -> "PointSet":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return PointSet(self.ambient, self._mask | other._mask)

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
    against budget once, before any key or membership mask is allocated.
    """
    out = []
    for _, masks in choose_rows(seeds, ambient.point_count, sizes, budget=budget):
        out.extend(PointSet(ambient, mask) for mask in masks)
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
    return PointSet.from_codes(W.ambient, flat_codes(W, offset.coords))


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
        coords = tuple(int(c) for c in line.split(","))
        if len(coords) != n:
            raise ValueError(f"line {lineno}: expected {n} coordinates")
        if any(not 0 <= c < p for c in coords):
            raise ValueError(f"line {lineno}: coordinate out of range [0, {p})")
        code = encode(FpVector(file_ambient, coords))
        if code in seen:
            raise ValueError(f"line {lineno}: duplicate point {coords}")
        seen.add(code)
    return PointSet.from_codes(file_ambient, sorted(seen))
