"""Discrete Fourier transform over F_p^n and the exact coset-energy identity.

For the indicator of E the transform is
    E_hat(xi) = sum over x in E of exp(-2*pi*i * (x.xi mod p) / p),
with Parseval mass sum |E_hat|^2 = p^n |E|.  The identity checked by
verify_coset_identity says that the squared-fiber energy of E over the
cosets of W equals p^-m times the spectral mass on the annihilator
Per(W), where m = codim W.  The spatial side is an exact integer and is
always treated as the reference; the spectral side is the approximation
under test.

The identity holds line by line.  For xi != 0 spanning the line l,
    sum over lambda != 0 of |E_hat(lambda xi)|^2 = p E_l - |E|^2,
where E_l = sum over s of #{x in E : xi.x = s}^2 is the energy of E
over the cosets of the hyperplane Per(l) (projection.line_energies).
Per(W) is (p^m - 1)/(p - 1) lines that meet only at 0, so in integers
    p^m energy_W(E) = |E|^2 + sum over lines l of Per(W) of (p E_l - |E|^2),
the form from which the census takes its energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .budgets import DEFAULT_POINT_BUDGET, check_budget
from .field import AmbientSpace
from .pointsets import PointSet
from .projection import battery_projection_stats
from .subspaces import (
    Subspace,
    _require_proper,
    member_chunks,
    member_stack,
    perp,
    span_codes,
    stacked_span_codes,
)


@dataclass(frozen=True)
class SpectralTable:
    """E_hat(xi) for all p^n frequencies, indexed by the code of xi."""

    ambient: AmbientSpace
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.ambient.point_count,):
            raise ValueError("spectral table must hold one value per frequency")
        self.values.setflags(write=False)


def stacked_dft(sets, budget=DEFAULT_POINT_BUDGET):
    """(part, values) per chunk of a battery: values[i] transforms sets[part][i].

    The sets share one ambient space, and p^n is checked against budget
    before anything is allocated.  Each chunk is one fftn over the
    trailing n axes of an (s, p, ..., p) stack of indicators, holding at
    most CHUNK_ELEMENTS values (one set at least), so memory does not
    grow with the battery.  pocketfft runs the same 1-D transforms along
    each axis of each set as for that set alone, so every row equals
    the set's own transform bit for bit.
    """
    sets = tuple(sets)
    if not sets:
        return iter(())
    ambient = sets[0].ambient
    for E in sets:
        if E.ambient != ambient:
            raise ValueError(f"ambient mismatch: {ambient} vs {E.ambient}")
    check_budget(ambient.point_count, budget, "p^n for the transform")
    return _dft_chunks(sets, ambient)


def _dft_chunks(sets, ambient: AmbientSpace):
    p, n = ambient.p, ambient.n
    for part in member_chunks(len(sets), ambient.point_count):
        # each set's indicator, scattered from its codes into a zeroed row
        chunk = sets[part]
        cube = np.zeros((len(chunk), ambient.point_count), dtype=np.complex128)
        rows = np.repeat(np.arange(len(chunk)), [E.size for E in chunk])
        cube[rows, np.concatenate([E.codes for E in chunk])] = 1
        # code c = sum_i x_i p^i puts coordinate n-1 on the first cube axis
        # of a C-order reshape; fftn treats axes independently, so
        # frequency codes come back in the same little-endian order.
        cube = cube.reshape((len(chunk),) + (p,) * n)
        yield part, np.fft.fftn(cube, axes=tuple(range(1, n + 1))).reshape(len(chunk), -1)


def dft(E: PointSet, budget=DEFAULT_POINT_BUDGET) -> SpectralTable:
    """Transform of the indicator of E, one axis at a time in O(n p^(n+1)): stacked_dft of one set."""
    return SpectralTable(E.ambient, next(stacked_dft((E,), budget))[1][0])


def spectral_mass(table: SpectralTable) -> float:
    """sum over all frequencies of |E_hat|^2; Parseval makes it p^n |E|."""
    return float(np.sum(np.abs(table.values) ** 2))


def plancherel_defect(E: PointSet, table: SpectralTable | None = None) -> float:
    """| sum |E_hat|^2 - p^n |E| |; small iff the transform is healthy."""
    if table is None:
        table = dft(E)
    return abs(spectral_mass(table) - E.ambient.point_count * E.size)


def coset_energy_spectral(
    E: PointSet, W: Subspace, table: SpectralTable | None = None
) -> float:
    """p^-m times the spectral mass of E on the annihilator Per(W).

    Only the p^m frequencies spanned by Per(W) are touched, so after
    the transform this costs O(p^m), not O(p^n).  This is the one-member
    reference for the batched spectral side of verify_coset_identities.
    """
    _require_proper(W)
    if table is None:
        table = dft(E)
    m = W.codim
    freqs = span_codes(perp(W))
    mass = float(np.sum(np.abs(table.values[freqs]) ** 2))
    return mass / E.ambient.p**m


class CosetIdentityResult(NamedTuple):
    spatial: int
    spectral: float
    passed: bool


class CosetIdentityBattery(NamedTuple):
    """The identity for S sets against K members, as (S, K) arrays."""

    spatial: np.ndarray
    spectral: np.ndarray
    passed: np.ndarray


def verify_coset_identities(
    sets, G, tol: float = 1e-6, tables=None, budget=DEFAULT_POINT_BUDGET
) -> CosetIdentityBattery:
    """The coset-energy identity for every (set, member) pair at once.

    The exact spatial side is the energy from battery_projection_stats.
    The spectral side gathers E_hat over every member's annihilator span
    and sums |E_hat|^2 along each member's row.  The stacked annihilator
    rows list their span in increasing code order, the order of
    span_codes(perp(W)), so each sum runs in the same order as
    coset_energy_spectral and gives the same float.  A pair passes iff
    |spatial - spectral| <= tol * max(1, spatial).

    Without tables the transforms come from stacked_dft, which checks
    p^n against budget before anything is allocated; given tables are
    used as they are.  tol must be finite and nonnegative.
    """
    if not (math.isfinite(tol) and tol >= 0):  # a nan or negative tol fails every pair, inf passes it
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    sets = tuple(sets)
    if not sets:
        raise ValueError("a battery needs at least one point set")
    if tables is None:
        blocks = stacked_dft(sets, budget)
    else:
        tables = tuple(tables)
        if len(tables) != len(sets):
            raise ValueError(f"{len(tables)} spectral tables for {len(sets)} sets")
        blocks = ((slice(s, s + 1), table.values[None]) for s, table in enumerate(tables))
    ambient = sets[0].ambient
    stack = member_stack(ambient, G)
    _, spatial = battery_projection_stats(sets, stack)
    spectral = np.zeros(spatial.shape)
    scale = ambient.p**stack.codim
    for sets_part, values in blocks:
        for part, freqs in stacked_span_codes(ambient, stack.annihilators):
            for s, row in enumerate(values, sets_part.start):
                spectral[s, part] = np.sum(np.abs(row[freqs]) ** 2, axis=1) / scale
    passed = np.abs(spatial - spectral) <= tol * np.maximum(1, spatial)
    return CosetIdentityBattery(spatial, spectral, passed)


def verify_coset_identity(
    E: PointSet,
    W: Subspace,
    tol: float = 1e-6,
    table: SpectralTable | None = None,
    budget=DEFAULT_POINT_BUDGET,
) -> CosetIdentityResult:
    """Exact squared-fiber energy vs its spectral evaluation, for one W.

    pass iff |spatial - spectral| <= tol * max(1, spatial); the integer
    spatial side is the reference.  budget bounds p^n when the transform
    is computed here.
    """
    tables = None if table is None else (table,)
    res = verify_coset_identities((E,), (W,), tol, tables, budget)
    return CosetIdentityResult(
        int(res.spatial[0, 0]), float(res.spectral[0, 0]), bool(res.passed[0, 0])
    )
