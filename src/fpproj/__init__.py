"""Exact laboratory for coset projections over prime fields F_p^n.

Subspaces, cosets, projections, energies, discrete Fourier transforms
and restricted subspace families, all with exact arithmetic where the
mathematics is exact and audited tolerances where floating point enters
(the transform only).
"""

import os
import sys

# fpproj makes no BLAS call: its matrix products are on int64, which numpy
# runs in its own loops, and its transform is pocketfft.  OpenBLAS sizes its
# worker pool once, when numpy loads it, and an idle worker spins on another
# core.  So numpy is loaded here with one BLAS thread, unless the caller chose
# a count or loaded numpy first; os.environ is left as it was found.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .budgets import BudgetError, DEFAULT_POINT_BUDGET, DEFAULT_SUBSPACE_BUDGET
from .field import (
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
from .subspaces import (
    CosetLabel,
    Subspace,
    SubspaceStack,
    contains,
    coset_label,
    coset_points,
    enumerate_cosets,
    enumerate_subspaces,
    parse_subspace,
    perp,
    serialize_subspace,
    span_of_point,
)
from .pointsets import (
    PointSet,
    affine_flat_set,
    circle_set,
    load_point_set,
    moment_curve_set,
    random_point_set,
    save_point_set,
)
from .projection import (
    Census,
    ExplicitBoundCheck,
    ProjectionImage,
    cauchy_schwarz_gap,
    energy,
    exceptional_bound_check,
    exceptional_count,
    family_coset_energy,
    incidence_decomposition,
    project,
)
from .fourier import (
    SpectralTable,
    coset_energy_spectral,
    dft,
    plancherel_defect,
    verify_coset_identity,
)
from .families import (
    ConcentrationReport,
    FamilyAudit,
    RandomFamilyConfig,
    audit_family,
    circle_family,
    family,
    family_from_directions,
    full_family,
    hyperplane_intersection_max,
    load_family,
    moment_family,
    sample_random_family,
    save_family,
    size_concentration_report,
    spread_containing,
    spread_perp,
    theoretical_spread_count,
)

__version__ = "0.1.0"
