"""Exact laboratory for coset projections over prime fields F_p^n.

Subspaces, cosets, projections, energies, discrete Fourier transforms
and restricted subspace families, all with exact arithmetic where the
mathematics is exact and audited tolerances where floating point enters
(the transform only).
"""

from .budgets import BudgetError, DEFAULT_POINT_BUDGET, DEFAULT_SUBSPACE_BUDGET
from .field import (
    AmbientSpace,
    FpMatrix,
    FpVector,
    decode,
    dot,
    encode,
    gaussian_binomial,
    is_prime,
    nullspace,
    rref,
)
from .subspaces import (
    CosetLabel,
    Subspace,
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
    Family,
    FamilyAudit,
    RandomFamilyConfig,
    audit_family,
    circle_family,
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
