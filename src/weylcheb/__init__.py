"""Exact Chebyshev-like polynomials attached to rank-2 simple Lie algebras.

The second-kind polynomials are Weyl character quotients rewritten over
the generalized-cosine variables; the first-kind ones are plain orbit
sums.  Everything is computed with exact integer/rational arithmetic, by
two independent routes (generating functions and recurrences) that the
test suite plays against each other.
"""

from .genfunc import (
    ConvolutionNotTerminatingError,
    RationalGF,
    closed_form_gf,
    coefficient_trace,
    diagonal_exp_matrix,
    first_kind_poly,
    first_kind_table,
    gf_series_check,
    second_kind_poly,
    second_kind_table,
)
from .laurent import LaurentPoly, NonDivisibleError
from .numeric import (
    AllPointsSingularError,
    AnglePoint,
    DEFAULT_SEED,
    VerificationReport,
    dimension_check,
    verify_ratio,
    weyl_dimension,
)
from .orbit import Kind, orbit_sum, signed_orbit_sum, unit_weight, variable_laurents
from .polynomialize import (
    NonDominantLeaderError,
    NotInvariantError,
    VariableBasis,
    XYPoly,
    build_basis,
    reduce,
)
from .recurrence import (
    NormalizedIndex,
    apply_poly_to_matrix,
    build_companions,
    minimal_poly_check,
    normalize_index,
    poly_via_recurrence,
    recurrence_table,
)
from .rootsystem import (
    AlgebraId,
    RootSystem,
    WeylElement,
    act,
    build_root_system,
    is_dominant,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraId",
    "AllPointsSingularError",
    "AnglePoint",
    "ConvolutionNotTerminatingError",
    "DEFAULT_SEED",
    "Kind",
    "LaurentPoly",
    "NonDivisibleError",
    "NonDominantLeaderError",
    "NormalizedIndex",
    "NotInvariantError",
    "RationalGF",
    "RootSystem",
    "VariableBasis",
    "VerificationReport",
    "WeylElement",
    "XYPoly",
    "act",
    "apply_poly_to_matrix",
    "build_basis",
    "build_companions",
    "build_root_system",
    "closed_form_gf",
    "coefficient_trace",
    "diagonal_exp_matrix",
    "dimension_check",
    "first_kind_poly",
    "first_kind_table",
    "gf_series_check",
    "is_dominant",
    "minimal_poly_check",
    "normalize_index",
    "orbit_sum",
    "poly_via_recurrence",
    "recurrence_table",
    "reduce",
    "second_kind_poly",
    "second_kind_table",
    "signed_orbit_sum",
    "unit_weight",
    "variable_laurents",
    "verify_ratio",
    "weyl_dimension",
]
