"""Matrix-factorization engine for the Landau-Ginzburg examples."""

from .poly import Poly, PolyError, format_poly, parse_poly
from .groebner import (
    GroebnerError,
    InfiniteQuotientError,
    JacobiAlgebra,
    groebner,
    jacobi,
    normal_form,
    staircase,
)
from .mf import (
    GroupAction,
    HomCohomology,
    MatrixFactorization,
    MFError,
    difference_quotient,
    identity_hom,
    identity_mf,
    koszul_factorization,
    mf_tensor,
    twisted_identity,
)
from .orbifold import (
    CircleSpaces,
    OrbifoldAlgebra,
    OrbifoldError,
    circle_spaces,
    lg_circle_spaces,
    lg_torus_invariants,
    orbifold_algebra,
)

__all__ = [
    "Poly", "PolyError", "parse_poly", "format_poly",
    "groebner", "normal_form", "staircase", "jacobi", "JacobiAlgebra",
    "GroebnerError", "InfiniteQuotientError",
    "MatrixFactorization", "MFError", "GroupAction",
    "difference_quotient",
    "identity_mf", "twisted_identity", "koszul_factorization",
    "mf_tensor", "HomCohomology", "identity_hom",
    "orbifold_algebra", "OrbifoldAlgebra", "OrbifoldError",
    "circle_spaces", "lg_circle_spaces", "lg_torus_invariants", "CircleSpaces",
]
