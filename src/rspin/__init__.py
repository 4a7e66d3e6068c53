"""Exact r-spin surface invariants from closed Lambda_r-Frobenius algebras.

All arithmetic is exact, over Q or a cyclotomic field Q(zeta_r); there is
no floating point anywhere in the package.
"""

from .scalars import Cyc, cyclotomic_polynomial, format_scalar, parse_scalar
from .superlinalg import (
    SuperMap,
    SuperSpace,
    braiding,
    compose,
    identity,
    quantum_dimension,
    split_idempotent,
    tensor,
    tensor_space,
)
from .lambda_frobenius import LambdaFrobenius, ValidationReport, validate
from .constructors import (
    AlgebraAutomorphism,
    FrobeniusAlgebraData,
    builtin,
    graded_center,
    graded_center_data,
    nakayama_gamma,
)
from .surface_eval import (
    RSpinClosedSurface,
    RSpinTorus,
    all_torus_invariants,
    evaluate_surface,
    evaluate_torus,
    torus_normal_form,
)
from .landau_ginzburg import (
    GroupAction,
    MatrixFactorization,
    Poly,
    identity_hom,
    identity_mf,
    jacobi,
    lg_circle_spaces,
    lg_torus_invariants,
    mf_tensor,
    orbifold_algebra,
    parse_poly,
    twisted_identity,
)

__version__ = "0.1.0"
