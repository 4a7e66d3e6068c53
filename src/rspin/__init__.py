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

# the Landau-Ginzburg stack loads on first use (PEP 562), so a command that
# never runs an LG computation never imports or compiles it
_LANDAU_GINZBURG = frozenset((
    "GroupAction",
    "MatrixFactorization",
    "Poly",
    "identity_hom",
    "identity_mf",
    "jacobi",
    "lg_circle_spaces",
    "lg_torus_invariants",
    "mf_tensor",
    "orbifold_algebra",
    "parse_poly",
    "twisted_identity",
))


def __getattr__(name):
    if name in _LANDAU_GINZBURG:
        from . import landau_ginzburg
        return getattr(landau_ginzburg, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | _LANDAU_GINZBURG)


__version__ = "0.1.0"
