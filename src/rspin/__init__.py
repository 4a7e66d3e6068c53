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

# each Landau-Ginzburg name with the module of rspin.landau_ginzburg that
# defines it (the package itself re-exports nothing); reading a name imports
# only that module, on first use (PEP 562), so a command that never runs an
# LG computation loads none of the stack, and lg-jacobi loads no mf or orbifold
_LANDAU_GINZBURG = {
    "GroupAction": "mf",
    "MatrixFactorization": "mf",
    "Poly": "poly",
    "identity_hom": "mf",
    "identity_mf": "mf",
    "jacobi": "groebner",
    "lg_circle_spaces": "orbifold",
    "lg_torus_invariants": "orbifold",
    "mf_tensor": "mf",
    "orbifold_algebra": "orbifold",
    "parse_poly": "poly",
    "twisted_identity": "mf",
}


def __getattr__(name):
    if name in _LANDAU_GINZBURG:
        from importlib import import_module
        module = import_module(".landau_ginzburg." + _LANDAU_GINZBURG[name], __name__)
        return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_LANDAU_GINZBURG))


__version__ = "0.1.0"
