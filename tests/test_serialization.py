import json

import pytest

from rspin.constructors import FrobeniusAlgebraData, FrobeniusError, builtin, graded_center
from rspin.lambda_frobenius import LambdaFrobenius, validate

from reference import gamma_automorphism_failures, twisted_matrix_algebra


def test_lambda_roundtrip_identity():
    for name, r in (("group_algebra_Zn", 3), ("clifford1", 2)):
        alg = graded_center(builtin(name, n=3), r)
        blob = json.dumps(alg.to_dict(), sort_keys=True)
        again = LambdaFrobenius.from_dict(json.loads(blob))
        blob2 = json.dumps(again.to_dict(), sort_keys=True)
        assert blob == blob2


def test_lambda_roundtrip_preserves_cyclotomic_scalars():
    from rspin.landau_ginzburg.mf import GroupAction
    from rspin.landau_ginzburg.orbifold import orbifold_algebra
    from rspin.landau_ginzburg.poly import parse_poly

    orb = orbifold_algebra(parse_poly("x^2"), GroupAction(2, (("x", 1),)))
    center = graded_center(orb.algebra, 2)
    data = center.to_dict()
    again = LambdaFrobenius.from_dict(data)
    assert again.to_dict() == data
    assert validate(again).ok


def test_frobenius_config_roundtrip():
    for name in ("trivial", "group_algebra_Zn", "clifford1", "matrix_algebra_n"):
        a = builtin(name, n=2)
        cfg = a.to_config()
        blob = json.dumps(cfg, sort_keys=True)
        again = FrobeniusAlgebraData.from_config(json.loads(blob))
        assert json.dumps(again.to_config(), sort_keys=True) == blob


def test_gamma_of_a_loaded_algebra_is_an_automorphism():
    """A frobenius_algebra file goes through assemble, so its gamma is an
    automorphism with no check of its own; twisted_matrix_algebra(4) has
    cyclotomic scalars and gamma of order 4."""
    for algebra in (builtin("clifford1"), builtin("matrix_algebra_n", n=2),
                    twisted_matrix_algebra(4)):
        again = FrobeniusAlgebraData.from_config(json.loads(json.dumps(algebra.to_config())))
        assert again == algebra
        assert gamma_automorphism_failures(again) == []


def test_loader_verifies_invariants():
    cfg = builtin("group_algebra_Zn", n=2).to_config()
    cfg["mult"][0][0] = "2"  # breaks unitality
    with pytest.raises(FrobeniusError):
        FrobeniusAlgebraData.from_config(cfg)
