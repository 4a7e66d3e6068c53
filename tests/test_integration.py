"""End-to-end pipeline: LG orbifold -> graded centre -> surface invariants.

At r = 2 the flattened orbifold algebra of x^2 is Delta-separable (a
Clifford-type algebra with tau^2 = -1), so the full chain runs: build the
algebra from matrix factorizations, take its graded centre, validate every
relation family, and evaluate tori and a genus-2 surface.
"""

import importlib
import itertools
from pathlib import Path

import pytest

from rspin.constructors import graded_center_data
from rspin.lambda_frobenius import validate
from rspin.landau_ginzburg.mf import GroupAction
from rspin.landau_ginzburg.orbifold import lg_torus_invariants, orbifold_algebra
from rspin.landau_ginzburg.poly import parse_poly
from rspin.superlinalg import SuperSpace
from rspin.surface_eval import (
    RSpinClosedSurface,
    RSpinTorus,
    SurfaceError,
    all_torus_invariants,
    evaluate_surface,
    evaluate_torus,
)


@pytest.fixture(scope="module")
def lg_r2_center():
    orb = orbifold_algebra(parse_poly("x^2"), GroupAction(2, (("x", 1),)))
    assert orb.delta_separable
    return graded_center_data(orb.algebra, 2)


def test_lg_center_validates(lg_r2_center):
    assert validate(lg_r2_center.algebra).ok


def test_lg_center_circle_spaces(lg_r2_center):
    alg = lg_r2_center.algebra
    assert {a: alg.space(a) for a in range(2)} == \
        {0: SuperSpace(0, 1), 1: SuperSpace(1, 0)}


def test_lg_center_torus_vs_projector_route(lg_r2_center):
    # the two routes agree up to the recorded global sign: compare |values|
    table = all_torus_invariants(lg_r2_center.algebra)
    projector = lg_torus_invariants(parse_poly("x^2"), GroupAction(2, (("x", 1),)))
    assert set(table) == set(projector)
    for d in table:
        value = table[d]
        assert value.is_rational()
        assert abs(value.as_fraction()) == abs(projector[d])


def test_lg_center_genus_two(lg_r2_center):
    alg = lg_r2_center.algebra
    values = set()
    for hol in itertools.product(range(2), repeat=4):
        surf = RSpinClosedSurface(2, 2, ((hol[0], hol[1]), (hol[2], hol[3])))
        values.add(tuple(evaluate_surface(alg, surf).coeffs))
    assert len(values) == 2
    for a in range(2):
        for b in range(2):
            assert evaluate_surface(alg, RSpinClosedSurface(2, 1, ((a, b),))) == \
                evaluate_torus(alg, RSpinTorus(2, a, b))


def test_surface_r_mismatch(lg_r2_center):
    with pytest.raises(SurfaceError):
        evaluate_surface(lg_r2_center.algebra, RSpinClosedSurface(1, 1, ((0, 0),)))


def test_perfbench_trace_spec_resolves(monkeypatch):
    # the traced benchmark reads rspin names in spec(); a renamed or deleted
    # class there would crash the traced run, and a required group that loses
    # every function it names would never fire
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    entries = tracing.spec()
    resolved = {group for owner, attr, group, _, _ in entries if attr in vars(owner)}
    # run.py times the "cli" group around each CLI job itself
    assert set(tracing.REQUIRED) - {"cli"} <= resolved
