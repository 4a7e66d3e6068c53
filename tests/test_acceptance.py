"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion with its elapsed time.  All equality checks are exact; the only
recorded convention is the global sign flag, and with it every comparison
below holds with sign +1.
"""

import itertools
import time

import pytest

from rspin.constructors import builtin, graded_center_data
from rspin.lambda_frobenius import LambdaFrobenius, validate
from rspin.landau_ginzburg.mf import GroupAction, identity_hom
from rspin.landau_ginzburg.orbifold import lg_circle_spaces, lg_torus_invariants
from rspin.landau_ginzburg.poly import parse_poly
from rspin.superlinalg import SuperMap, SuperSpace, identity, quantum_dimension
from rspin.surface_eval import (
    RSpinClosedSurface,
    RSpinTorus,
    divisors,
    evaluate_surface,
    evaluate_torus,
    torus_normal_form,
)

from reference import power

AXIOM_CASES = [
    ("trivial", {}, (1, 3)),
    ("group_algebra_Zn", {"n": 2}, (1, 2)),
    ("group_algebra_Zn", {"n": 3}, (1, 3)),
    ("clifford1", {}, (2, 4)),
]


def _announce(number, label, started, extra=""):
    elapsed = time.time() - started
    suffix = " [%s]" % extra if extra else ""
    print("ACCEPTANCE %d (%s): PASS in %.2fs%s" % (number, label, elapsed, suffix))


@pytest.fixture(scope="module")
def torus_family():
    """Graded centres for every builtin at every admissible r <= 8, validated."""
    family = []
    for r in range(1, 9):
        for name, params, parity_constraint in (
                ("trivial", {}, 1), ("group_algebra_Zn", {"n": 2}, 1),
                ("group_algebra_Zn", {"n": 3}, 1), ("clifford1", {}, 2),
                ("matrix_algebra_n", {"n": 2}, 1)):
            if r % parity_constraint != 0:
                continue
            data = graded_center_data(builtin(name, **params), r)
            family.append((name, r, data))
    for name, r, data in family:
        report = validate(data.algebra)
        assert report.ok, "validation failed for %s at r=%d" % (name, r)
    return family


def test_acceptance_1_axiom_suite():
    started = time.time()
    for name, params, rs in AXIOM_CASES:
        for r in rs:
            data = graded_center_data(builtin(name, **params), r)
            report = validate(data.algebra)
            assert report.ok, "%s at r=%d:\n%s" % (name, r, report.summary())
    # negative control: one flipped sign in a multiplication map must fail
    center = graded_center_data(builtin("group_algebra_Zn", n=2), 1).algebra
    rows = [list(row) for row in center.mu[(0, 0)].rows]
    flipped = False
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x and not flipped:
                rows[i][j] = -x
                flipped = True
    bad_mu = dict(center.mu)
    bad_mu[(0, 0)] = SuperMap(center.mu[(0, 0)].source, center.mu[(0, 0)].target, 0,
                              rows, center.mu[(0, 0)].source_factors,
                              center.mu[(0, 0)].target_factors)
    corrupted = LambdaFrobenius(r=1, spaces=center.spaces, mu=bad_mu,
                                delta=center.delta, eta=center.eta, eps=center.eps)
    bad_report = validate(corrupted)
    assert not bad_report.ok
    _announce(1, "axiom suite + negative control", started)


def test_acceptance_2_torus_normal_form(torus_family):
    started = time.time()
    checked = 0
    for name, r, data in torus_family:
        alg = data.algebra
        for a in range(r):
            for b in range(r):
                d = torus_normal_form(RSpinTorus(r, a, b))
                lhs = evaluate_torus(alg, RSpinTorus(r, a, b))
                rhs = evaluate_torus(alg, RSpinTorus(r, d, 0))
                assert lhs == rhs, (name, r, a, b)
                checked += 1
    _announce(2, "torus normal form", started, "%d tori" % checked)


def test_acceptance_3_torus_equals_quantum_dimension(torus_family):
    started = time.time()
    for name, r, data in torus_family:
        alg = data.algebra
        for d in divisors(r):
            z = evaluate_torus(alg, RSpinTorus(r, d, 0))
            # global sign convention flag is +1: the equality is exact
            assert z == quantum_dimension(alg.space(d)), (name, r, d)
    _announce(3, "Z(T(d)) = qdim(C_d), sign +1", started)


def test_acceptance_4_lg_example_reproduction():
    started = time.time()
    for r in (3, 4, 5):
        w = parse_poly("x^%d" % r)
        action = GroupAction(r, (("x", 1),))
        cs = lg_circle_spaces(w, action)
        assert cs.spaces[0] == SuperSpace(r - 1, 0), r
        for a in range(1, r):
            want = SuperSpace(1, 0) if (1 - a) % 2 == 0 else SuperSpace(0, 1)
            assert cs.spaces[a] == want, (r, a)
        table = lg_torus_invariants(w, action)
        assert abs(table[r]) == r - 1
        for d in table:
            if d != r:
                assert abs(table[d]) == 1
        classes = {abs(v) for v in table.values()}
        assert len(classes) == 2, (r, table)
    _announce(4, "LG x^r circle spaces and torus classes, r=3,4,5", started)


def test_acceptance_5_lg_hom_dimensions():
    started = time.time()
    for r in (3, 4, 5):
        w = parse_poly("x^%d" % r)
        assert identity_hom(w).dims == (r - 1, 0), r
        assert identity_hom(w, shift=True).dims == (0, r - 1), r
        action = GroupAction(r, (("x", 1),))
        for g in range(1, r):
            assert identity_hom(w, action, g).dims == (0, 1), (r, g)
    _announce(5, "End(1_W) and twisted Hom dimensions, r=3,4,5", started)


def test_acceptance_6_nakayama_coherence(torus_family):
    started = time.time()
    for name, r, data in torus_family:
        alg = data.algebra
        for a in range(r):
            n = alg.nakayama(a)
            ident = identity(alg.space(a))
            assert power(n, a) == ident, (name, r, a)
            assert power(n, r) == ident, (name, r, a)
            assert n == data.gamma_restriction(a), (name, r, a)
    _announce(6, "N_a^a = N_a^r = id and N_a = gamma|_{C_a}", started)


def test_acceptance_7_genus_two_brute_force():
    started = time.time()
    data = graded_center_data(builtin("clifford1"), 2)
    alg = data.algebra
    values = {}
    for hol in itertools.product(range(2), repeat=4):
        surf = RSpinClosedSurface(2, 2, ((hol[0], hol[1]), (hol[2], hol[3])))
        z = evaluate_surface(alg, surf)
        values.setdefault(tuple(z.coeffs), []).append(hol)
    assert len(values) == 2, "expected exactly two distinct genus-2 values"
    sizes = sorted(len(v) for v in values.values())
    for a in range(2):
        for b in range(2):
            surf = RSpinClosedSurface(2, 1, ((a, b),))
            assert evaluate_surface(alg, surf) == \
                evaluate_torus(alg, RSpinTorus(2, a, b)), (a, b)
    _announce(7, "genus-2 Clifford brute force", started,
              "partition %s" % sizes)
