import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

from rspin import surface_eval
from rspin.constructors import builtin, graded_center
from rspin.lambda_frobenius import Cap, LambdaFrobenius, validate
from rspin.scalars import Cyc
from rspin.superlinalg import (
    SuperLinAlgError,
    SuperMap,
    SuperSpace,
    compose,
    graded_tuples,
    identity,
    quantum_dimension,
    supertrace,
    tensor,
)
from rspin.surface_eval import (
    RSpinClosedSurface,
    RSpinTorus,
    SurfaceError,
    all_torus_invariants,
    divisors,
    evaluate_surface,
    evaluate_torus,
    torus_normal_form,
)

from reference import (
    constant_algebra,
    power,
    rescaled,
    scalar,
    structures,
    surface_by_compose,
    twisted_matrix_algebra,
)


def torus_oracle(alg, a, b):
    """Independent zig-zag evaluation via direct structure-constant loops."""
    r = alg.r
    ma = (-a) % r
    p = alg.pairing(ma)
    c = alg.copairing(ma)
    n = power(alg.nakayama(ma), (1 - b) % r)
    left, right = alg.space(ma), alg.space(a)
    pos = {t: k for k, t in enumerate(graded_tuples([left, right]))}
    total = Cyc.zero()
    for i in range(left.dim):
        for j in range(right.dim):
            for i2 in range(left.dim):
                total = total + p.rows[0][pos[(i2, j)]] * n.rows[i2][i] * c.rows[pos[(i, j)]][0]
    return total


def test_normal_form():
    assert torus_normal_form(RSpinTorus(8, 4, 6)) == 2
    assert torus_normal_form(RSpinTorus(5, 0, 0)) == 5
    assert torus_normal_form(RSpinTorus(6, 2, 3)) == 1


def test_trivial_algebra_torus():
    alg = graded_center(builtin("trivial"), 4)
    for a in range(4):
        for b in range(4):
            assert evaluate_torus(alg, RSpinTorus(4, a, b)) == 1


def test_kz2_torus_value():
    alg = graded_center(builtin("group_algebra_Zn", n=2), 1)
    assert evaluate_torus(alg, RSpinTorus(1, 0, 0)) == 2


def test_trivial_divisor_table_r6():
    alg = graded_center(builtin("trivial"), 6)
    assert all_torus_invariants(alg) == {1: 1, 2: 1, 3: 1, 6: 1}


def test_clifford_torus_values_distinct():
    alg = graded_center(builtin("clifford1"), 2)
    table = all_torus_invariants(alg)
    assert set(table) == {1, 2}
    assert table[1] != table[2]
    for d in (1, 2):
        assert table[d] == torus_oracle(alg, d, 0)


def test_torus_r_mismatch():
    alg = graded_center(builtin("trivial"), 2)
    with pytest.raises(SurfaceError):
        evaluate_torus(alg, RSpinTorus(3, 0, 0))


@pytest.mark.parametrize("make", [
    lambda: RSpinTorus(0, 1, 1), lambda: RSpinTorus(-3, 1, 1),
    lambda: RSpinClosedSurface(0, 0, ()), lambda: RSpinClosedSurface(-2, 1, ((1, 1),)),
])
def test_a_spin_order_below_one_is_refused(make):
    with pytest.raises(SurfaceError, match="r must be a positive integer"):
        make()


ALGEBRAS = None


def algebras_for(r):
    algs = [("trivial", graded_center(builtin("trivial"), r)),
            ("kz2", graded_center(builtin("group_algebra_Zn", n=2), r)),
            ("kz3", graded_center(builtin("group_algebra_Zn", n=3), r)),
            ("m2", graded_center(builtin("matrix_algebra_n", n=2), r))]
    if r % 2 == 0:
        algs.append(("clifford", graded_center(builtin("clifford1"), r)))
    return algs


def assert_one_value_per_torus_class(name, alg):
    """Diffeomorphic r-spin tori, T(a, b) with one gcd(a, b, r), get one value,
    that of T(gcd, 0); each value also meets the zig-zag oracle."""
    r = alg.r
    for a in range(r):
        for b in range(r):
            d = torus_normal_form(RSpinTorus(r, a, b))
            lhs = evaluate_torus(alg, RSpinTorus(r, a, b))
            rhs = evaluate_torus(alg, RSpinTorus(r, d, 0))
            assert lhs == rhs, (name, r, a, b)
            assert lhs == torus_oracle(alg, a, b), (name, r, a, b)


@pytest.mark.parametrize("r", range(1, 9))
def test_normal_form_invariance_small_r(r):
    for name, alg in algebras_for(r):
        assert_one_value_per_torus_class(name, alg)


# the Nakayama-direction defect: the graded centre twists its projector P_a
# by gamma^(1-a) where gamma^(a-1) is due, which shows only when gamma^-1 !=
# gamma; at r = 3 the eight tori with gcd(a, b, 3) = 1 take three values
@pytest.mark.parametrize("r", [pytest.param(r, marks=pytest.mark.xfail(
    strict=True, reason="Nakayama-direction defect: the graded centre twists P_a by "
    "gamma^(1-a), so diffeomorphic tori take different values")) for r in (3, 5)] + [4])
def test_normal_form_invariance_on_the_twisted_matrix_algebra(r):
    assert_one_value_per_torus_class("twisted m2", graded_center(twisted_matrix_algebra(r), r))


# every built-in, with small parameters; clifford1 has a graded centre only at
# even r, since its gamma_A has order 2
BUILTIN_CENTRE_INPUTS = [("trivial", {}), ("group_algebra_Zn", {"n": 2}),
                         ("group_algebra_Zn", {"n": 3}), ("group_algebra_Zn", {"n": 4}),
                         ("clifford1", {}), ("matrix_algebra_n", {"n": 2}),
                         ("matrix_algebra_n", {"n": 3})]


def assert_torus_is_the_trace_of_a_nakayama_power(alg):
    """Z(T(a, b)) = str_{C_a}(N_a^b) at every a, b < r: T(a, b) is the mapping
    torus of the circle S^1_a under b twists, so its value is a supertrace."""
    r = alg.r
    mismatched = [(a, b) for a in range(r) for b in range(r)
                  if evaluate_torus(alg, RSpinTorus(r, a, b))
                  != supertrace(alg.nakayama_power(a, b))]
    assert not mismatched, (r, mismatched)


@pytest.mark.parametrize("r", range(1, 9))
def test_torus_is_the_supertrace_of_a_nakayama_power_on_the_builtin_centres(r):
    checked = 0
    for name, params in BUILTIN_CENTRE_INPUTS:
        if name == "clifford1" and r % 2:
            continue
        alg = graded_center(builtin(name, **params), r)
        assert validate(alg).ok, (name, params, r)
        assert_torus_is_the_trace_of_a_nakayama_power(alg)
        checked += 1
    assert checked == len(BUILTIN_CENTRE_INPUTS) - r % 2


@pytest.mark.parametrize("r", [pytest.param(r, marks=pytest.mark.xfail(
    strict=True, reason="Nakayama-direction defect: the graded centre twists P_a by "
    "gamma^(1-a), so the torus is not the trace of N_a^b")) for r in (3, 5)] + [4])
def test_torus_is_the_supertrace_of_a_nakayama_power_on_the_twisted_matrix_algebra(r):
    assert_torus_is_the_trace_of_a_nakayama_power(
        graded_center(twisted_matrix_algebra(r), r))


def test_torus_matches_oracle_on_a_corrupted_centre():
    """evaluate_torus and the zig-zag oracle are one composite, associated
    differently, so they agree on an algebra that fails validation too."""
    alg = graded_center(builtin("clifford1"), 4)
    m = alg.mu[(0, 0)]
    rows = m.rows
    i, j = next((i, j) for i, stored in enumerate(m.entries) for j in stored)
    rows[i][j] = rows[i][j] + 1
    mu = dict(alg.mu)
    mu[(0, 0)] = SuperMap(m.source, m.target, 0, rows, m.source_factors, m.target_factors)
    bad = LambdaFrobenius(r=4, spaces=alg.spaces, mu=mu, delta=alg.delta,
                          eta=alg.eta, eps=alg.eps)
    assert not validate(bad).ok
    moved = []
    for a in range(4):
        for b in range(4):
            value = evaluate_torus(bad, RSpinTorus(4, a, b))
            assert value == torus_oracle(bad, a, b), (a, b)
            if value != evaluate_torus(alg, RSpinTorus(4, a, b)):
                moved.append((a, b))
    # mu_{0,0} enters exactly the tori with a = 0
    assert moved == [(0, b) for b in range(4)]


def test_b_periodicity():
    alg = graded_center(builtin("clifford1"), 4)
    for a in range(4):
        for b in range(4):
            assert evaluate_torus(alg, RSpinTorus(4, a, b)) == \
                evaluate_torus(alg, RSpinTorus(4, a, b + 4))


def test_prop_torus_equals_quantum_dimension():
    for r in (1, 2, 3, 4):
        for name, alg in algebras_for(r):
            for d in divisors(r):
                z = evaluate_torus(alg, RSpinTorus(r, d, 0))
                assert z == quantum_dimension(alg.space(d)), (name, r, d)


def test_genus_one_matches_torus():
    for r, name in ((2, "clifford"), (3, "kz3")):
        alg = dict(algebras_for(r))[name]
        for a in range(r):
            for b in range(r):
                surf = RSpinClosedSurface(r, 1, ((a, b),))
                assert evaluate_surface(alg, surf) == \
                    evaluate_torus(alg, RSpinTorus(r, a, b)), (r, a, b)


def test_sphere_and_admissibility():
    alg = graded_center(builtin("trivial"), 1)
    assert evaluate_surface(alg, RSpinClosedSurface(1, 2, ((0, 0), (0, 0)))) == 1
    alg3 = graded_center(builtin("trivial"), 3)
    with pytest.raises(SurfaceError):
        evaluate_surface(alg3, RSpinClosedSurface(3, 2, ((0, 0), (0, 0))))
    # the sphere: admissible only for r | 2
    assert RSpinClosedSurface(1, 0, ()).admissible()
    assert RSpinClosedSurface(2, 0, ()).admissible()
    assert not RSpinClosedSurface(3, 0, ()).admissible()


def surface_oracle(alg, handles):
    """Independent genus-g evaluation via direct structure-constant loops.

    Applies Delta, the Nakayama power on the first leg, and mu as plain
    matrix-vector products in explicit coordinates, without the graded
    tensor machinery of the library composite.
    """
    r = alg.r
    state = [alg.eta.rows[i][0] for i in range(alg.space(1).dim)]
    c = 1
    for a, b in handles:
        other = (c - a - 1) % r
        dmap = alg.delta_map(a, other)
        left, right = alg.space(a), alg.space(other)
        pos = {t: k for k, t in enumerate(graded_tuples([left, right]))}
        pair_state = [Cyc.zero()] * (left.dim * right.dim)
        for k in range(dmap.target.dim):
            total = Cyc.zero()
            for j in range(dmap.source.dim):
                total = total + dmap.rows[k][j] * state[j]
            pair_state[k] = total
        n = power(alg.nakayama(a), (1 - b) % r)
        twisted = [Cyc.zero()] * len(pair_state)
        for i in range(left.dim):
            for j in range(right.dim):
                acc = Cyc.zero()
                for i2 in range(left.dim):
                    acc = acc + n.rows[i][i2] * pair_state[pos[(i2, j)]]
                twisted[pos[(i, j)]] = acc
        mmap = alg.mu_map(a, other)
        state = [sum((mmap.rows[k][col] * twisted[col]
                      for col in range(mmap.source.dim)), Cyc.zero())
                 for k in range(mmap.target.dim)]
        c = (c - 2) % r
    total = Cyc.zero()
    for j, value in enumerate(state):
        total = total + alg.eps.rows[0][j] * value
    return total


def test_surface_matches_independent_oracle():
    alg = graded_center(builtin("clifford1"), 2)
    for hol in itertools.product(range(2), repeat=4):
        handles = ((hol[0], hol[1]), (hol[2], hol[3]))
        surf = RSpinClosedSurface(2, 2, handles)
        assert evaluate_surface(alg, surf) == surface_oracle(alg, handles), hol
    alg1 = graded_center(builtin("group_algebra_Zn", n=3), 1)
    for g in (1, 2, 3):
        handles = tuple((0, 0) for _ in range(g))
        surf = RSpinClosedSurface(1, g, handles)
        assert evaluate_surface(alg1, surf) == surface_oracle(alg1, handles), g


@pytest.mark.parametrize("name, params", [("clifford1", {}), ("group_algebra_Zn", {"n": 3})])
def test_cached_handle_operators_match_fresh_copy_and_oracle(name, params):
    """Every 7th genus-3 4-spin structure, evaluated in a shuffled order on one
    shared algebra, whose handle operators are built once and then reused: each
    value equals that of a fresh copy, swept in order, and the oracle's."""
    alg = graded_center(builtin(name, **params), 4)
    fresh = LambdaFrobenius.from_dict(alg.to_dict())
    sample = structures(4, 3)[::7]
    expected = {h: evaluate_surface(fresh, RSpinClosedSurface(4, 3, h)) for h in sample}
    random.Random(7).shuffle(sample)
    for handles in sample:
        z = evaluate_surface(alg, RSpinClosedSurface(4, 3, handles))
        assert z == expected[handles] == surface_oracle(alg, handles), handles
    assert len(alg._handle_operators) <= 4 ** 3


def test_handle_operators_at_r_48_are_built_once_per_index_class():
    """clifford1's centre repeats mod 2, so the r^2 tori and 200 drawn surfaces
    of genus 25 (r | 2g - 2) at r = 48 build at most 2^3 handle operators, not
    the thousands keyed mod r, and every value is the oracle's."""
    r = 48
    alg = graded_center(builtin("clifford1"), r)
    assert alg.period == 2
    for a, b in itertools.product(range(r), repeat=2):
        z = evaluate_torus(alg, RSpinTorus(r, a, b))
        assert z == surface_oracle(alg, ((-a, b),)), (a, b)
    rng = random.Random(48)
    drawn = [tuple((rng.randrange(r), rng.randrange(r)) for _ in range(25))
             for _ in range(200)]
    values = [evaluate_surface(alg, RSpinClosedSurface(r, 25, h)) for h in drawn]
    assert len(alg._handle_operators) <= 8
    for handles, z in zip(drawn, values):
        assert z == surface_oracle(alg, handles), handles


def test_period_r_data_keeps_its_handle_operators_mod_r():
    """The twisted M_2 centre at r = 3 has period 3, as gamma has order 3: no
    index class holds two indices, so every (c, a, b) mod 3 keeps its own
    handle operator."""
    r = 3
    alg = graded_center(twisted_matrix_algebra(r), r)
    assert alg.period == r
    surfaces = [((a, b),) for a, b in itertools.product(range(r), repeat=2)]
    rng = random.Random(3)
    surfaces += [tuple((rng.randrange(r), rng.randrange(r)) for _ in range(4))
                 for _ in range(40)]
    for handles in surfaces:
        evaluate_surface(alg, RSpinClosedSurface(r, len(handles), handles))
    # handle k starts on C_{1-2k}; the state and the cap are built from operators too
    operators = {((1 - 2 * k) % r, a, b) for handles in surfaces
                 for k, (a, b) in enumerate(handles)}
    assert set(alg._handle_operators) == operators
    assert {c for c, _, _ in operators} == {0, 1, 2}


def test_tori_on_data_whose_nakayama_power_sets_the_period():
    """Every C_a, mu and Delta of the constant twisted M_2 at r = 8 are A's own,
    so the data repeats mod 1, but N_a = gamma^{-1} has order 4: the period is 4,
    and a handle operator read at N_a^((1-b) mod 1) = id would miss the twist."""
    r = 8
    alg = constant_algebra(twisted_matrix_algebra(4), r)
    assert alg.period == 4
    for a, b in itertools.product(range(r), repeat=2):
        z = evaluate_torus(alg, RSpinTorus(r, a, b))
        assert z == surface_oracle(alg, ((-a, b),)), (a, b)


def test_isomorphic_copy_has_the_same_surface_values():
    """Rescaling each C_a by a + 1 is an isomorphism, so no surface value moves;
    but K_{c,a,b} picks up scale(c-2)/scale(c), so the handle operators at
    c = 1 and c = 3 differ although clifford1's C_1 and C_3 and its K's agree."""
    alg = graded_center(builtin("clifford1"), 4)
    copy = rescaled(alg, lambda a: Fraction(a % 4 + 1))
    assert validate(copy).ok
    assert alg.handle_operator(1, 2, 1) == alg.handle_operator(3, 2, 1)
    sample = structures(4, 3)[::7]
    random.Random(3).shuffle(sample)
    for handles in sample:
        surface = RSpinClosedSurface(4, 3, handles)
        assert evaluate_surface(copy, surface) == evaluate_surface(alg, surface), handles
    assert copy.handle_operator(1, 2, 1) == alg.handle_operator(1, 2, 1).scale(2)
    assert copy.handle_operator(3, 2, 1) == alg.handle_operator(3, 2, 1).scale(Fraction(1, 2))


def test_clifford_genus_two_two_values():
    alg = graded_center(builtin("clifford1"), 2)
    values = {}
    for hol in itertools.product(range(2), repeat=4):
        surf = RSpinClosedSurface(2, 2, ((hol[0], hol[1]), (hol[2], hol[3])))
        z = evaluate_surface(alg, surf)
        values.setdefault(str(sorted(z.coeffs)), []).append((hol, z))
    assert len(values) == 2
    sizes = sorted(len(v) for v in values.values())
    # partition sizes are computed, not assumed; record them for the report
    assert sum(sizes) == 16


def test_handles_commute():
    alg = graded_center(builtin("clifford1"), 2)
    handles = ((0, 1), (1, 0), (1, 1))
    base = evaluate_surface(alg, RSpinClosedSurface(2, 3, handles))
    for perm in itertools.permutations(handles):
        assert evaluate_surface(alg, RSpinClosedSurface(2, 3, perm)) == base


def shifted_surface_oracle(alg, s):
    """Z(s) through the other splitting of every handle, built here with
    compose and tensor: mu_{c-a-1,a} o (id o N_a^{1-b}) o Delta_{c-a-1,a}."""
    r = alg.r
    current, c = alg.eta, 1
    for a, b in s.handles:
        other = (c - a - 1) % r
        insertion = tensor(identity(alg.space(other)), power(alg.nakayama(a), (1 - b) % r))
        handle = compose(alg.mu_map(other, a), compose(insertion, alg.delta_map(other, a)))
        current = compose(handle, current)
        c = (c - 2) % r
    return scalar(compose(alg.eps, current))


def test_split_shift_independence():
    for name, r in (("clifford1", 2), ("clifford1", 4), ("group_algebra_Zn", 2)):
        alg = graded_center(builtin(name), r)
        genus = 1 + r // 2
        for hol in itertools.product(range(r), repeat=2 * genus):
            surf = RSpinClosedSurface(r, genus, tuple(zip(hol[::2], hol[1::2])))
            assert evaluate_surface(alg, surf) == shifted_surface_oracle(alg, surf)


@pytest.mark.parametrize("name, n, r", [
    ("clifford1", 2, 4), ("group_algebra_Zn", 3, 4), ("matrix_algebra_n", 2, 4),
    ("group_algebra_Zn", 3, 2), ("matrix_algebra_n", 2, 2), ("trivial", 1, 4),
    ("trivial", 1, 2),
])
def test_surface_equals_compose_reference(name, n, r):
    """The threaded vector gives exactly the scalar of the composed map on every
    admissible structure of genus <= 3 (every 7th one for group_algebra_Z3 at
    r = 4), and evaluate_torus that of its genus-1 surface."""
    alg = graded_center(builtin(name, n=n), r)
    for genus in range(4):
        if (2 * genus - 2) % r:
            continue
        stride = 7 if (name, r, genus) == ("group_algebra_Zn", 4, 3) else 1
        for handles in structures(r, genus)[::stride]:
            surface = RSpinClosedSurface(r, genus, handles)
            assert evaluate_surface(alg, surface) == surface_by_compose(alg, surface), handles
    for a, b in itertools.product(range(r), repeat=2):
        surface = RSpinClosedSurface(r, 1, ((-a, b),))
        assert evaluate_torus(alg, RSpinTorus(r, a, b)) == surface_by_compose(alg, surface)


def test_warm_surface_sweep_builds_no_map(monkeypatch):
    """Once its handle operators are built, sweeping all 4096 genus-3 4-spin
    structures of clifford1 builds no SuperMap and composes nothing; composing
    eps o K o K o K o eta builds four maps per call."""
    alg = graded_center(builtin("clifford1"), 4)
    surfaces = [RSpinClosedSurface(4, 3, handles) for handles in structures(4, 3)]
    warm = [evaluate_surface(alg, surface) for surface in surfaces]
    built, composed = [], []
    init = SuperMap.__init__

    def counted_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    def counted_compose(g, f):
        composed.append(None)
        return compose(g, f)

    monkeypatch.setattr(SuperMap, "__init__", counted_init)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("rspin")
                and getattr(module, "compose", None) is compose):
            monkeypatch.setattr(module, "compose", counted_compose)
    assert [evaluate_surface(alg, surface) for surface in surfaces] == warm
    assert (len(built), len(composed)) == (0, 0)


def test_handle_operator_on_the_wrong_space_is_rejected():
    """Each handle operator must start on the space the vector lives in: one of
    the same dimension but another parity split is rejected as well."""
    alg = graded_center(builtin("clifford1"), 4)
    surface = RSpinClosedSurface(4, 1, ((0, 0),))
    wrong = alg.handle_operator(0, 0, 0)
    assert (alg.space(1), wrong.source) == (SuperSpace(1, 0), SuperSpace(0, 1))
    alg._handle_operators[(1, 0, 0)] = wrong
    with pytest.raises(SuperLinAlgError, match="composition shape mismatch"):
        evaluate_surface(alg, surface)
    alg._handle_operators[(1, 0, 0)] = identity(SuperSpace(2, 0))
    with pytest.raises(SuperLinAlgError, match="composition shape mismatch"):
        evaluate_surface(alg, surface)


def test_a_wrong_space_cap_at_genus_two_is_rejected():
    """The cap must start on the space the state lives in: at genus 2 the state
    of clifford1 at r = 2 lies in (1|0), and a cap on (0|1) or (2|0) is refused."""
    alg = graded_center(builtin("clifford1"), 2)
    surface = RSpinClosedSurface(2, 2, ((0, 0), (0, 0)))
    value = evaluate_surface(alg, surface)
    assert alg.handle_state(0, 0)[0] == SuperSpace(1, 0)
    kept = alg._handle_caps[(1, 0, 0)]
    for wrong in (Cap(SuperSpace(0, 1), [{0: Cyc.one()}]), Cap(SuperSpace(2, 0), [{1: Cyc.one()}])):
        alg._handle_caps[(1, 0, 0)] = wrong
        with pytest.raises(SuperLinAlgError, match="composition shape mismatch"):
            evaluate_surface(alg, surface)
    alg._handle_caps[(1, 0, 0)] = kept
    assert evaluate_surface(alg, surface) == value


def test_a_wrong_space_middle_operator_or_cap_at_genus_three_is_rejected():
    """At genus 3 the state is carried through the middle operator K_{-1,a,b},
    kept at c = 1 mod clifford1's period 2, then paired with the cap: a table
    entry on (0|1) or (2|0) in place of either is refused, the state being
    kept already."""
    alg = graded_center(builtin("clifford1"), 4)
    surface = RSpinClosedSurface(4, 3, ((0, 0), (0, 0), (0, 0)))
    value = evaluate_surface(alg, surface)
    assert alg.period == 2 and (0, 0) in alg._handle_states
    operator, cap = alg._handle_operators[(1, 0, 0)], alg._handle_caps[(1, 0, 0)]
    assert alg.handle_operator(0, 0, 0).source == SuperSpace(0, 1)
    for wrong in (alg.handle_operator(0, 0, 0), identity(SuperSpace(2, 0))):
        alg._handle_operators[(1, 0, 0)] = wrong
        with pytest.raises(SuperLinAlgError, match="composition shape mismatch"):
            evaluate_surface(alg, surface)
    alg._handle_operators[(1, 0, 0)] = operator
    for wrong in (Cap(SuperSpace(0, 1), [{0: Cyc.one()}]), Cap(SuperSpace(2, 0), [{1: Cyc.one()}])):
        alg._handle_caps[(1, 0, 0)] = wrong
        with pytest.raises(SuperLinAlgError, match="composition shape mismatch"):
            evaluate_surface(alg, surface)
    alg._handle_caps[(1, 0, 0)] = cap
    assert evaluate_surface(alg, surface) == value


def test_evaluate_torus_reaches_evaluate_surface_through_the_module(monkeypatch):
    """evaluate_torus looks evaluate_surface up on the module at each call, so a
    wrapper set there, a tracer's for one, sees every torus as its genus-1 surface."""
    alg = graded_center(builtin("clifford1"), 4)
    seen, evaluate = [], surface_eval.evaluate_surface

    def counted(alg, s):
        seen.append(s)
        return evaluate(alg, s)

    monkeypatch.setattr(surface_eval, "evaluate_surface", counted)
    pairs = list(itertools.product(range(4), repeat=2))
    values = [evaluate_torus(alg, RSpinTorus(4, a, b)) for a, b in pairs]
    assert seen == [RSpinClosedSurface(4, 1, ((-a, b),)) for a, b in pairs]
    assert values == [evaluate(alg, s) for s in seen]


class _Index:
    """An integer-like value: it has __index__ and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_surfaces_read_every_integer_through_index():
    assert RSpinTorus(_Index(4), _Index(5), -1) == RSpinTorus(4, 1, 3)
    surface = RSpinClosedSurface(_Index(4), _Index(3), [(5, _Index(-1)), [0, 0], (True, 2)])
    assert surface == RSpinClosedSurface(4, 3, ((1, 3), (0, 0), (1, 2)))
    assert all(type(x) is int for handle in surface.handles for x in handle)


@pytest.mark.parametrize("make, message", [
    (lambda: RSpinTorus(4, 0.5, 0), "a must be an integer, got 0.5"),
    (lambda: RSpinTorus(4, 0, "1"), "b must be an integer, got '1'"),
    (lambda: RSpinTorus(4.0, 0, 0), "r must be an integer, got 4.0"),
    (lambda: RSpinClosedSurface(4, 1, ((0, 1, 2),)), "handle (0, 1, 2) is not a pair"),
    (lambda: RSpinClosedSurface(4, 1, ((0,),)), "handle (0,) is not a pair"),
    (lambda: RSpinClosedSurface(4, 1, (3,)), "handle 3 is not a pair"),
    (lambda: RSpinClosedSurface(4.0, 3, ((0, 1), (0, 0), (1, 1))),
     "r must be an integer, got 4.0"),
    (lambda: RSpinClosedSurface(4, 1.0, ((0, 1),)), "genus must be an integer, got 1.0"),
    (lambda: RSpinClosedSurface(4, 2, ((0, 1), (0.5, 1))),
     "holonomy 0.5 of handle (0.5, 1) is not an integer"),
    (lambda: RSpinClosedSurface(4, 1, None), "handles must be a sequence of holonomy pairs"),
])
def test_a_surface_that_cannot_be_evaluated_is_refused_by_name(make, message):
    """Each refusal is a SurfaceError naming the value, raised by the constructor:
    before, a float holonomy of a torus reached the tables as a KeyError, a
    triple failed to unpack and a float r was kept."""
    with pytest.raises(SurfaceError, match=re.escape(message)):
        make()
