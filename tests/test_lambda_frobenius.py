import itertools
import re
import tracemalloc

import pytest

from rspin import lambda_frobenius
from rspin.constructors import (
    builtin,
    delta_separable,
    graded_center,
    graded_center_data,
    nakayama_gamma,
)
from rspin.lambda_frobenius import (
    LambdaFrobenius,
    LambdaFrobeniusError,
    frobenius_report,
    validate,
)
from rspin.scalars import Cyc
from rspin.superlinalg import (
    SuperMap,
    SuperSpace,
    UNIT_SPACE,
    braiding,
    compose,
    graded_tuples,
    identity,
    tensor,
    tensor_space,
)
from rspin.surface_eval import RSpinClosedSurface, evaluate_surface

from reference import (
    UNTWISTED_FAMILIES,
    constant_algebra,
    per_tuple_entries,
    power,
    twisted_matrix_algebra,
)


def trivial_lambda(r=1):
    """C_a = k for all a, every structure map the 1x1 identity."""
    k = SuperSpace(1, 0)
    spaces = {a: k for a in range(r)}
    mu = {}
    delta = {}
    for a in range(r):
        for b in range(r):
            mu[(a, b)] = SuperMap(tensor_space(k, k), k, 0, [[1]], (k, k), None)
            delta[(a, b)] = SuperMap(k, tensor_space(k, k), 0, [[1]], None, (k, k))
    eta = SuperMap(UNIT_SPACE, k, 0, [[1]], (), None)
    eps = SuperMap(k, UNIT_SPACE, 0, [[1]], None, ())
    return LambdaFrobenius(r=r, spaces=spaces, mu=mu, delta=delta, eta=eta, eps=eps)


def test_trivial_algebra_validates():
    for r in (1, 2, 3):
        report = validate(trivial_lambda(r))
        assert report.ok, report.summary()


def without(maps, *keys):
    return {key: m for key, m in maps.items() if key not in keys}


def test_missing_data_rejected():
    alg = trivial_lambda(2)
    with pytest.raises(LambdaFrobeniusError, match=re.escape("missing mu_{0,0}")):
        LambdaFrobenius(r=2, spaces=alg.spaces, mu=without(alg.mu, (0, 0)), delta=alg.delta,
                        eta=alg.eta, eps=alg.eps)
    with pytest.raises(LambdaFrobeniusError, match=re.escape("missing Delta_{0,0}")):
        LambdaFrobenius(r=2, spaces=alg.spaces, mu=alg.mu, delta=without(alg.delta, (0, 0)),
                        eta=alg.eta, eps=alg.eps)
    with pytest.raises(LambdaFrobeniusError, match="missing circle space C_1"):
        LambdaFrobenius(r=2, spaces=without(alg.spaces, 1), mu=alg.mu, delta=alg.delta,
                        eta=alg.eta, eps=alg.eps)


def test_the_first_missing_map_is_named_in_index_order_mu_before_delta():
    # the index pairs in order, mu before Delta at each: (0,0) comes before (1,1)
    alg = trivial_lambda(2)
    cases = [(((1, 1),), ((0, 0),), "Delta_{0,0}"),
             (((0, 1),), ((0, 1),), "mu_{0,1}"),
             (((1, 0), (1, 1)), ((0, 1),), "Delta_{0,1}")]
    for mu_gone, delta_gone, name in cases:
        with pytest.raises(LambdaFrobeniusError, match=re.escape("missing " + name) + "$"):
            LambdaFrobenius(r=2, spaces=alg.spaces, mu=without(alg.mu, *mu_gone),
                            delta=without(alg.delta, *delta_gone), eta=alg.eta, eps=alg.eps)


def test_keys_outside_0_to_r_minus_1_rejected():
    alg = trivial_lambda(2)
    for mu, spaces in (({**alg.mu, (2, 0): alg.mu[(0, 0)]}, alg.spaces),
                       (alg.mu, {**alg.spaces, -1: alg.space(1)})):
        with pytest.raises(LambdaFrobeniusError, match="outside 0..1"):
            LambdaFrobenius(r=2, spaces=spaces, mu=mu, delta=alg.delta,
                            eta=alg.eta, eps=alg.eps)


@pytest.mark.parametrize("table, name", [("mu", "mu"), ("delta", "Delta")])
@pytest.mark.parametrize("key", [(0,), (0, 0, 0)])
def test_a_key_that_is_not_a_pair_is_named(table, name, key):
    alg = graded_center(builtin("clifford1"), 2)
    maps = {"mu": alg.mu, "delta": alg.delta}
    maps[table] = {**maps[table], key: maps[table][(0, 0)]}
    with pytest.raises(LambdaFrobeniusError,
                       match="^%s key %s is not a pair of indices$" % (name, re.escape(repr(key)))):
        LambdaFrobenius(r=2, spaces=alg.spaces, eta=alg.eta, eps=alg.eps, **maps)


def test_structure_maps_must_declare_their_factors():
    # the same matrices with the source of mu (or the target of Delta) declared as
    # one factor: whisker and tensor would read them over another basis order
    algebra = builtin("clifford1")
    pairs = [(a, b) for a in range(2) for b in range(2)]

    def flat(m):
        return SuperMap(m.source, m.target, 0, None, entries=[dict(e) for e in m.entries])

    mu, delta, space = algebra.mu_map(0, 0), algebra.delta_map(0, 0), algebra.space(0)
    for mult, comult, name in ((flat(mu), delta, "mu_{0,0}"), (mu, flat(delta), "Delta_{0,0}")):
        with pytest.raises(LambdaFrobeniusError, match=re.escape(name + " has wrong factors")):
            LambdaFrobenius(r=2, spaces={0: space, 1: space},
                            mu={p: mult for p in pairs}, delta={p: comult for p in pairs},
                            eta=algebra.eta, eps=algebra.eps)


def test_each_structure_map_is_named_when_its_factors_or_parity_are_wrong():
    # at r = 4 the clifford1 centre alternates C_a = (0|1), (1|0), so the map of
    # (a, b + 1) has the wrong factors at (a, b), the wrap-around pairs included
    alg = graded_center(builtin("clifford1"), 4)

    def rebuilt(**changed):
        fields = dict(spaces=alg.spaces, mu=alg.mu, delta=alg.delta, eta=alg.eta, eps=alg.eps)
        return LambdaFrobenius(r=4, **{**fields, **changed})

    def zero(sources, targets):
        source, target = tensor_space(*sources), tensor_space(*targets)
        return SuperMap(source, target, 0, None, sources, targets,
                        entries=[{} for _ in range(target.dim)])

    for name, family in (("mu", "mu"), ("Delta", "delta")):
        maps = getattr(alg, family)
        for a, b in maps:
            pair, shifted = (alg.space(a), alg.space(b)), (alg.space(a + b),)
            # the neighbour's map, and a map with only the single space shifted
            for wrong in (maps[(a, (b + 1) % 4)],
                          zero(pair, shifted) if name == "mu" else zero(shifted, pair)):
                with pytest.raises(LambdaFrobeniusError, match=re.escape(
                        "%s_{%d,%d} has wrong factors or parity" % (name, a, b))):
                    rebuilt(**{family: {**maps, (a, b): wrong}})
    # two wrong maps: the first in the order of the table is named
    for keys in (list(alg.mu), list(reversed(alg.mu))):
        mu = {key: alg.mu[key] for key in keys}
        mu[(3, 2)], mu[(0, 1)] = alg.mu[(3, 3)], alg.mu[(0, 2)]
        first = next(key for key in keys if key in ((3, 2), (0, 1)))
        with pytest.raises(LambdaFrobeniusError, match=re.escape("mu_{%d,%d} has" % first)):
            rebuilt(mu=mu)
    odd_eta = SuperMap(UNIT_SPACE, alg.space(1), 1, None, (), None, entries=[{}])
    with pytest.raises(LambdaFrobeniusError, match="^eta has wrong factors or parity$"):
        rebuilt(eta=odd_eta)
    eps = alg.eps
    unit_factor = SuperMap(eps.source, UNIT_SPACE, 0, None, None, (UNIT_SPACE,),
                           entries=eps.entries)
    with pytest.raises(LambdaFrobeniusError, match="^eps has wrong factors or parity$"):
        rebuilt(eps=unit_factor)


def test_nakayama_cache_is_not_part_of_the_value():
    """No derived table is part of the value: the Nakayama powers, the handle
    operators, and the states and caps of the end handles."""
    alg = graded_center(builtin("clifford1"), 2)
    copy = LambdaFrobenius.from_dict(alg.to_dict())
    assert alg == copy
    alg.nakayama(0)
    assert alg == copy and copy == alg
    evaluate_surface(alg, RSpinClosedSurface(2, 2, ((0, 1), (1, 1))))
    assert alg._handle_operators and alg._handle_states and alg._handle_caps
    assert alg == copy and copy == alg
    assert alg == LambdaFrobenius.from_dict(alg.to_dict())
    for cache in ("period", "_nakayama_powers", "_handle_operators", "_handle_states",
                  "_handle_caps"):
        with pytest.raises(TypeError):
            LambdaFrobenius(r=alg.r, spaces=alg.spaces, mu=alg.mu, delta=alg.delta,
                            eta=alg.eta, eps=alg.eps, **{cache: {}})


def test_a_frobenius_algebra_equals_the_lambda_frobenius_with_its_maps():
    # equality reads the six fields, whichever of the two classes holds them
    algebra = builtin("trivial")
    same = LambdaFrobenius(1, algebra.spaces, algebra.mu, algebra.delta, algebra.eta,
                           algebra.eps)
    assert algebra == same and same == algebra
    assert not (algebra != same or same != algebra)
    other = builtin("group_algebra_Zn", n=2)
    assert algebra != other and other != LambdaFrobenius(
        1, other.spaces, other.mu, other.delta, other.eta, other.eps.scale(2))
    assert algebra != "trivial"
    for alg in (algebra, same):
        with pytest.raises(TypeError):
            hash(alg)


def test_graded_center_of_kz2_validates():
    center = graded_center(builtin("group_algebra_Zn", n=2), 1)
    assert center.space(0).dim == 2
    report = validate(center)
    assert report.ok, report.summary()
    # nondegenerate pairing: the 1x(dim^2) pairing matrix has full rank
    p = center.pairing(0)
    # reshape to dim x dim
    dim = center.space(0).dim
    pos = {t: k for k, t in enumerate(graded_tuples([center.space(0), center.space(0)]))}
    mat = [{j: p.rows[0][pos[(i, j)]] for j in range(dim)} for i in range(dim)]
    from rspin.superlinalg import kernel_of_matrix

    assert kernel_of_matrix(mat, dim) == []


def test_corrupted_mu_fails():
    center = graded_center(builtin("group_algebra_Zn", n=2), 1)
    bad_mu = dict(center.mu)
    rows = [list(row) for row in bad_mu[(0, 0)].rows]
    # flip the sign of one nonzero entry
    done = False
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x and not done:
                rows[i][j] = -x
                done = True
    bad_mu[(0, 0)] = SuperMap(bad_mu[(0, 0)].source, bad_mu[(0, 0)].target, 0, rows,
                              bad_mu[(0, 0)].source_factors, bad_mu[(0, 0)].target_factors)
    bad = LambdaFrobenius(r=1, spaces=center.spaces, mu=bad_mu, delta=center.delta,
                          eta=center.eta, eps=center.eps)
    report = validate(bad)
    assert not report.ok
    families = {e.family for e in report.failures()}
    assert "frobenius" in families or "associativity" in families


def test_pairing_parity_even():
    center = graded_center(builtin("clifford1"), 2)
    for a in range(2):
        assert center.pairing(a).parity == 0
        assert center.copairing(a).parity == 0


def test_clifford_center_structure():
    data = graded_center_data(builtin("clifford1"), 2)
    center = data.algebra
    # brute-force frozen expectation: C_0 is the odd line, C_1 the even line
    assert center.space(0) == SuperSpace(0, 1)
    assert center.space(1) == SuperSpace(1, 0)
    report = validate(center)
    assert report.ok, report.summary()
    n0 = center.nakayama(0)
    # zig-zag on the 1-dimensional odd space evaluates to -1
    assert n0.rows[0][0] == Cyc.rational(-1)
    assert power(n0, 2) == identity(center.space(0))
    # N_a equals gamma restricted to C_a
    for a in range(2):
        assert center.nakayama(a) == data.gamma_restriction(a)


def test_nakayama_powers_and_deck():
    for name, r in (("trivial", 3), ("group_algebra_Zn", 1), ("clifford1", 4)):
        alg = graded_center(builtin(name, n=3), r)
        for a in range(r):
            n = alg.nakayama(a)
            assert power(n, a) == identity(alg.space(a))
            assert power(n, r) == identity(alg.space(a))


def test_nakayama_algebra_map_shadow():
    # mu_{a,b} o (N_a o N_b) = N_{a+b-1} o mu_{a,b}
    alg = graded_center(builtin("clifford1"), 2)
    for a in range(2):
        for b in range(2):
            lhs = compose(alg.mu_map(a, b), tensor(alg.nakayama(a), alg.nakayama(b)))
            rhs = compose(alg.nakayama(a + b - 1), alg.mu_map(a, b))
            assert lhs == rhs, (a, b)


def test_pairing_nondegenerate_for_graded_centers():
    from rspin.superlinalg import kernel_of_matrix

    for name, n, r in (("group_algebra_Zn", 3, 3), ("clifford1", 2, 4)):
        alg = graded_center(builtin(name, n=n), r)
        for a in range(r):
            p = alg.pairing(a)
            dim = alg.space(a).dim
            pos = {t: k for k, t in enumerate(
                graded_tuples([alg.space(a), alg.space(-a)]))}
            mat = [{j: p.rows[0][pos[(i, j)]] for j in range(alg.space(-a).dim)}
                   for i in range(dim)]
            assert kernel_of_matrix(mat, alg.space(-a).dim) == [], (name, r, a)


def test_validate_deterministic():
    alg = graded_center(builtin("group_algebra_Zn", n=2), 2)
    r1 = validate(alg)
    r2 = validate(alg)
    assert [(e.family, e.indices, e.passed) for e in r1.entries] == \
        [(e.family, e.indices, e.passed) for e in r2.entries]


def test_serialization_roundtrip():
    alg = graded_center(builtin("clifford1"), 2)
    data = alg.to_dict()
    again = LambdaFrobenius.from_dict(data)
    assert again.to_dict() == data
    assert validate(again).ok
    for a in range(2):
        assert again.space(a) == alg.space(a)
        for b in range(2):
            assert again.mu_map(a, b) == alg.mu_map(a, b)
            assert again.delta_map(a, b) == alg.delta_map(a, b)


@pytest.mark.parametrize("r", [1, 3])
def test_deck_and_twist_powers_are_literal(r):
    # A's zig-zag N_a = gamma^{-1} has order 2: N_a^r = N_a for odd r, so deck fails
    # at every a, and N_1^1 != id fails twist_power at a = 1, while a deck read as
    # N_a^(r mod r) = id would pass
    alg = constant_algebra(builtin("clifford1"), r)
    failed = {(e.family, e.indices) for e in validate(alg).failures()}
    assert {("deck", (a,)) for a in range(r)} <= failed
    twist = {indices for family, indices in failed if family == "twist_power"}
    assert twist == ({(1,)} if r == 3 else set())


# -- validate against a compose o tensor reference -----------------------------

# (name, params, step): the spin orders r <= 4 where gamma_A^r = 1 are the multiples of step
BUILTINS_UP_TO_4 = [(name, params, r) for name, params, step in (
    ("trivial", {}, 1), ("group_algebra_Zn", {"n": 2}, 1), ("group_algebra_Zn", {"n": 3}, 1),
    ("clifford1", {}, 2), ("matrix_algebra_n", {"n": 2}, 1)) for r in range(step, 5, step)]


@pytest.mark.parametrize("name, params, r", BUILTINS_UP_TO_4)
def test_validate_checks_every_index_tuple(name, params, r):
    report = validate(graded_center(builtin(name, **params), r))
    assert len(report.entries) == 4 * r ** 3 + 3 * r ** 2 + 6 * r
    assert len({(e.family, e.indices) for e in report.entries}) == len(report.entries)
    assert report.ok, report.summary()


def reference_validate(alg):
    """validate's (family, indices, passed) list, every composite with an
    identity factor built as compose o tensor, the Nakayama maps included."""
    r = alg.r
    ids = {a: identity(alg.space(a)) for a in range(r)}
    zigzags = {}
    for a in range(r):
        left, right = alg.space(a), alg.space(-a)
        crossed = compose(braiding(left, right), alg.copairing(a))
        zigzags[a] = compose(tensor(alg.pairing(a), ids[a]), tensor(ids[a], crossed))

    def nak(a, k):
        a, power = a % r, ids[a % r]
        for _ in range(k % r):
            power = compose(zigzags[a], power)
        return power

    mu, delta, out = alg.mu_map, alg.delta_map, []

    def check(family, indices, lhs, rhs):
        out.append((family, indices, lhs == rhs))

    for a, b, c in itertools.product(range(r), repeat=3):
        check("associativity", (a, b, c), compose(mu(a + b - 1, c), tensor(mu(a, b), ids[c])),
              compose(mu(a, b + c - 1), tensor(ids[a], mu(b, c))))
        check("coassociativity", (a, b, c),
              compose(tensor(delta(a, b), ids[c]), delta(a + b + 1, c)),
              compose(tensor(ids[a], delta(b, c)), delta(a, b + c + 1)))
    for a in range(r):
        check("unitality", (a, "left"), compose(mu(1, a), tensor(alg.eta, ids[a])), ids[a])
        check("unitality", (a, "right"), compose(mu(a, 1), tensor(ids[a], alg.eta)), ids[a])
        check("counitality", (a, "left"), compose(tensor(alg.eps, ids[a]), delta(-1, a)), ids[a])
        check("counitality", (a, "right"), compose(tensor(ids[a], alg.eps), delta(a, -1)), ids[a])
    for a, b, c in itertools.product(range(r), repeat=3):
        d = (a + b - c - 2) % r
        middle = compose(delta(c, d), mu(a, b))
        check("frobenius", (a, b, c, "left"),
              compose(tensor(ids[c], mu(a - c - 1, b)), tensor(delta(c, a - c - 1), ids[b])),
              middle)
        check("frobenius", (a, b, c, "right"),
              compose(tensor(mu(a, c - a + 1), ids[d]), tensor(ids[a], delta(c - a + 1, d))),
              middle)
    for a, b in itertools.product(range(r), repeat=2):
        braided = compose(mu(a, b), braiding(alg.space(b), alg.space(a)))
        check("commutativity", (a, b, "left"),
              compose(mu(b, a), tensor(nak(b, 1 - a), ids[a])), braided)
        check("commutativity", (a, b, "right"),
              compose(mu(b, a), tensor(ids[b], nak(a, b - 1))), braided)
    for a in range(r):
        check("twist_power", (a,), nak(a, a), ids[a])

    def twisted(a, b):
        return compose(mu(a, -a), compose(tensor(nak(a, b), ids[-a % r]), alg.copairing(a)))

    for a, b in itertools.product(range(r), repeat=2):
        check("twist_pairing", (a, b), twisted(a, b), twisted(a + b - 1, b))
    for a in range(r):
        check("deck", (a,), compose(zigzags[a], nak(a, r - 1)), ids[a])
    return out


def corrupted(alg, mu=None, delta=None):
    return LambdaFrobenius(r=alg.r, spaces=alg.spaces, mu={**alg.mu, **(mu or {})},
                           delta={**alg.delta, **(delta or {})}, eta=alg.eta, eps=alg.eps)


def bumped(m):
    """m with 1 added to its first stored entry."""
    entries = [dict(stored) for stored in m.entries]
    row = next(stored for stored in entries if stored)
    j = min(row)
    row[j] = row[j] + 1
    return SuperMap(m.source, m.target, m.parity, None, m.source_factors, m.target_factors,
                    entries=entries)


@pytest.mark.parametrize("name, params, r", [("group_algebra_Zn", {"n": 3}, 3),
                                             ("clifford1", {}, 2), ("clifford1", {}, 4)])
def test_validate_fails_where_the_tensor_reference_fails(name, params, r):
    alg = graded_center(builtin(name, **params), r)
    cases = [corrupted(alg, mu={(1, r - 1): bumped(alg.mu_map(1, -1))}),
             corrupted(alg, delta={(0, 1 % r): alg.delta_map(0, 1).scale(2)})]
    for bad in cases:
        got = [(e.family, e.indices, e.passed) for e in validate(bad).entries]
        assert got == reference_validate(bad)
        assert not all(passed for _, _, passed in got)


# every built-in at every spin order r <= 6 where gamma_A^r = 1
BUILTINS_UP_TO_6 = [(name, params, r) for name, params, step in (
    ("trivial", {}, 1), ("group_algebra_Zn", {"n": 2}, 1), ("group_algebra_Zn", {"n": 3}, 1),
    ("clifford1", {}, 2), ("matrix_algebra_n", {"n": 2}, 1)) for r in range(step, 7, step)]


def with_empty_space(alg, a):
    """alg with C_a = 0 and every structure map whose source or target changes
    replaced by the zero map of its new shape; no built-in centre has an empty C_a."""
    spaces = {**alg.spaces, a: SuperSpace(0, 0)}

    def zero(sources, targets):
        source, target = tensor_space(*sources), tensor_space(*targets)
        return SuperMap(source, target, 0, None, sources, targets,
                        entries=[{} for _ in range(target.dim)])

    def space(b):
        return spaces[b % alg.r]

    def keep_or_zero(m, sources, targets):
        return m if a % alg.r not in {b % alg.r for b in sources + targets} \
            else zero(tuple(map(space, sources)), tuple(map(space, targets)))

    pairs = list(alg.mu)
    return LambdaFrobenius(
        r=alg.r, spaces=spaces,
        mu={(b, c): keep_or_zero(alg.mu[b, c], (b, c), (b + c - 1,)) for b, c in pairs},
        delta={(b, c): keep_or_zero(alg.delta[b, c], (b + c + 1,), (b, c)) for b, c in pairs},
        eta=keep_or_zero(alg.eta, (), (1,)), eps=keep_or_zero(alg.eps, (-1,), ()))


@pytest.mark.parametrize("name, params, r", BUILTINS_UP_TO_6)
def test_validate_matches_the_tensor_reference_entry_for_entry(name, params, r):
    alg = graded_center(builtin(name, **params), r)
    cases = {"intact": alg,
             "bumped mu": corrupted(alg, mu={(1 % r, r - 1): bumped(alg.mu_map(1, -1))}),
             "scaled Delta": corrupted(alg, delta={(0, 1 % r): alg.delta_map(0, 1).scale(2)}),
             "empty C_0": with_empty_space(alg, 0)}
    if name == "clifford1":
        # C_0 is the odd line, so mu_{0,1}: C_0 o C_1 -> C_0 is an odd-to-odd block
        assert alg.space(0) == SuperSpace(0, 1)
        cases["bumped odd mu"] = corrupted(alg, mu={(0, 1): bumped(alg.mu_map(0, 1))})
    for label, case in cases.items():
        got = [(e.family, e.indices, e.passed) for e in validate(case).entries]
        assert got == reference_validate(case), label
        # at r = 1, C_0 is the whole algebra, and the empty algebra satisfies every relation
        intact = label == "intact" or (label == "empty C_0" and r == 1)
        assert all(passed for _, _, passed in got) == intact, label


# -- what validate shares within one call, and nothing beyond it ----------------

def with_distinct_maps(alg):
    """alg with every mu_{a,b} and Delta_{a,b} its own object, equal to the original."""
    def copy(m):
        return SuperMap(m.source, m.target, m.parity, None, m.source_factors, m.target_factors,
                        entries=[dict(stored) for stored in m.entries])

    return LambdaFrobenius(r=alg.r, spaces=alg.spaces,
                           mu={key: copy(m) for key, m in alg.mu.items()},
                           delta={key: copy(m) for key, m in alg.delta.items()},
                           eta=alg.eta, eps=alg.eps)


def report(alg):
    return [(e.family, e.indices, e.passed) for e in validate(alg).entries]


@pytest.mark.parametrize("name, params, r", [("clifford1", {}, 4), ("group_algebra_Zn", {"n": 3}, 3),
                                             ("matrix_algebra_n", {"n": 2}, 2)])
def test_distinct_but_equal_maps_give_the_shared_report(name, params, r):
    # the graded centre shares one mu and Delta per index class; the copy shares none
    alg = graded_center(builtin(name, **params), r)
    assert len({id(m) for m in alg.mu.values()}) < r * r
    cases = [(alg, with_distinct_maps(alg))]
    bad = corrupted(alg, mu={(1 % r, r - 1): bumped(alg.mu_map(1, -1))})
    cases.append((bad, with_distinct_maps(bad)))
    for shared, distinct in cases:
        assert len({id(m) for m in distinct.mu.values()}) == r * r
        assert report(distinct) == report(shared)
    assert not all(passed for _, _, passed in report(bad))


def test_nothing_is_shared_between_calls():
    # the corrupted algebra shares every map but one with its parent, so a
    # verdict kept from the parent's call would pass its failing checks
    alg = graded_center(builtin("clifford1"), 4)
    bad = corrupted(alg, mu={(1, 3): bumped(alg.mu_map(1, -1))},
                    delta={(0, 1): alg.delta_map(0, 1).scale(2)})
    expected = reference_validate(bad)
    assert not all(passed for _, _, passed in expected)
    for _ in range(2):
        assert validate(alg).ok
        assert report(bad) == expected


@pytest.mark.parametrize("r", [8, 48])
def test_validate_builds_no_map_per_index_tuple(monkeypatch, r):
    """Every family reads tables of structure constants, so validate builds only
    the powers of N_a per index class (N_a^m = 1 checks the period) and one
    braiding per pair of circle-space classes: 20 maps at r = 8 and at r = 48.
    Building the zig-zag N_a of every a < r to compare it with N_{a mod m} built
    62 and 342, the per-tuple contraction with its r^2 literal powers 108 at
    r = 8 and composing maps per index tuple 632."""
    alg = graded_center(builtin("clifford1"), r)
    built = []
    init = SuperMap.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SuperMap, "__init__", counted)
    assert validate(alg).ok
    assert len(built) <= 20


def test_equal_maps_read_one_table_however_they_are_held(monkeypatch):
    # the graded centre shares each restricted mu and Delta per index class; its
    # distinct-object copy and its file repeat them as equal maps, which validate
    # reads once per value all the same: 17 tables at r = 8
    alg = graded_center(builtin("clifford1"), 8)
    cases = [alg, with_distinct_maps(alg), LambdaFrobenius.from_dict(alg.to_dict())]
    expected = report(alg)
    read = []
    table = lambda_frobenius._table

    def counted(m):
        read.append(None)
        return table(m)

    monkeypatch.setattr(lambda_frobenius, "_table", counted)
    counts = []
    for case in cases:
        read.clear()
        assert report(case) == expected
        counts.append(len(read))
    assert counts == [counts[0]] * 3, counts


# -- a Nakayama automorphism of order r ----------------------------------------

# at r = 3 and 5 the centre fails counitality, commutativity, twist_power and deck:
# the graded centre's Nakayama direction shows only when gamma^-1 != gamma
TWISTED_ORDERS = [pytest.param(r, marks=pytest.mark.xfail(
    strict=True, reason="graded centre fails validate when gamma has order >= 3"))
    for r in (3, 5)] + [4]


@pytest.mark.parametrize("r", TWISTED_ORDERS)
def test_twisted_matrix_algebra_centre_validates(r):
    result = validate(graded_center(twisted_matrix_algebra(r), r))
    assert result.ok, result.summary()


@pytest.mark.parametrize("r", [3, 4, 5])
def test_validate_matches_the_tensor_reference_on_twisted_matrix_algebras(r):
    algebra = twisted_matrix_algebra(r)
    assert delta_separable(algebra)
    assert len(nakayama_gamma(algebra).powers(24)) == r
    alg = graded_center(algebra, r)
    for case in (alg, with_distinct_maps(alg)):
        assert report(case) == reference_validate(case)


# -- one decision per index class -------------------------------------------------

# every built-in at every spin order r <= 8 where gamma_A^r = 1, with the period
# of its graded centre: ord(gamma_A)
BUILTINS_UP_TO_8 = [(name, params, r, step) for name, params, step in (
    ("trivial", {}, 1), ("group_algebra_Zn", {"n": 2}, 1), ("group_algebra_Zn", {"n": 3}, 1),
    ("clifford1", {}, 2), ("matrix_algebra_n", {"n": 2}, 1)) for r in range(step, 9, step)]


def equals_the_per_tuple_loop(alg):
    """validate(alg), once its expanded entries, counts, verdict and failures are
    shown to be those of the per-tuple loop."""
    result, expected = validate(alg), per_tuple_entries(alg)
    assert [(e.family, e.indices, e.passed) for e in result.entries] == expected
    assert len(result.entries) == len(expected) == 4 * alg.r ** 3 + 3 * alg.r ** 2 + 6 * alg.r
    counts = {}
    for family, _, passed in expected:
        done, bad = counts.get(family, (0, 0))
        counts[family] = (done + 1, bad + (not passed))
    assert {family: tuple(count) for family, count in result.counts.items()} == counts
    assert result.ok == all(passed for _, _, passed in expected)
    assert [(e.family, e.indices) for e in result.failures()] == \
        [(family, indices) for family, indices, passed in expected if not passed]
    return result


@pytest.mark.parametrize("name, params, r, order", BUILTINS_UP_TO_8)
def test_frobenius_report_equals_the_per_tuple_loop(name, params, r, order):
    # the untwisted families, each side's first step read from the stored
    # nonzeros, against the identity walk over every basis tuple
    alg = graded_center(builtin(name, **params), r)
    for case in (alg, corrupted(alg, mu={(1 % r, r - 1): bumped(alg.mu_map(1, -1))})):
        expected = [e for e in per_tuple_entries(case) if e[0] in UNTWISTED_FAMILIES]
        result = frobenius_report(case)
        assert [(e.family, e.indices, e.passed) for e in result.entries] == expected
        assert result.ok == all(passed for _, _, passed in expected) == (case is alg)


@pytest.mark.parametrize("name, params", [
    ("trivial", {}), ("group_algebra_Zn", {"n": 2}), ("group_algebra_Zn", {"n": 3}),
    ("clifford1", {}), ("matrix_algebra_n", {"n": 2})])
def test_a_frobenius_algebra_reports_as_the_per_tuple_loop(name, params):
    # each built-in as the Lambda_1-Frobenius algebra that assemble checks;
    # validate may fail on it (clifford1 is not commutative), the same way in both
    alg = builtin(name, **params)
    expected = per_tuple_entries(alg)
    assert [(e.family, e.indices, e.passed) for e in validate(alg).entries] == expected
    assert [(e.family, e.indices, e.passed) for e in frobenius_report(alg).entries] == \
        [e for e in expected if e[0] in UNTWISTED_FAMILIES]
    assert frobenius_report(alg).ok


@pytest.mark.parametrize("name, params, r, order", BUILTINS_UP_TO_8)
def test_expanded_entries_equal_the_per_tuple_loop(name, params, r, order):
    alg = graded_center(builtin(name, **params), r)
    result = equals_the_per_tuple_loop(alg)
    assert result.ok and result.period == order
    # one mu, one Delta or one circle space changed at a single index: no proper
    # divisor of r is a period any more, and every index tuple is its own class
    cases = {"bumped mu": corrupted(alg, mu={(1 % r, r - 1): bumped(alg.mu_map(1, -1))}),
             "scaled Delta": corrupted(alg, delta={(0, 1 % r): alg.delta_map(0, 1).scale(2)}),
             "empty C_0": with_empty_space(alg, 0)}
    for label, case in cases.items():
        result = equals_the_per_tuple_loop(case)
        assert result.period == r, label
        assert result.ok == (label == "empty C_0" and r == 1), label


@pytest.mark.parametrize("r", [3, 4, 5])
def test_expanded_entries_equal_the_per_tuple_loop_on_twisted_matrix_algebras(r):
    # gamma has order r; at r = 3 and 5 no index class holds two index tuples,
    # while at r = 4 every C_a is one line, on which every mu, Delta and N_a agree
    result = equals_the_per_tuple_loop(graded_center(twisted_matrix_algebra(r), r))
    assert (result.period, result.ok) == ((1, True) if r == 4 else (r, False))


@pytest.mark.parametrize("order, r, period", [
    (2, 1, 1), (2, 2, 2), (2, 3, 3), (2, 4, 2), (2, 6, 2), (4, 8, 4), (4, 6, 6)])
def test_the_period_holds_the_literal_powers_of_n(order, r, period):
    # mu, Delta and the circle spaces repeat with period 1, but N_a = gamma^{-1}
    # has the order of gamma: 2 for clifford1 and 4 for the twisted M_2, whose
    # data at r = 8 also repeats mod 2 with N_a^2 != 1.  The period is the least
    # divisor of r that the order divides, r where there is none
    algebra = builtin("clifford1") if order == 2 else twisted_matrix_algebra(order)
    result = equals_the_per_tuple_loop(constant_algebra(algebra, r))
    assert result.period == period


def test_validate_at_r_48_decides_each_index_class_once(monkeypatch):
    """clifford1's centre repeats mod 2, so 56 checks decide the 449,568 of r = 48,
    and the report is counted, not formed."""
    alg = graded_center(builtin("clifford1"), 48)
    decided = []
    check = lambda_frobenius._Relations.check

    def counted(self, *args):
        decided.append(args[0])
        return check(self, *args)

    def formed(self):
        raise AssertionError("the entries were formed")

    monkeypatch.setattr(lambda_frobenius._Relations, "check", counted)
    monkeypatch.setattr(lambda_frobenius._Entries, "__iter__", formed)
    result = validate(alg)
    assert len(decided) <= 64
    assert result.period == 2 and result.ok and result.failures() == []
    assert len(result.entries) == 4 * 48 ** 3 + 3 * 48 ** 2 + 6 * 48 == 449568
    assert result.summary().splitlines()[0] == "associativity    110592 checks, 0 failures"


def test_validate_at_r_48_peaks_under_30_mb():
    tracemalloc.start()
    try:
        result = validate(graded_center(builtin("clifford1"), 48))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < 30e6, peak
