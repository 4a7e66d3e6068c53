import dataclasses

import pytest

from rspin import constructors
from rspin.constructors import (
    AlgebraAutomorphism,
    DegeneratePairingError,
    FrobeniusAlgebraData,
    FrobeniusError,
    GammaOrderError,
    builtin,
    center_basis,
    copairing_from,
    delta_separable,
    graded_center,
    graded_center_data,
    nakayama_gamma,
    structure_maps,
)
from rspin.lambda_frobenius import LambdaFrobenius, validate
from rspin.landau_ginzburg.mf import GroupAction
from rspin.landau_ginzburg.orbifold import orbifold_algebra
from rspin.landau_ginzburg.poly import parse_poly
from rspin.scalars import Cyc
from rspin.superlinalg import (
    SuperLinAlgError,
    SuperMap,
    SuperSpace,
    UNIT_SPACE,
    compose,
    identity,
    tensor,
    tensor_space,
)
from rspin.surface_eval import RSpinClosedSurface, evaluate_surface

from reference import gamma_automorphism_failures, power, twisted_matrix_algebra


def test_builtin_trivial():
    a = builtin("trivial")
    assert a.space(0) == SuperSpace(1, 0)
    assert delta_separable(a)
    assert a.mu_map(0, 0).rows == [[Cyc.one()]]


def test_builtin_group_algebra():
    a = builtin("group_algebra_Zn", n=3)
    assert a.space(0).dim == 3
    assert delta_separable(a)
    gamma = nakayama_gamma(a)
    assert gamma.map == identity(a.space(0))


def test_builtin_clifford():
    a = builtin("clifford1")
    assert a.space(0) == SuperSpace(1, 1)
    assert delta_separable(a)
    gamma = nakayama_gamma(a)
    assert gamma.map.rows[0][0] == 1
    assert gamma.map.rows[1][1] == Cyc.rational(-1)
    assert power(gamma.map, 2) == identity(a.space(0))
    assert gamma.map != identity(a.space(0))


def test_builtin_matrix_algebra():
    a = builtin("matrix_algebra_n", n=2)
    assert a.space(0) == SuperSpace(4, 0)
    assert delta_separable(a)
    # trace form is symmetric, so the algebra is symmetric: gamma = id
    assert nakayama_gamma(a).map == identity(a.space(0))


def test_a_frobenius_algebra_is_a_lambda_1_frobenius_algebra():
    # one algebra type: FrobeniusAlgebraData adds no field to LambdaFrobenius,
    # and every route to an input algebra gives one at r = 1
    assert dataclasses.fields(FrobeniusAlgebraData) == dataclasses.fields(LambdaFrobenius)
    assert "__annotations__" not in vars(FrobeniusAlgebraData)
    algebras = [builtin(name, n=2) for name in constructors.BUILTIN_NAMES]
    algebras.append(FrobeniusAlgebraData.from_config(builtin("clifford1").to_config()))
    algebras.append(orbifold_algebra(parse_poly("x^3"), GroupAction(3, (("x", 1),))).algebra)
    for algebra in algebras:
        assert isinstance(algebra, LambdaFrobenius) and algebra.r == 1


@pytest.mark.parametrize("name, n", [("trivial", 1), ("group_algebra_Zn", 2),
                                     ("group_algebra_Zn", 3)])
def test_a_commutative_symmetric_algebra_is_its_own_oriented_theory(name, n):
    """A commutative symmetric Frobenius algebra is a closed Lambda_1-Frobenius
    algebra as it stands: it validates, and each closed surface takes the same
    value on it as on its graded centre at r = 1.  With mu o Delta = id that
    value is eps(1) = n at every genus."""
    algebra = builtin(name, n=n)
    assert validate(algebra).ok
    centre = graded_center(algebra, 1)
    for genus in range(4):
        surface = RSpinClosedSurface(1, genus, ((0, 0),) * genus)
        assert evaluate_surface(algebra, surface) == evaluate_surface(centre, surface) == n


@pytest.mark.parametrize("name, families", [("clifford1", {"commutativity", "deck"}),
                                            ("matrix_algebra_n", {"commutativity"})])
def test_validate_refuses_a_noncommutative_or_nonsymmetric_input_algebra(name, families):
    # an input algebra passes frobenius_entries, not validate: clifford1 fails
    # commutativity, and deck since N_0 = gamma^{-1} has order 2; M_2 is not
    # commutative, but symmetric
    report = validate(builtin(name, n=2))
    assert {e.family for e in report.failures()} == families


# the dense matrices of mu, eta and eps of each built-in; mu's columns run
# over the pairs (i, j) in graded order, evens (lex) then odds (lex)
BUILTIN_MAPS = {
    ("trivial", None): ([[1]], [[1]], [[1]]),
    ("group_algebra_Zn", 1): ([[1]], [[1]], [[1]]),
    ("group_algebra_Zn", 2): ([[1, 0, 0, 1],
                               [0, 1, 1, 0]], [[1], [0]], [[2, 0]]),
    ("group_algebra_Zn", 3): ([[1, 0, 0, 0, 0, 1, 0, 1, 0],
                               [0, 1, 0, 1, 0, 0, 0, 0, 1],
                               [0, 0, 1, 0, 1, 0, 1, 0, 0]], [[1], [0], [0]], [[3, 0, 0]]),
    # pairs (0,0), (1,1), (0,1), (1,0): theta^2 = 1 and 1 theta = theta 1 = theta
    ("clifford1", None): ([[1, 1, 0, 0],
                           [0, 0, 1, 1]], [[1], [0]], [[2, 0]]),
    ("matrix_algebra_n", 1): ([[1]], [[1]], [[1]]),
    # basis E00, E01, E10, E11; E_ij E_kl = delta_jk E_il
    ("matrix_algebra_n", 2): ([[1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                               [0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                               [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0],
                               [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1]],
                              [[1], [0], [0], [1]], [[2, 0, 0, 2]]),
}


@pytest.mark.parametrize("name, n", list(BUILTIN_MAPS))
def test_builtin_maps_are_pinned(name, n):
    a = builtin(name) if n is None else builtin(name, n=n)
    mult, unit, counit = BUILTIN_MAPS[(name, n)]
    assert (a.mu_map(0, 0).rows, a.eta.rows, a.eps.rows) == (mult, unit, counit)
    assert delta_separable(a)


@pytest.mark.parametrize("name, n", list(BUILTIN_MAPS))
def test_builtin_mu_entries_are_the_shared_one(name, n):
    # every structure constant of the built-ins is 1, so each entry of mu is
    # the object compose and whisker skip multiplying by
    a = builtin(name) if n is None else builtin(name, n=n)
    entries = [c for row in a.mu_map(0, 0).entries for c in row.values()]
    assert entries and all(c is Cyc.one() for c in entries)


def test_structure_maps_drop_zero_coefficients():
    space = SuperSpace(1, 1)
    mult, unit, counit = structure_maps(
        space, {(0, 0): {0: 1, 1: 0}, (0, 1): {1: 0}, (1, 1): {0: Cyc.zero()}},
        {0: 1, 1: 0}, {0: 0, 1: 0})
    assert mult.entries == [{0: Cyc.one()}, {}]
    assert unit.entries == [{0: Cyc.one()}, {}]
    assert counit.entries == [{}]
    assert (mult.source_factors, mult.target_factors) == ((space, space), (space,))
    assert (unit.source, counit.target) == (UNIT_SPACE, UNIT_SPACE)


@pytest.mark.parametrize("products, unit, counit", [
    ({(0, 0): {1: 1}}, {}, {}),    # even . even = odd
    ({(0, 1): {0: 1}}, {}, {}),    # even . odd = even
    ({}, {1: 1}, {}),              # an odd unit
    ({}, {}, {1: 1}),              # a counit on the odd part
])
def test_structure_maps_refuse_entries_outside_the_even_blocks(products, unit, counit):
    with pytest.raises(SuperLinAlgError, match="parity block"):
        structure_maps(SuperSpace(1, 1), products, unit, counit)


def test_degenerate_pairing_rejected():
    # k[x]/(x^2) with counit reading the coefficient of 1 has radical in the kernel
    space = SuperSpace(2, 0)
    sq = tensor_space(space, space)
    rows = [[0, 0, 0, 0], [0, 0, 0, 0]]
    rows[0][0] = 1
    rows[1][1] = 1
    rows[1][2] = 1
    mult = SuperMap(sq, space, 0, rows, (space, space), None)
    unit = SuperMap(UNIT_SPACE, space, 0, [[1], [0]], (), None)
    counit = SuperMap(space, UNIT_SPACE, 0, [[1, 0]], None, ())
    with pytest.raises(DegeneratePairingError):
        FrobeniusAlgebraData.assemble(space, mult, unit, counit)


@pytest.mark.parametrize("space, row", [
    (SuperSpace(2, 0), [1, 1, 1, 1]),  # Gram [[1, 1], [1, 1]]
    (SuperSpace(1, 1), [1, 0, 0, 0]),  # Gram diag(1, 0): the odd line pairs to 0
], ids=["even-rank-1", "odd-null"])
def test_copairing_from_refuses_a_singular_gram_matrix(space, row):
    # solve_exact finds no C with G C = 1, the one check copairing_from makes
    sq = tensor_space(space, space)
    pairing = SuperMap(sq, UNIT_SPACE, 0, [row], (space, space), ())
    with pytest.raises(DegeneratePairingError):
        copairing_from(pairing, space)


def test_non_separable_rejected():
    # same algebra with the socle counit is Frobenius but not Delta-separable
    space = SuperSpace(2, 0)
    sq = tensor_space(space, space)
    rows = [[0, 0, 0, 0], [0, 0, 0, 0]]
    rows[0][0] = 1
    rows[1][1] = 1
    rows[1][2] = 1
    mult = SuperMap(sq, space, 0, rows, (space, space), None)
    unit = SuperMap(UNIT_SPACE, space, 0, [[1], [0]], (), None)
    socle = SuperMap(space, UNIT_SPACE, 0, [[0, 1]], None, ())
    a = FrobeniusAlgebraData.assemble(space, mult, unit, socle)
    assert not delta_separable(a)
    with pytest.raises(FrobeniusError):
        graded_center(a, 1)


def test_gamma_order_check():
    with pytest.raises(GammaOrderError):
        graded_center(builtin("clifford1"), 3)  # gamma has order 2, not dividing 3


def test_projector_idempotent_all_builtins():
    from rspin.constructors import averaging_projector, projector_front

    cases = [(builtin("trivial"), 3), (builtin("group_algebra_Zn", n=2), 2),
             (builtin("group_algebra_Zn", n=3), 3), (builtin("clifford1"), 4),
             (builtin("matrix_algebra_n", n=2), 2)]
    for algebra, r in cases:
        gamma, front = nakayama_gamma(algebra), projector_front(algebra)
        for a in range(r):
            p = averaging_projector(algebra, front, power(gamma.map, (1 - a) % r))
            assert compose(p, p) == p


def test_center_matches_brute_force_for_symmetric_algebras():
    # for gamma = id the circle spaces all equal the centre of A
    for algebra in (builtin("group_algebra_Zn", n=2), builtin("group_algebra_Zn", n=3),
                    builtin("matrix_algebra_n", n=2)):
        expected_dim = len(center_basis(algebra))
        data = graded_center_data(algebra, 2)
        for a in range(2):
            assert data.algebra.space(a).dim == expected_dim
        assert validate(data.algebra).ok


def test_kz2_center_dim():
    algebra = builtin("group_algebra_Zn", n=2)
    assert len(center_basis(algebra)) == 2
    center = graded_center(algebra, 1)
    assert center.space(0).dim == 2


def test_clifford_r2_center_dims_and_validation():
    data = graded_center_data(builtin("clifford1"), 2)
    assert data.algebra.space(0) == SuperSpace(0, 1)
    assert data.algebra.space(1) == SuperSpace(1, 0)
    assert validate(data.algebra).ok
    for a in range(2):
        assert data.algebra.nakayama(a) == data.gamma_restriction(a)


def test_config_roundtrip():
    a = builtin("clifford1")
    cfg = a.to_config()
    again = FrobeniusAlgebraData.from_config(cfg)
    assert again.to_config() == cfg
    assert again.mu_map(0, 0) == a.mu_map(0, 0)
    assert delta_separable(again)


def test_config_rejects_bad_data():
    a = builtin("group_algebra_Zn", n=2)
    cfg = a.to_config()
    cfg["counit"] = [["1", "0"]]  # degenerate choice
    with pytest.raises(FrobeniusError):
        FrobeniusAlgebraData.from_config(cfg)


BUILTIN_CASES = ([("group_algebra_Zn", n) for n in range(1, 5)]
                 + [("clifford1", 1), ("matrix_algebra_n", 2), ("matrix_algebra_n", 3)])


@pytest.mark.parametrize("name, n", BUILTIN_CASES, ids=["%s-%d" % c for c in BUILTIN_CASES])
def test_gamma_is_an_automorphism_of_every_builtin(name, n):
    """nakayama_gamma no longer checks its result: the Frobenius axioms that
    assemble checks make N_0^{-1} an automorphism of mu, eps and Delta."""
    assert gamma_automorphism_failures(builtin(name, n=n)) == []


@pytest.mark.parametrize("r", range(3, 9))
def test_gamma_of_order_r_is_an_automorphism(r):
    algebra = twisted_matrix_algebra(r)
    assert gamma_automorphism_failures(algebra) == []
    assert len(nakayama_gamma(algebra).powers(r)) == r


def test_gamma_powers_up_to_its_order():
    for name, n, order in (("group_algebra_Zn", 3, 1), ("clifford1", 2, 2),
                           ("matrix_algebra_n", 2, 1)):
        gamma = nakayama_gamma(builtin(name, n=n))
        powers = gamma.powers(24)
        assert len(powers) == order, name
        for k, power_k in enumerate(powers):
            assert power_k == power(gamma.map, k), (name, k)
        assert gamma.powers(order) == powers
    assert nakayama_gamma(builtin("clifford1")).powers(1) is None
    assert AlgebraAutomorphism(SuperMap(UNIT_SPACE, UNIT_SPACE, 0, [[2]])).powers(24) is None


def test_graded_center_splits_one_projector_per_power_of_gamma(monkeypatch):
    # P_a depends on a only through gamma^(1-a), so ord(gamma) projectors suffice
    project = constructors.averaging_projector
    calls = []

    def counted(algebra, front, gpow):
        calls.append(gpow)
        return project(algebra, front, gpow)

    monkeypatch.setattr(constructors, "averaging_projector", counted)
    for name, n, r, order in (("clifford1", 2, 8, 2), ("group_algebra_Zn", 3, 4, 1)):
        calls.clear()
        data = graded_center_data(builtin(name, n=n), r)
        assert len(calls) == order, name
        assert validate(data.algebra).ok, name
        for a in range(r):
            assert data.algebra.nakayama(a) == data.gamma_restriction(a), (name, a)


def count_maps(monkeypatch):
    built = []
    init = SuperMap.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SuperMap, "__init__", counted)
    return built


def test_graded_center_builds_no_identity_for_a_whisker(monkeypatch):
    """id o f and f o id are whiskers of a map already built: the averaging
    projectors and the Nakayama zig-zag build no identity on A o A o A.  The
    graded centre of clifford1 at r = 8 builds 75 maps: 59 for the centre, with
    one projector front x -> ebar o x o e for both powers of gamma, and 16 for
    the period's check N_a^2 = 1 (a < 2), which validate made before the period
    was found at construction.  The centre built 69 when gamma's solve was
    checked to be an automorphism and the unit to lie in C_1; with the p o p
    and incl o proj checks of split_idempotent and gamma's unit check 74, with
    a front per power 78, and building each id o f through tensor, with its
    materialised identity, 84."""
    algebra = builtin("clifford1")
    built = count_maps(monkeypatch)
    graded_center_data(algebra, 8)
    assert len(built) == 75


def test_the_period_check_moves_from_validate_to_construction(monkeypatch):
    """The centre and its validation build 79 maps together, 4 more than the
    centre alone: the powers of N_a that the period's check builds are kept
    with the algebra, and validate reads them (89 with the automorphism and
    unit checks of the centre)."""
    algebra = builtin("clifford1")
    built = count_maps(monkeypatch)
    assert validate(graded_center_data(algebra, 8).algebra).ok
    assert len(built) == 79


def reference_rejects(space, mult, unit, counit):
    """The axiom checks of a Frobenius algebra one by one with compose and tensor,
    in the order assemble once made them, with the cross-check that the two
    comultiplications built from the copairing agree."""
    one = identity(space)
    if compose(mult, tensor(mult, one)) != compose(mult, tensor(one, mult)):
        return True
    if compose(mult, tensor(unit, one)) != one or compose(mult, tensor(one, unit)) != one:
        return True
    try:
        copairing = copairing_from(compose(counit, mult), space)
    except DegeneratePairingError:
        return True
    comult = compose(tensor(mult, one), tensor(one, copairing))
    if comult != compose(tensor(one, mult), tensor(copairing, one)):
        return True
    if compose(tensor(counit, one), comult) != one or \
            compose(tensor(one, counit), comult) != one:
        return True
    middle = compose(comult, mult)
    return compose(tensor(mult, one), tensor(one, comult)) != middle or \
        compose(tensor(one, mult), tensor(comult, one)) != middle


def with_entries(m, change):
    """A copy of m whose entries list is passed through change."""
    entries = change([dict(stored) for stored in m.entries])
    return SuperMap(m.source, m.target, m.parity, None, m.source_factors, m.target_factors,
                    entries=[{j: x for j, x in stored.items() if x} for stored in entries])


def assemble_inputs():
    """Each built-in, and copies with one mult entry bumped by 1, the unit moved to
    another even basis vector, one counit entry zeroed, or the counit scaled by 3."""
    for name, n in (("trivial", 1), ("group_algebra_Zn", 2), ("group_algebra_Zn", 3),
                    ("clifford1", 1), ("matrix_algebra_n", 2)):
        a = builtin(name, n=n)
        mult, unit, counit, space = a.mu_map(0, 0), a.eta, a.eps, a.space(0)
        yield name, mult, unit, counit
        for i, stored in enumerate(mult.entries):
            for j in stored:
                def bump(entries, i=i, j=j):
                    entries[i][j] = entries[i][j] + 1
                    return entries
                yield name, with_entries(mult, bump), unit, counit
        for k in range(space.even):
            if unit.entries[k] != {0: Cyc.one()}:
                moved = [{0: Cyc.one()} if i == k else {} for i in range(space.dim)]
                yield name, mult, SuperMap(unit.source, unit.target, 0, None,
                                           unit.source_factors, unit.target_factors,
                                           entries=moved), counit
        for j in counit.entries[0]:
            def zeroed(entries, j=j):
                del entries[0][j]
                return entries
            yield name, mult, unit, with_entries(counit, zeroed)
        yield name, mult, unit, counit.scale(3)


def test_assemble_rejects_exactly_what_the_reference_rejects():
    outcomes = []
    for name, mult, unit, counit in assemble_inputs():
        space = mult.target
        try:
            FrobeniusAlgebraData.assemble(space, mult, unit, counit)
            rejected = False
        except FrobeniusError:
            rejected = True
        assert rejected == reference_rejects(space, mult, unit, counit), name
        outcomes.append(rejected)
    # both verdicts occur: the built-ins and their scaled counits pass
    assert True in outcomes and False in outcomes


@pytest.mark.parametrize("name, n", [("trivial", 1), ("group_algebra_Zn", 3), ("clifford1", 1),
                                     ("matrix_algebra_n", 2)])
@pytest.mark.parametrize("scale", [3, Cyc.rational(-1), 1 + Cyc.zeta(5)],
                         ids=["3", "-1", "1+z5"])
def test_counit_scaled_is_the_assembly_with_the_scaled_counit(monkeypatch, name, n, scale):
    alg = builtin(name, n=n)
    expected = FrobeniusAlgebraData.assemble(alg.space(0), alg.mu_map(0, 0), alg.eta,
                                             alg.eps.scale(scale))
    solves = []
    solve = constructors.copairing_from

    def counted(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(constructors, "copairing_from", counted)
    scaled = alg.counit_scaled(scale)
    assert scaled == expected and type(scaled) is FrobeniusAlgebraData
    assert solves == []
    assert scaled.copairing(0) == alg.copairing(0).scale(Cyc.one() / scale)
