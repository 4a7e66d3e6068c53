import operator

import pytest

from rspin.landau_ginzburg.mf import (
    GroupAction,
    MatrixFactorization,
    MFError,
    _weights,
    _window,
    check_closed,
    difference_quotient,
    hom_cohomology,
    identity_hom,
    identity_mf,
    koszul_factorization,
    koszul_pairs,
    mf_tensor,
    prime,
    twisted_identity,
)
from rspin.landau_ginzburg.groebner import jacobi
from rspin.landau_ginzburg.poly import Poly, format_poly, parse_poly
from rspin.scalars import Cyc

from reference import hom_cohomology as reference_hom


def p(text):
    return parse_poly(text)


def test_identity_mf_x3_entries():
    mf = identity_mf(p("x^3"))
    assert mf.rank == (1, 1)
    u = difference_quotient(p("x^3"), "x")
    v = Poly.variable("x'") - Poly.variable("x")
    # basis (1, theta): d(1) = u theta, d(theta) = v
    assert mf.d[0][1] == v
    assert mf.d[1][0] == u


def popcount(mask):
    return bin(mask).count("1")


def reference_koszul(us, vs):
    """(parities, d) of sum_i (u_i theta_i + v_i theta_i*) on the exterior
    algebra, written out on bitmasks: theta_i and its contraction theta_i*
    carry the sign (-1)^{#generators below i}.  The basis is listed as the
    factor-by-factor tensor product lists it: the masks of n - 1 generators,
    each followed by itself with theta_{n-1} added, evens first."""
    n = len(us)
    masks = [0]
    for i in range(n):
        masks = [m | (bit << i) for m in masks for bit in (0, 1)]
        masks = ([m for m in masks if popcount(m) % 2 == 0]
                 + [m for m in masks if popcount(m) % 2 == 1])
    index = {m: k for k, m in enumerate(masks)}
    d = [[Poly.zero()] * len(masks) for _ in masks]
    for mask in masks:
        for i in range(n):
            sign = -1 if popcount(mask & ((1 << i) - 1)) % 2 else 1
            if mask & (1 << i):
                target, entry = mask & ~(1 << i), vs[i]
            else:
                target, entry = mask | (1 << i), us[i]
            d[index[target]][index[mask]] = entry if sign > 0 else -entry
    return tuple(popcount(m) % 2 for m in masks), d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_koszul_factorization_matches_exterior_algebra(n):
    us = [p("a%d" % i) for i in range(n)]
    vs = [p("b%d" % i) for i in range(n)]
    target = sum((u * v for u, v in zip(us, vs)), Poly.zero())
    mf = koszul_factorization(us, vs, (), tuple(target.vars), (), Poly.zero(), target)
    parities, d = reference_koszul(us, vs)
    assert mf.parities == parities
    assert mf.d == d


@pytest.mark.parametrize("potential", ["x^2 + y^3", "x^3 + y^3 + z^4"])
def test_identity_mf_matches_exterior_algebra(potential):
    w = p(potential)
    mf = identity_mf(w)
    us = [difference_quotient(w, v) for v in w.vars]
    vs = [Poly.variable(v + "'") - Poly.variable(v) for v in w.vars]
    assert (mf.parities, mf.d) == reference_koszul(us, vs)


def test_identity_mf_two_variables_d_square():
    mf = identity_mf(p("x^3 + y^3"))
    assert mf.rank == (2, 2)  # construction already checks d^2 symbolically


def test_twist_zero_equals_identity():
    w = p("x^3")
    act = GroupAction(3, (("x", 1),))
    act.check_invariance(w)
    t0 = twisted_identity(w, act, 0)
    i = identity_mf(w)
    assert t0.d == i.d and t0.parities == i.parities


def test_twisted_identity_entries_r3():
    # d_{g(1_W)} = (x'^r - x^r)/(xi^{-g} x' - x) theta + (xi^{-g} x' - x) theta*
    w = p("x^3")
    act = GroupAction(3, (("x", 1),))
    t1 = twisted_identity(w, act, 1)
    lam = Cyc.zeta(3, 2)  # xi^{-1}
    v = Poly.variable("x'").scale(lam) - Poly.variable("x")
    num = parse_poly("u^3 - x^3").rename({"u": "x'"})
    u = num.divide_exact(v)
    assert t1.d[0][1] == v
    assert t1.d[1][0] == u


def test_shift_interplay_dimension_tables():
    w = p("x^3")
    x = identity_mf(w)
    sx = x.shift()
    assert sx.rank == (x.rank[1], x.rank[0])
    y = identity_mf(p("y^2"))
    # shifting either argument swaps the parities of Hom(X, X): (mu, 0) -> (0, mu)
    for mf, mu in ((x, 2), (identity_mf(p("x^4")), 3), (y, 1)):
        assert reference_hom(mf, mf).dims == (mu, 0)
        assert reference_hom(mf, mf.shift()).dims == (0, mu)
        assert reference_hom(mf.shift(), mf).dims == (0, mu)


def test_mf_tensor_disjoint_fermat():
    # rank-1 factorizations of x^3 (as a source dual) and y^3 compose to a
    # rank-2 factorization of x^3 + y^3; d^2 is checked on construction
    x3 = p("x^3")
    y3 = p("y^3")
    x_factor = koszul_factorization(
        [p("x^2")], [p("x")], ("x",), (), (), -x3, Poly.zero())
    y_factor = koszul_factorization(
        [p("y^2")], [p("y")], (), ("y",), (), Poly.zero(), y3)
    composite = mf_tensor(y_factor, x_factor)
    assert composite.rank == (2, 2)
    assert composite.source_potential == -x3
    assert composite.target_potential == y3
    # 4x4 differential squares to (y^3 + x^3) . id: verified in the constructor,
    # but assert the potential difference explicitly
    assert composite.target_potential - composite.source_potential == p("x^3 + y^3")


def test_mf_tensor_shift_interplay():
    x_factor = koszul_factorization(
        [p("x^2")], [p("x")], ("x",), (), (), -p("x^3"), Poly.zero())
    y_factor = koszul_factorization(
        [p("y^2")], [p("y")], (), ("y",), (), Poly.zero(), p("y^3"))
    a = mf_tensor(y_factor.shift(), x_factor)
    b = mf_tensor(y_factor, x_factor).shift()
    assert sorted(a.parities) == sorted(b.parities)
    assert a.rank == b.rank


def test_mf_tensor_middle_mismatch():
    x_factor = identity_mf(p("x^2"))
    y_factor = identity_mf(p("y^2"))
    with pytest.raises(MFError):
        mf_tensor(y_factor, x_factor)


def test_end_identity_x2():
    mf = identity_mf(p("x^2"))
    h = reference_hom(mf, mf)
    assert h.dims == (1, 0)


@pytest.mark.parametrize("r", [3, 4])
def test_end_identity_xr(r):
    mf = identity_mf(parse_poly("x^%d" % r))
    h = reference_hom(mf, mf)
    assert h.dims == (r - 1, 0)


@pytest.mark.parametrize("r", [3, 4])
def test_shifted_hom_is_purely_odd(r):
    mf = identity_mf(parse_poly("x^%d" % r))
    h = reference_hom(mf, mf.shift())
    assert h.dims == (0, r - 1)


@pytest.mark.parametrize("r,g", [(3, 1), (3, 2), (4, 1)])
def test_twisted_hom_is_odd_line(r, g):
    w = parse_poly("x^%d" % r)
    act = GroupAction(r, (("x", 1),))
    h = reference_hom(identity_mf(w), twisted_identity(w, act, g))
    assert h.dims == (0, 1)


def test_tensor_with_identity_preserves_hom_dims():
    """Hom(T, 1 o X) = Hom(T, X) for middle-free test objects T.

    With the middle variable retained as a free coefficient, the comparison
    holds for morphisms INTO the composite; mapping out of it twists by the
    middle Koszul direction (dims flip parity), which the last asserts record.
    """
    u = parse_poly("y + x")
    v = parse_poly("y - x")
    x_mf = koszul_factorization([u], [v], ("x",), ("y",), (), p("x^2"), p("y^2"))
    composite = mf_tensor(identity_mf(parse_poly("y^2")), x_mf)
    assert composite.middle_vars == ("y~",)
    test_obj = koszul_factorization([parse_poly("y' + x")], [parse_poly("y' - x")],
                                    ("x",), ("y'",), (), p("x^2"),
                                    parse_poly("y'^2"))
    base = reference_hom(test_obj, test_obj)
    assert base.dims == (1, 0)
    into = reference_hom(test_obj, composite)
    assert into.dims == base.dims
    out_of = reference_hom(composite, test_obj)
    assert out_of.dims == (base.dims[1], base.dims[0])


@pytest.mark.parametrize("potential", ["x", "x^2 + y^2", "x^2 + y^3", "x^3 + y^3"])
def test_end_identity_is_milnor_number(potential):
    """End(I_W) is the Jacobi algebra: (mu | 0), and (0 | mu) into I_W[1].

    mu comes from the Groebner staircase of the Jacobian ideal, a route
    that shares nothing with either Hom engine.  W = x has no critical
    point: mu = 0, and the window [1, -1] of identity_hom is empty.
    """
    w = parse_poly(potential)
    mu = jacobi(w).dimension
    one = identity_mf(w)
    assert reference_hom(one, one).dims == identity_hom(w).dims == (mu, 0)
    assert reference_hom(one, one.shift()).dims == identity_hom(w, shift=True).dims == (0, mu)


def test_end_identity_is_milnor_number_three_variables():
    """End(I_W) = (mu | 0) for x^2 + y^2 + z^2 (mu = 1), and (0 | mu) into I_W[1]."""
    w = parse_poly("x^2 + y^2 + z^2")
    assert jacobi(w).dimension == 1
    assert identity_hom(w).dims == (1, 0)
    assert identity_hom(w, shift=True).dims == (0, 1)


# -- Hom out of I_W on the diagonal ---------------------------------------------

def one_variable_cases():
    """(w, action, g) for x^d under every weight of Z_d and every g."""
    for d in range(2, 7):
        for weight in range(d):
            for g in range(d):
                yield p("x^%d" % d), GroupAction(d, (("x", weight),)), g


def sector_cases(potential, r, weights):
    w = p(potential)
    action = GroupAction(r, tuple(zip(w.vars, weights)))
    return [(w, action, g) for g in range(r)]


TWO_VARIABLE_SECTORS = sector_cases("x^3 + y^3", 3, (1, 1)) + sector_cases("x^2 + y^4", 4, (2, 1))
D_E_SECTORS = (sector_cases("x^2*y + y^3", 3, (1, 1)) + sector_cases("x^3 + y^4", 12, (4, 3))
               + sector_cases("x^3 + x*y^3", 9, (3, 2)))


def case_id(case):
    w, action, g = case
    return "%s-w%s-g%d" % (format_poly(w).replace(" ", ""), ",".join(str(wt) for _, wt in action.weights), g)


@pytest.mark.parametrize("shift", [False, True])
def test_identity_hom_matches_echelon_one_variable(shift):
    for w, action, g in one_variable_cases():
        y = twisted_identity(w, action, g)
        y = y.shift() if shift else y
        assert identity_hom(w, action, g, shift).dims == reference_hom(identity_mf(w), y).dims, \
            case_id((w, action, g))


@pytest.mark.slow
@pytest.mark.parametrize("case", TWO_VARIABLE_SECTORS, ids=case_id)
def test_identity_hom_matches_echelon_two_variable_sectors(case):
    """The echelon over (x, x') takes about a second per twisted sector here."""
    w, action, g = case
    y = twisted_identity(w, action, g)
    assert identity_hom(w, action, g).dims == reference_hom(identity_mf(w), y).dims


def fixed_locus_dims(w, action, g):
    """(even, odd) dims of Hom(I_W, _g I_W) from the fixed locus of g:
    dim Jac(W restricted to Fix g) in the parity of codim Fix g
    (Polishchuk-Vaintrob, arXiv:1002.2116).  W restricted to Fix g keeps the
    terms free of the moved variables; with no fixed variable it is the
    constant 0 in no variables, whose Jacobi algebra is the line k."""
    moved = [k for k, v in enumerate(w.vars) if action.weight(v) * g % action.r]
    fixed = tuple(v for k, v in enumerate(w.vars) if k not in moved)
    terms = {tuple(e for k, e in enumerate(exp) if k not in moved): c
             for exp, c in w.terms.items() if not any(exp[k] for k in moved)}
    mu = jacobi(Poly(fixed, terms)).dimension
    return (0, mu) if len(moved) % 2 else (mu, 0)


def closed_representatives(w, action, g, shift):
    """identity_hom's dims, after checking that it returns one representative
    per dimension and that each is a cocycle of Y = _g I_W[shift] on the
    diagonal x' = x."""
    h = identity_hom(w, action, g, shift)
    y = twisted_identity(w, action, g)
    y = y.shift() if shift else y
    assert (len(h.even_reps), len(h.odd_reps)) == h.dims
    diagonal = {prime(v): v for v in w.vars}
    d = [[entry.rename(diagonal) for entry in row] for row in y.d]
    for parity, reps in enumerate((h.even_reps, h.odd_reps)):
        for rep in reps:
            assert len(rep) == len(d) and all(len(row) == 1 for row in rep)
            check_closed([[Poly.zero()]], d, rep, parity)
    return h.dims


def restricted_complexes(monkeypatch):
    """The arguments of every hom_cohomology call, as identity_hom passes them."""
    seen = []

    def recorded(*args):
        seen.append(args)
        return hom_cohomology(*args)

    monkeypatch.setattr("rspin.landau_ginzburg.mf.hom_cohomology", recorded)
    return seen


def assert_graded(variables, d, parities, slot_degrees, weights, degree):
    """Every nonzero entry is homogeneous, odd, and steps the slot degrees by
    D - 2 wdeg: the grading identity_hom fixes by construction."""
    assert slot_degrees[0] == 0
    for i, row in enumerate(d):
        for j, entry in enumerate(row):
            if entry:
                assert entry.vars == variables and parities[i] != parities[j]
                wdegs = {sum(map(operator.mul, weights, exp)) for exp in entry.terms}
                assert len(wdegs) == 1, (i, j, format_poly(entry))
                assert slot_degrees[i] - slot_degrees[j] == degree - 2 * wdegs.pop(), (i, j)


@pytest.mark.parametrize("case", list(one_variable_cases()) + TWO_VARIABLE_SECTORS + D_E_SECTORS,
                         ids=case_id)
def test_identity_hom_matches_fixed_locus_closed_form(monkeypatch, case):
    w, action, g = case
    action.check_invariance(w)
    even, odd = fixed_locus_dims(w, action, g)
    seen = restricted_complexes(monkeypatch)
    assert closed_representatives(w, action, g, False) == (even, odd)
    assert closed_representatives(w, action, g, True) == (odd, even)
    assert len(seen) == 2
    for args in seen:
        assert_graded(*args)


@pytest.mark.parametrize("narrow", [(0, -1), (1, 0)], ids=["top", "bottom"])
def test_the_window_is_tight_at_both_ends(monkeypatch, narrow):
    """End(I_{x^4}) = Jac = <1, x, x^2> sits at the doubled degrees -2, 0, 2,
    both ends of the window [-2, 2]: one degree less at either end loses a class."""
    w = p("x^4")
    assert identity_hom(w).dims == (3, 0)
    monkeypatch.setattr("rspin.landau_ginzburg.mf._window", lambda weights, degree: tuple(
        map(operator.add, _window(weights, degree), narrow)))
    assert identity_hom(w).dims == (2, 0)


def test_the_shifted_identity_is_the_swapped_koszul_factorization():
    # I_{x^4}[1] is, up to isomorphism, the Koszul factorization with u and v
    # swapped, whose slot 0 is not the Koszul unit; the reference over (x, x')
    # reads (0, 3) on it, as identity_hom does on the shift it builds itself
    w = p("x^4")
    swapped = koszul_factorization([p("x' - x")], [difference_quotient(w, "x")], ("x",),
                                   ("x'",), (), w, w.rename({"x": "x'"}))
    assert reference_hom(identity_mf(w), swapped).dims == identity_hom(w, shift=True).dims \
        == (0, 3)


@pytest.mark.parametrize("potential, weights", [
    ("x^4", ((1,), 4)), ("x^2 + y^3", ((3, 2), 6)), ("x^2*y + y^3", ((1, 1), 3)),
    ("x^3 + x*y^3", ((3, 2), 9)), ("x*y", ((1, 1), 2)), ("x*y + z^3", ((3, 3, 2), 6)),
    ("x^2 + 1", ((1,), 2)), ("0", ((), 1))])
def test_weights(potential, weights):
    """Integer weights and the least degree D; a weight that x*y leaves free
    is 1/2, and a constant term is skipped."""
    assert _weights(p(potential)) == weights


@pytest.mark.parametrize("potential, message", [
    ("x^3 + x^2", "W = x^3 + x^2 is not quasi-homogeneous: no weights give all its monomials "
                  "one degree"),
    ("x^2*y^2", "W = x^2*y^2 has a non-isolated singularity (no pure power of 'x' leads its "
                "Jacobian ideal), so Hom(I_W, Y) can be infinite-dimensional"),
])
def test_identity_hom_refuses_what_has_no_window(potential, message):
    w = p(potential)
    with pytest.raises(MFError) as refused:
        identity_hom(w)
    assert str(refused.value) == message


def test_a_constant_term_leaves_the_hom_of_the_rest():
    # the constant cancels in W(x') - W(x) and in every difference quotient
    assert identity_hom(p("x^2 + 1")).dims == identity_hom(p("x^2")).dims == (1, 0)


def through_a_middle_variable():
    """x^2 -> y^2 -> x'^2 composed over y: over (x | x'), through y~."""
    a = koszul_factorization([p("y + x")], [p("y - x")], ("x",), ("y",), (), p("x^2"), p("y^2"))
    b = koszul_factorization([p("x' + y")], [p("x' - y")], ("y",), ("x'",), (),
                             p("y^2"), p("x'^2"))
    return mf_tensor(b, a)


def test_reference_keeps_the_middle_variables_of_y():
    # the reference over all the variables keeps the middle variable as a
    # free coefficient
    composite = through_a_middle_variable()
    assert composite.middle_vars == ("y~",)
    assert reference_hom(identity_mf(p("x^2")), composite).dims == (1, 0)


@pytest.mark.parametrize("r", [2, 4])
def test_identity_hom_refuses_a_twist_that_moves_w(r):
    # x -> xi^{-1} x' does not fix x^3 unless 3 = 0 mod r: the invariance
    # check refuses it before any twisted identity is built
    with pytest.raises(MFError) as refused:
        identity_hom(p("x^3"), GroupAction(r, (("x", 1),)), 1)
    assert str(refused.value) == ("potential x^3 is not invariant under Z%d: its monomial x^3 "
                                  "has weight 3, not 0 mod %d" % (r, r))


@pytest.mark.parametrize("g, shift", [(None, False), (None, True), (1, False), (1, True)])
def test_identity_hom_builds_no_factorization(monkeypatch, g, shift):
    """The restricted complex is folded from the Koszul pairs on the diagonal:
    no factorization over (x | x'), so no d^2 check over 2n variables."""
    seen = []
    monkeypatch.setattr(MatrixFactorization, "__post_init__", lambda self: seen.append(self))
    w = p("x^2 + y^2 + z^3")
    action = GroupAction(2, (("x", 1), ("y", 1), ("z", 0)))
    identity_hom(w, action, g, shift)
    assert seen == []


def test_identity_hom_refuses_pairs_that_do_not_square_to_zero(monkeypatch):
    # d^2 of the restricted complex is sum_i u_i v_i . id: spoil u_0 of the
    # twisted x^2 + y^2, whose v_0 = -2x is not zero on the diagonal
    pairs = koszul_pairs

    def spoiled(*args):
        us, vs = pairs(*args)
        return [us[0] + p("x'")] + us[1:], vs

    monkeypatch.setattr("rspin.landau_ginzburg.mf.koszul_pairs", spoiled)
    with pytest.raises(MFError) as refused:
        identity_hom(p("x^2 + y^2"), GroupAction(2, (("x", 1), ("y", 1))), 1)
    assert str(refused.value) == ("the Koszul pairs give d^2 = (-2*x^2) . id on the diagonal "
                                  "x' = x, not 0")


@pytest.mark.parametrize("g", [0, 1, 2, 3])
def test_koszul_pairs_are_those_of_the_twisted_identity(g):
    # the closed form against exact division: u_i is difference_quotient(w, x_i)
    # with x'_j -> lam_j x'_j, and v_i = lam_i x'_i - x_i; the action need not fix W
    w = p("x^3*y + y^4 + x*z^2 + 5")
    action = GroupAction(4, (("x", 1), ("y", 3), ("z", 2)))
    lam = {v: action.root(v, -g) for v in w.vars}
    scaled = {prime(v): (lam[v], prime(v)) for v in w.vars}
    us, vs = koszul_pairs(w, action, g)
    assert us == [difference_quotient(w, v).substitute(scaled) for v in w.vars]
    assert vs == [p(prime(v)).scale(lam[v]) - p(v) for v in w.vars]


def test_an_undeclared_variable_has_weight_zero():
    # x^2 + y^2 under Z2 moving x alone: the invariance check and the twist
    # agree that y has weight 0, so sector 1 is Jac(y^2) in odd parity
    w, action = p("x^2 + y^2"), GroupAction(2, (("x", 1),))
    assert action.weight("y") == 0
    assert identity_hom(w, action, 1).dims == identity_hom(
        w, GroupAction(2, (("x", 1), ("y", 0))), 1).dims == (0, 1)
