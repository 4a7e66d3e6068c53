import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rspin.landau_ginzburg.groebner import (
    InfiniteQuotientError,
    groebner,
    jacobi,
    staircase,
)
from rspin.landau_ginzburg.poly import (
    Poly,
    PolyError,
    divide,
    format_poly,
    grevlex_key,
    leading_term,
    parse_poly,
)
from rspin.landau_ginzburg.mf import difference_quotient
from rspin.scalars import Cyc


def p(text):
    return parse_poly(text)


def test_parse_and_format():
    w = p("x^3 + y^3")
    assert w.vars == ("x", "y")
    assert format_poly(w) == "x^3 + y^3"
    assert p("2*x^2*y - 1/2") == p("-1/2 + 2*y*x^2")
    with pytest.raises(PolyError):
        parse_poly("x^")


def test_power_and_division_of_polynomials():
    x = p("x")
    assert x ** 0 == p("1")
    assert (x + 1) ** 2 == p("x^2 + 2*x + 1") == p("(x + 1)^2")
    with pytest.raises(PolyError):
        x ** -1
    assert p("x^2") / 2 == p("x^2/2") == p("1/2*x^2")
    assert p("x") / p("3") == p("x/3")
    with pytest.raises(PolyError):
        p("x") / p("y")
    with pytest.raises(PolyError, match="division by zero in polynomial"):
        parse_poly("x^2/(1-1)")
    for text in ("x^-1", "x/y", "2^-1*x"):
        with pytest.raises(PolyError):
            parse_poly(text)


def test_power_is_square_and_multiply():
    x, s = p("x"), p("x + y + z")
    repeated = p("1")
    for k in range(11):
        assert s ** k == repeated, k
        repeated = repeated * s
    started = time.perf_counter()
    huge = parse_poly("x^1000000")
    assert time.perf_counter() - started < 0.5
    assert huge.terms == (x ** 1000000).terms == {(1000000,): Cyc.one()}


def repeated_power(base, k):
    """The plain reference: k products by the base, and their term products."""
    result, work = Poly.const(1, base.vars), 0
    for _ in range(k):
        work += len(result.terms) * len(base.terms)
        result = result * base
    return result, work


@pytest.mark.parametrize("text, k, route", [
    ("x + y + z", 80, "products"),
    pytest.param("x + 1", 1000, "squaring", marks=pytest.mark.slow),
    ("3*x^2*y", 1000, "squaring"),
])
def test_power_picks_squaring_or_products_by_term_counts(monkeypatch, text, k, route):
    """(x+y+z)^80 is cheapest by repeated products (squaring p^40 alone would
    multiply two 861-term factors), while (x+1)^1000 and monomials are cheapest
    by squaring: the products a power makes show which route it took."""
    base = p(text)
    reference, reference_work = repeated_power(base, k)
    products = []
    plain = Poly.__mul__

    def counted(a, b):
        products.append(len(a.terms) * len(b.terms))
        return plain(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    power = base ** k
    monkeypatch.undo()
    assert power == reference
    assert format_poly(power) == format_poly(reference)
    if route == "products":
        assert sum(products) <= reference_work
    else:
        assert len(products) <= 2 * k.bit_length()


def test_rename_and_scale_by_one_make_no_products(monkeypatch):
    """A coefficient 1 costs no Cyc product: rename substitutes with 1, and
    scale(1) returns the polynomial as it is."""
    w = p("x^3 + 2*x*y^2 - y^4/3")
    products = []
    plain = Cyc.__mul__

    def counted(a, b):
        products.append((a, b))
        return plain(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    monkeypatch.setattr(Cyc, "__rmul__", counted)
    renamed = w.rename({"x": "x'", "y": "y'"})
    scaled = [w.scale(one) for one in (1, Cyc.one(), Fraction(1))]
    monkeypatch.undo()
    assert products == []
    assert renamed == p("x'^3 + 2*x'*y'^2 - y'^4/3")
    assert all(s == w for s in scaled)
    # a coefficient other than 1 still enters, to the power of the exponent
    assert w.substitute({"x": (Cyc.zeta(3), "x")}) == \
        p("x^3 - y^4/3") + p("2*x*y^2").scale(Cyc.zeta(3))


def test_empty_rename_is_the_polynomial_itself():
    """difference_quotient renames its last variable's low term with {}: that
    costs nothing, not a substitution."""
    w = p("x^3 + 2*x*y^2 - y^4/3")
    assert w.rename({}) is w


def test_derivative():
    assert p("x^3").derivative("x") == p("3*x^2")
    assert p("x^2 + y^2").derivative("y") == p("2*y")
    assert p("x^2").derivative("q").is_zero()


def test_difference_quotient_one_variable():
    # (x'^3 - x^3)/(x' - x) = x'^2 + x'*x + x^2, by expanding the product
    q = difference_quotient(p("x^3"), "x")
    expected = parse_poly("u^2 + u*x + x^2").rename({"u": "x'"})
    assert q == expected


def test_difference_quotient_second_variable():
    q = difference_quotient(p("x^2 + y^2"), "y")
    expected = parse_poly("u + y").rename({"u": "y'"})
    assert q == expected


def test_divide_exact():
    a = p("x^2 - y^2")
    b = p("x - y")
    assert a.divide_exact(b) == p("x + y")
    with pytest.raises(PolyError):
        p("x^2 + 1").divide_exact(p("x"))


# -- the arithmetic against literal dict references ----------------------------
#
# A reference polynomial is a dict from monomials, written as sorted
# ((variable, exponent), ...) pairs with positive exponents, to nonzero
# coefficients; it has no variable list to align.

VARIABLES = ("x", "x'", "y")
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def scalars(order):
    """Values in Q (order 1) or in Q(zeta_5), zero included."""
    if order == 1:
        return small_rationals.map(Cyc.rational)
    return st.lists(small_rationals, min_size=4, max_size=4).map(
        lambda coeffs: Cyc.from_coeffs(5, coeffs))


@st.composite
def sparse_polys(draw, order):
    variables = tuple(sorted(draw(st.sets(st.sampled_from(VARIABLES)))))
    exponents = st.tuples(*[st.integers(0, 2)] * len(variables))
    return Poly(variables, draw(st.dictionaries(exponents, scalars(order), max_size=5)))


def as_reference(poly):
    return {tuple((v, e) for v, e in zip(poly.vars, exp) if e): c
            for exp, c in poly.terms.items()}


def reference_add(a, b):
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out[mono] + c if mono in out else c
    return {mono: c for mono, c in out.items() if c}


def reference_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(sorted((Counter(dict(m1)) + Counter(dict(m2))).items()))
            out[mono] = out[mono] + c1 * c2 if mono in out else c1 * c2
    return {mono: c for mono, c in out.items() if c}


def reference_substitute(a, mapping):
    out = {}
    for mono, c in a.items():
        powers = Counter()
        for v, e in mono:
            coef, name = mapping.get(v, (Cyc.one(), v))
            c = c * coef ** e
            powers[name] += e
        mono = tuple(sorted(powers.items()))
        out[mono] = out[mono] + c if mono in out else c
    return {mono: c for mono, c in out.items() if c}


def assert_matches(poly, variables, reference):
    assert poly.vars == tuple(variables)
    assert all(len(exp) == len(poly.vars) for exp in poly.terms)
    assert all(poly.terms.values()), "a zero coefficient is stored"
    assert as_reference(poly) == reference


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), order=st.sampled_from([1, 5]))
def test_add_and_mul_match_the_dict_reference(data, order):
    a, b = data.draw(sparse_polys(order)), data.draw(sparse_polys(order))
    union = sorted(set(a.vars) | set(b.vars))
    assert_matches(a + b, union, reference_add(as_reference(a), as_reference(b)))
    assert_matches(a * b, union, reference_mul(as_reference(a), as_reference(b)))
    assert_matches(-a, a.vars, {mono: -c for mono, c in as_reference(a).items()})
    assert_matches(a - b, union, reference_add(as_reference(a), as_reference(-b)))
    # in (a + b)(a - b) the cross terms cancel inside one product
    s, d = a + b, a - b
    assert_matches(s * d, union, reference_mul(as_reference(s), as_reference(d)))
    # cancellation and scaling by zero leave nothing stored
    assert (a - a).is_zero() and (a + (-a)).is_zero() and (a * b - b * a).is_zero()
    assert a.scale(0).is_zero() and a.scale(Cyc.zero()).is_zero()


def test_subtraction_negates_no_polynomial(monkeypatch):
    """a - b is one pass over b's terms, not a + (-b) with a negated copy."""
    a, b = p("x^2 + 2*x*y - 1"), p("x^2 - y + 3")
    negated = []
    plain = Poly.__neg__

    def counted(self):
        negated.append(self)
        return plain(self)

    monkeypatch.setattr(Poly, "__neg__", counted)
    differences = [a - b, b - a, a - 1, a - a]
    monkeypatch.undo()
    assert negated == []
    assert differences == [p("2*x*y + y - 4"), p("-2*x*y - y + 4"), p("x^2 + 2*x*y - 2"), 0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), order=st.sampled_from([1, 5]))
def test_substitute_matches_the_dict_reference(data, order):
    a = data.draw(sparse_polys(order))
    mapping = data.draw(st.dictionaries(st.sampled_from(a.vars) if a.vars else st.nothing(),
                                        st.tuples(scalars(order), st.sampled_from(VARIABLES))))
    got = a.substitute(mapping)
    names = {mapping[v][1] if v in mapping else v for v in a.vars}
    assert_matches(got, sorted(names), reference_substitute(as_reference(a), mapping))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), order=st.sampled_from([1, 5]))
def test_divide_exact_inverts_the_product(data, order):
    a, b = data.draw(sparse_polys(order)), data.draw(sparse_polys(order))
    if b.is_zero():
        with pytest.raises(PolyError):
            a.divide_exact(b)
        return
    quotient = (a * b).divide_exact(b)
    assert_matches(quotient, sorted(set(a.vars) | set(b.vars)), as_reference(a))
    if b.degree() > 0:
        # b divides a * b, so it would divide the constant 1 as well
        with pytest.raises(PolyError, match="inexact"):
            (a * b + 1).divide_exact(b)


def divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), order=st.sampled_from([1, 5]))
def test_divide_is_a_division_with_remainder(data, order):
    """p = sum q_i d_i + r exactly, no term of r is divisible by a leading term,
    and no q_i d_i leads above p; a zero divisor gets a zero quotient."""
    p = data.draw(sparse_polys(order))
    divisors = data.draw(st.lists(sparse_polys(order), max_size=3))
    union = tuple(sorted(set(p.vars).union(*(d.vars for d in divisors))))
    quotients, remainder = divide(p, divisors)
    assert len(quotients) == len(divisors)
    assert all(q.vars == union for q in quotients) and remainder.vars == union
    total = remainder
    for q, d in zip(quotients, divisors):
        assert all(q.terms.values()), "a zero coefficient is stored"
        total = total + q * d
        if d.is_zero():
            assert q.is_zero()
        elif q:
            lead = leading_term((q * d).align(union))[0]
            assert grevlex_key(lead) <= grevlex_key(leading_term(p.align(union))[0])
    assert total == p
    assert all(remainder.terms.values()), "a zero coefficient is stored"
    leads = [leading_term(d.align(union))[0] for d in divisors if d]
    assert not any(divides(lead, e) for lead in leads for e in remainder.terms)


def test_groebner_single_monomial():
    basis = groebner([p("x^2")])
    assert len(basis) == 1
    assert basis[0] == p("x^2")


def test_groebner_staircase_kills_y():
    basis = groebner([p("3*x^2"), p("2*y")])
    mons = staircase(basis, ("x", "y"))
    assert mons == [(0, 0), (1, 0)]  # {1, x}


@pytest.mark.parametrize("potential", [
    "x^3 + x*y^2",
    "x^2*y + y^4",
    "x^3 + x*y^3",
    "x^4 + x^2*y^2 + y^4",
    "x^3 + y^3 + z^3 + x*y*z",
    "x^3 + 2*x*y + y^3 + y*z^2 + z^4",
])
def test_groebner_matches_sympy(potential):
    sympy = pytest.importorskip("sympy")
    w = p(potential)
    ours = groebner([w.derivative(v) for v in w.vars])
    symbols = sympy.symbols(" ".join(w.vars))
    partials = [sympy.diff(sympy.sympify(potential.replace("^", "**")), s) for s in symbols]
    # over QQ sympy returns the reduced basis with monic elements
    theirs = sympy.groebner(partials, *symbols, order="grevlex", domain="QQ")
    assert {frozenset((exp, c.as_fraction()) for exp, c in g.align(w.vars).terms.items())
            for g in ours} == \
        {frozenset((exp, Fraction(int(c.p), int(c.q))) for exp, c in g.terms())
         for g in theirs.polys}


def sympy_basis(sympy, generators, variables):
    """sympy's reduced grevlex basis over QQ, monic, as frozensets of terms."""
    symbols = sympy.symbols(" ".join(variables))

    def term(exp, c):
        return sympy.Rational(c.as_fraction()) * sympy.Mul(*[s ** e for s, e in zip(symbols, exp)])

    exprs = [sympy.Add(*[term(exp, c) for exp, c in g.align(variables).terms.items()])
             for g in generators]
    theirs = sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ")
    return {frozenset((exp, Fraction(int(c.p), int(c.q))) for exp, c in g.terms())
            for g in theirs.polys if not g.is_zero}


@st.composite
def rational_generators(draw):
    """Two or three rational polynomials in x, y, z of degree at most 2 in each."""
    exponents = st.tuples(*[st.integers(0, 2)] * 3)
    terms = st.dictionaries(exponents, small_rationals.map(Cyc.rational), max_size=4)
    return [Poly(("x", "y", "z"), t) for t in draw(st.lists(terms, min_size=2, max_size=3))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generators=rational_generators())
@example(generators=[p("x^2*y"), p("x*y^2")])  # not an isolated singularity
@example(generators=[p("x^2 - y/3"), p("x*y - 2/5"), p("3/2*z^2 + x")])
def test_groebner_matches_sympy_on_drawn_generators(generators):
    sympy = pytest.importorskip("sympy")
    variables = ("x", "y", "z")
    ours = groebner(generators)
    union = tuple(sorted(set().union(*(g.vars for g in generators))))
    assert all(g.vars == union for g in ours)
    assert {frozenset((exp, c.as_fraction()) for exp, c in g.align(variables).terms.items())
            for g in ours} == sympy_basis(sympy, generators, variables)
    # monic, reduced and sorted: increasing leading terms, none dividing another term
    assert all(leading_term(g)[1] == 1 for g in ours)
    leads = [leading_term(g)[0] for g in ours]
    assert leads == sorted(leads, key=grevlex_key) and len(set(leads)) == len(leads)
    assert not any(divides(lead, e) for k, lead in enumerate(leads)
                   for j, g in enumerate(ours) if j != k for e in g.terms)


def test_jacobi_x3_plus_y3():
    jac = jacobi(p("x^3 + y^3"))
    assert jac.dimension == 4
    assert set(jac.monomial_basis) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_jacobi_fermat_family():
    # W = x^r has Jacobi algebra of dimension r-1 with basis 1..x^{r-2}
    for r in (2, 3, 4, 5, 6):
        jac = jacobi(parse_poly("x^%d" % r))
        assert jac.dimension == r - 1
        assert jac.monomial_basis == [(j,) for j in range(r - 1)]


def test_normal_form_idempotent_and_multiplicative():
    jac = jacobi(p("x^3 + y^3"))
    f = p("x^5 + x*y^4 + 2")
    g = p("x^2*y + 7*y^2")
    nf = jac.normal_form
    assert nf(nf(f)) == nf(f)
    assert nf(f * g) == nf(nf(f) * nf(g))


def test_quotient_dim_against_rank_oracle():
    """Independent oracle: count monomials modulo the truncated ideal span."""
    from rspin.superlinalg import kernel_of_matrix

    for text, expected in (("x^3 + y^3", 4), ("x^4", 3)):
        w = p(text)
        gens = [w.derivative(v) for v in w.vars]
        variables = w.vars
        bound = 2 * w.degree()  # safely beyond the staircase degrees

        import itertools

        monos = [e for e in itertools.product(range(bound), repeat=len(variables))
                 if sum(e) <= bound]
        monos.sort()
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in gens:
            for shift in monos:
                prod = Poly(variables, {tuple(a + b for a, b in zip(e, shift)): c
                                        for e, c in g.terms.items()})
                if prod.degree() > bound:
                    continue
                row = {}
                ok = True
                for e, c in prod.terms.items():
                    if e not in index:
                        ok = False
                        break
                    row[index[e]] = c
                if ok:
                    rows.append(row)
        # rank by rank-nullity
        ncols = len(monos)
        ker = kernel_of_matrix(rows, ncols)
        rank = ncols - len(ker)
        low_dim = ncols - rank
        assert low_dim == expected, text


def test_infinite_quotient_names_variable():
    with pytest.raises(InfiniteQuotientError) as err:
        jacobi(p("x^2*y^2"))
    assert err.value.variable in ("x", "y")
