from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from rspin.scalars import (
    Cyc,
    ScalarError,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
)


def frac_poly_divide(num, den):
    """Independent long-division oracle over Fractions (ascending coeffs)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(num) - 1, len(den) - 2, -1):
        c = num[k] / den[-1]
        quot[k - len(den) + 1] = c
        for i, d in enumerate(den):
            num[k - len(den) + 1 + i] -= c * d
    return quot, num[: len(den) - 1]


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_cyclotomic_6_against_division_oracle():
    # Phi_6 = (x^6 - 1) / (Phi_1 * Phi_2 * Phi_3), checked by independent division.
    x6 = [-1, 0, 0, 0, 0, 0, 1]
    prod = [1]
    for d in (1, 2, 3):
        phi = list(cyclotomic_polynomial(d))
        out = [Fraction(0)] * (len(prod) + len(phi) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(phi):
                out[i + j] += a * b
        prod = out
    quot, rem = frac_poly_divide(x6, prod)
    assert all(r == 0 for r in rem)
    assert quot == [1, -1, 1]
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for r in range(1, 61):
        phi = sympy.Poly(sympy.cyclotomic_poly(r, x), x)
        assert cyclotomic_polynomial(r) == tuple(reversed(phi.all_coeffs())), r


def test_zeta_power_relations():
    for r in range(1, 13):
        z = Cyc.zeta(r)
        assert z ** r == 1
        for m in range(1, 2 * r + 1):
            total = Cyc.zero(r)
            for k in range(r):
                total = total + Cyc.zeta(r, (k * m) % r)
            expected = r if m % r == 0 else 0
            assert total == expected, (r, m)


def test_mul_examples():
    i = Cyc.zeta(4)
    assert i * i == -1
    z3 = Cyc.zeta(3)
    assert z3 * (z3 * z3) == 1
    z = Cyc.zeta(5)
    lhs = (1 + z) * (1 + z ** 4)
    assert lhs == 2 + z + z ** 4  # expand: 1 + z^4 + z + z^5, and z^5 = 1


def test_inverse_examples():
    i = Cyc.zeta(4)
    assert i.inverse() == -i
    z3 = Cyc.zeta(3)
    assert z3.inverse() == z3 ** 2
    two = Cyc.rational(2, 7)
    assert two.inverse() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(5).inverse()


def test_order_mismatch():
    with pytest.raises(ScalarError):
        Cyc.zeta(4) * Cyc.zeta(3)
    # rationals embed into any order
    assert Cyc.rational(3, 4) * Cyc.zeta(3) == 3 * Cyc.zeta(3)


def test_rational_canonical_form():
    c = Cyc.rational(Fraction(6, -4), 5)
    assert c.as_fraction() == Fraction(-3, 2)
    assert c.as_fraction().numerator == -3
    assert c.as_fraction().denominator == 2


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyc_scalars(draw, order):
    from rspin.scalars import field_degree

    coeffs = draw(
        st.lists(small_rationals, min_size=field_degree(order), max_size=field_degree(order))
    )
    return Cyc.from_coeffs(order, coeffs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), order=st.sampled_from([1, 3, 4, 5, 6]))
def test_field_axioms(data, order):
    a = data.draw(cyc_scalars(order))
    b = data.draw(cyc_scalars(order))
    c = data.draw(cyc_scalars(order))
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    if a:
        assert a * a.inverse() == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data(), order=st.integers(1, 30))
def test_inverse_round_trip_matches_sympy(data, order):
    sympy = pytest.importorskip("sympy")
    a = data.draw(cyc_scalars(order))
    assume(a)
    inverse = a.inverse()
    assert a * inverse == 1
    # independent route: the inverse of a(z) modulo Phi_r(z) in sympy
    z = sympy.Symbol("z")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * z ** k
               for k, c in enumerate(a.coeffs))
    expected = sympy.Poly(sympy.invert(poly, sympy.cyclotomic_poly(order, z), z), z)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    coeffs += [Fraction(0)] * (len(inverse.coeffs) - len(coeffs))
    assert inverse.coeffs == tuple(coeffs)


def test_parse_format_roundtrip():
    samples = ["3/2", "z", "z^2", "1 - 2*z^3", "-1/3 + z", "0", "2"]
    for text in samples:
        value = parse_scalar(text, 7)
        again = parse_scalar(format_scalar(value), 7)
        assert value == again, text
    assert parse_scalar("z^3", 3) == 1
    assert format_scalar(parse_scalar("1 - 2*z^3", 7)) == "1 - 2*z^3"
    with pytest.raises(ScalarError):
        parse_scalar("z +", 5)
    with pytest.raises(ScalarError):
        parse_scalar("w", 5)


def test_parse_scalar_powers_and_division():
    z = Cyc.zeta(5)
    assert parse_scalar("z^-1", 5) == z ** 4
    assert parse_scalar("2^-2", 5) == Fraction(1, 4)
    # a parenthesised expression takes an exponent, as in polynomials
    assert parse_scalar("(1 + z)^2", 5) == 1 + 2 * z + z ** 2
    assert parse_scalar("(1 + z)^-1", 5) == (1 + z).inverse()
    for text in ("1/0", "z/(1 - 1)", "0^-1"):
        with pytest.raises(ScalarError, match="division by zero in scalar"):
            parse_scalar(text, 5)
    for text in ("zz", "x", "z'"):
        with pytest.raises(ScalarError):
            parse_scalar(text, 5)


def test_only_ascii_digits_and_names_are_tokens():
    assert parse_scalar("z^2", 3) == Cyc.zeta(3, 2)
    for text in ("z²", "z^²", "1 + ٣", "2*ｚ"):
        with pytest.raises(ScalarError, match="unexpected character"):
            parse_scalar(text, 3)


# -- rational operands against a reference that shares no code with Cyc ------

# Phi_r for r <= 6, ascending, written out by hand
PHI = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 5: [1, 1, 1, 1, 1], 6: [1, -1, 1]}


def ref_degree(order):
    return len(PHI[order]) - 1


def ref_reduce(coeffs, order):
    """Fraction coefficients of a polynomial in zeta, reduced mod Phi_r by long division."""
    coeffs = list(coeffs) + [Fraction(0)] * max(0, len(PHI[order]) - len(coeffs))
    return frac_poly_divide(coeffs, PHI[order])[1]


def ref_product(a, b, order):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_reduce(out, order)


def ref_embed(q, order):
    return [Fraction(q)] + [Fraction(0)] * (ref_degree(order) - 1)


def assert_canonical(c, order, coeffs):
    """c is coeffs in Q(zeta_order), in the fields _make produces."""
    assert c.order == order
    assert len(c.num) == ref_degree(order)
    assert c.den > 0
    assert gcd(c.den, *c.num) == 1
    if not any(c.num):
        assert c.den == 1
    assert [Fraction(n, c.den) for n in c.num] == coeffs
    made = Cyc.from_coeffs(order, coeffs)
    assert (c.den, c.num) == (made.den, made.num)
    assert c == made and hash(c) == hash(made)


ref_orders = st.sampled_from(sorted(PHI))


@st.composite
def ref_operands(draw, rational):
    """(order, Fraction coefficients, Cyc); rational ones are often zero."""
    order = draw(ref_orders)
    deg = ref_degree(order)
    if rational or deg == 1:
        coeffs = ref_embed(draw(st.one_of(st.just(Fraction(0)), small_rationals)), order)
    else:
        coeffs = draw(st.lists(small_rationals, min_size=deg, max_size=deg)
                      .filter(lambda cs: any(cs[1:])))
    return order, coeffs, Cyc.from_coeffs(order, coeffs)


@settings(max_examples=200, deadline=None)
@given(left=st.booleans().flatmap(ref_operands), right=st.booleans().flatmap(ref_operands))
def test_arithmetic_with_rational_operands_matches_reference(left, right):
    (oa, ca, a), (ob, cb, b) = left, right
    a_rational, b_rational = not any(ca[1:]), not any(cb[1:])
    if oa != ob and not (a_rational or b_rational):
        for op in (lambda: a * b, lambda: a + b, lambda: a - b):
            with pytest.raises(ScalarError):
                op()
        return
    # a rational left operand moves to the right one's order, else the right one moves
    order = ob if oa != ob and a_rational else oa
    ca = ca if oa == order else ref_embed(ca[0], order)
    cb = cb if ob == order else ref_embed(cb[0], order)
    assert_canonical(a * b, order, ref_product(ca, cb, order))
    assert_canonical(a + b, order, [x + y for x, y in zip(ca, cb)])
    assert_canonical(a - b, order, [x - y for x, y in zip(ca, cb)])
    assert_canonical(a - a, oa, ref_embed(0, oa))


@settings(max_examples=200, deadline=None)
@given(operand=st.booleans().flatmap(ref_operands),
       q=st.one_of(st.integers(-5, 5), small_rationals))
def test_int_and_fraction_operands_match_reference(operand, q):
    order, coeffs, c = operand
    embedded = ref_embed(q, order)
    for product in (c * q, q * c):
        assert_canonical(product, order, ref_product(coeffs, embedded, order))
    for total in (c + q, q + c):
        assert_canonical(total, order, [x + y for x, y in zip(coeffs, embedded)])
    assert_canonical(c - q, order, [x - y for x, y in zip(coeffs, embedded)])
    assert_canonical(q - c, order, [y - x for x, y in zip(coeffs, embedded)])


@settings(max_examples=100, deadline=None)
@given(operand=st.booleans().flatmap(ref_operands), target=ref_orders)
def test_to_order_matches_reference(operand, target):
    order, coeffs, c = operand
    if target == order:
        assert c.to_order(target) is c
    elif any(coeffs[1:]):
        with pytest.raises(ScalarError):
            c.to_order(target)
    else:
        assert_canonical(c.to_order(target), target, ref_embed(coeffs[0], target))
