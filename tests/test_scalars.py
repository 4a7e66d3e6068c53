from fractions import Fraction

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
