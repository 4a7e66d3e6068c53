from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from rspin.scalars import (
    Cyc,
    ScalarError,
    as_cyc,
    cyclotomic_polynomial,
    format_scalar,
    parse_scalar,
)
from rspin.landau_ginzburg.poly import PolyError, parse_poly


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
            total = Cyc.zero()
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
    assert Cyc.rational(2).inverse() == Fraction(1, 2)
    assert Cyc.rational(Fraction(-2, 3)).inverse() == Fraction(-3, 2)
    for zero in (Cyc.zero(), Cyc.zeta(5) - Cyc.zeta(5)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()


def count_products(monkeypatch):
    """The list that gets one entry per Cyc multiplication from now on."""
    made, mul = [], Cyc.__mul__

    def counted(a, b):
        made.append(None)
        return mul(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    return made


def test_power_makes_the_fewest_products(monkeypatch):
    """x ** k squares bit_length(k) - 1 times and multiplies popcount(k) - 1
    times, never by the shared one, and equals the k-fold product."""
    made = count_products(monkeypatch)
    counts = []
    for k in (1, 2, 3, 4, 8):
        made.clear()
        Cyc.zeta(5) ** k
        counts.append(len(made))
    assert counts == [0, 1, 2, 2, 3]
    for order in (1, 3, 4, 5, 8):
        x = Cyc.from_coeffs(order, [Fraction(-3, 2), 2, Fraction(1, 3)])
        expected = Cyc.one()
        for k in range(21):
            made.clear()
            assert x ** k == expected, (order, k)
            assert len(made) == max(k.bit_length() + bin(k).count("1") - 2, 0), (order, k)
            expected = expected * x
    assert Cyc.zeta(8) ** -3 == Cyc.zeta(8, 5)


def test_order_mismatch():
    with pytest.raises(ScalarError):
        Cyc.zeta(4) * Cyc.zeta(3)
    # a rational combines with any field, also one reached through another field
    assert Cyc.rational(3) * Cyc.zeta(3) == 3 * Cyc.zeta(3)
    assert Cyc.zeta(4) ** 2 * Cyc.zeta(3) == -Cyc.zeta(3)
    assert Cyc.zeta(4) ** 2 + Cyc.zeta(3) == Cyc.zeta(3) - 1


def test_rational_canonical_form():
    c = Cyc.rational(Fraction(6, -4))
    assert (c.order, c.den, c.num) == (1, 2, (-3,))
    assert c.as_fraction() == Fraction(-3, 2)
    assert c.as_fraction().numerator == -3
    assert c.as_fraction().denominator == 2


def test_rational_one_is_the_shared_one():
    # compose and whisker skip multiplying by this object, so every 1 built
    # from an int or a Fraction must be it
    assert as_cyc(1) is Cyc.one()
    assert Cyc.rational(Fraction(2, 2)) is Cyc.one()
    assert Cyc.rational(-1) is not Cyc.one() and Cyc.rational(-1) == -1


@pytest.mark.parametrize("q", [0, 1, -1, -2, 7, 2**61 - 1, 2**61, -(2**61) - 5, 10**30,
                               Fraction(1, 2), Fraction(-1, 3), Fraction(2**61, 3)])
def test_a_rational_value_hashes_as_the_equal_int_or_fraction(q):
    # hash(-1) is -2, and integers at or past the hash modulus wrap
    c = Cyc.rational(q)
    assert c == q and hash(c) == hash(q) == hash(Fraction(q))
    assert {q: "found"}[c] == "found" and c in {Fraction(q)}
    assert hash(c + Cyc.zeta(3) - Cyc.zeta(3)) == hash(q)


def test_computed_one_is_the_shared_one():
    # a sum or product whose value is 1 comes out as the shared one too:
    # Q x Q, Q + Q, and an irrational result that moves to Q through _make
    half = Cyc.rational(Fraction(1, 2))
    assert Cyc.rational(2) * half is Cyc.one()
    assert half + half is Cyc.one()
    assert Cyc.rational(3) - 2 is Cyc.one()
    assert Cyc.zeta(3) ** 3 is Cyc.one()
    assert Cyc.zeta(5) * Cyc.zeta(5, 4) is Cyc.one()
    assert (Cyc.zeta(7) + 1) - Cyc.zeta(7) is Cyc.one()
    assert Cyc.from_coeffs(4, [Fraction(3, 3), 0]) is Cyc.one()


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def degree(order):
    return len(cyclotomic_polynomial(order)) - 1


@st.composite
def cyc_scalars(draw, order):
    coeffs = draw(st.lists(small_rationals, min_size=degree(order), max_size=degree(order)))
    return Cyc.from_coeffs(order, coeffs)


@settings(max_examples=60, deadline=None, derandomize=True)
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


@settings(max_examples=25, deadline=None, derandomize=True)
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


def test_nesting_is_bounded():
    assert parse_scalar("(" * 100 + "z" + ")" * 100, 3) == Cyc.zeta(3)
    assert parse_poly("(" * 100 + "x" + ")" * 100) == parse_poly("x")
    assert parse_scalar("- " * 101 + "1") == -1  # the leading sign is not nested
    for text in ("(" * 101 + "z" + ")" * 101, "-" * 102 + "z", "-" * 50 + "(" * 52 + "z" + ")" * 52):
        with pytest.raises(ScalarError, match="deeper than 100 levels"):
            parse_scalar(text, 3)
    with pytest.raises(PolyError, match="deeper than 100 levels"):
        parse_poly("(" * 3000 + "x" + ")" * 3000)


# ASCII names, operators, parentheses and integers below 100, so that powers stay cheap
_TOKENS = st.one_of(st.sampled_from(["x", "y", "z", "+", "-", "*", "/", "^", "(", ")"]),
                    st.integers(0, 99).map(str))


@st.composite
def token_strings(draw):
    body = " ".join(draw(st.lists(_TOKENS, max_size=25)))
    depth = draw(st.sampled_from([0, 1, 99, 100, 101, 3000]))
    opener = draw(st.sampled_from(["(", "-", "-("]))
    return opener * depth + body + ")" * (opener.count("(") * depth)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=token_strings())
def test_parsers_raise_only_their_own_errors(text):
    for parse, error in ((parse_poly, PolyError), (lambda t: parse_scalar(t, 12), ScalarError)):
        try:
            parse(text)
        except error:
            pass


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
    """c is coeffs in Q(zeta_order) in canonical form: a rational value in Q
    with one numerator, any other value in Q(zeta_order)."""
    rational = not any(coeffs[1:])
    assert c.order == (1 if rational else order)
    assert len(c.num) == (1 if rational else ref_degree(order))
    assert c.den > 0
    assert gcd(c.den, *c.num) == 1
    if not any(c.num):
        assert c.den == 1
    assert [Fraction(n, c.den) for n in c.num] == (coeffs[:1] if rational else coeffs)
    made = Cyc.from_coeffs(order, coeffs)
    assert (c.order, c.den, c.num) == (made.order, made.den, made.num)
    assert c == made and hash(c) == hash(made)
    if rational:
        assert c == coeffs[0] and hash(c) == hash(coeffs[0])


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(left=st.booleans().flatmap(ref_operands), right=st.booleans().flatmap(ref_operands))
def test_arithmetic_with_rational_operands_matches_reference(left, right):
    (oa, ca, a), (ob, cb, b) = left, right
    a_rational, b_rational = not any(ca[1:]), not any(cb[1:])
    if oa != ob and not (a_rational or b_rational):
        for op in (lambda: a * b, lambda: a + b, lambda: a - b):
            with pytest.raises(ScalarError):
                op()
        return
    # the reference computes in the field of the irrational operand, if any
    order = ob if a_rational else oa
    ca = ca if oa == order else ref_embed(ca[0], order)
    cb = cb if ob == order else ref_embed(cb[0], order)
    assert_canonical(a * b, order, ref_product(ca, cb, order))
    assert_canonical(a + b, order, [x + y for x, y in zip(ca, cb)])
    assert_canonical(a - b, order, [x - y for x, y in zip(ca, cb)])
    assert_canonical(a - a, oa, ref_embed(0, oa))


@settings(max_examples=200, deadline=None, derandomize=True)
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


# -- one representation per value ------------------------------------------------

def assert_one_representation(c):
    """A rational value lives in Q; any other value in its own field, with
    deg(Phi_r) numerators not all zero after the first."""
    assert (len(c.num) == 1) == (c.order == 1)
    if c.order != 1:
        assert len(c.num) == degree(c.order) and any(c.num[1:])


@st.composite
def field_operands(draw, order):
    """Roots of unity, whose products and sums often cancel to rationals,
    coefficient lists of any length, Cyc rationals, ints and Fractions."""
    return draw(st.one_of(
        st.integers(0, 2 * order).map(lambda k: Cyc.zeta(order, k)),
        st.lists(small_rationals, max_size=order + 2).map(lambda cs: Cyc.from_coeffs(order, cs)),
        small_rationals.map(Cyc.rational),
        st.integers(-3, 3),
        small_rationals))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), order=st.integers(1, 12))
def test_every_result_has_one_representation(data, order):
    a = as_cyc(data.draw(field_operands(order)))
    b = data.draw(field_operands(order))
    results = [Cyc.zeta(order), Cyc.zeta(order, order), a, a + b, b + a, a - b, b - a,
               a * b, b * a, sum((Cyc.zeta(order, k) for k in range(order)), Cyc.zero())]
    results += [a ** k for k in range(4)]
    if b:
        results += [a / b, as_cyc(b).inverse()]
    if a:
        results += [a.inverse(), a ** -2, as_cyc(b) / a]
    for c in results:
        assert c.__class__ is Cyc
        assert_one_representation(c)
    assert a * a.inverse() == 1 if a else a == 0


def test_equal_values_are_one_object_in_a_set():
    assert len({Cyc.zeta(3) ** 3, Cyc.zeta(4) ** 4, Cyc.one(), 1}) == 1
    assert len({Cyc.zeta(6) ** 3, Cyc.zeta(4) ** 2, -Cyc.one(), Fraction(-1)}) == 1
    assert (Cyc.zeta(5) * Cyc.zeta(5).inverse()).order == 1
    assert (1 + Cyc.zeta(3) + Cyc.zeta(3) ** 2) == 0
    with pytest.raises(ScalarError):
        Cyc.zeta(3) + Cyc.zeta(6)


# -- products by the shared one ------------------------------------------------

@st.composite
def rational_or_zeta5(draw):
    """(order, Fraction coefficients, Cyc) of a rational or a Q(zeta_5) value,
    -(-1), the negated shared one, among them."""
    kind = draw(st.sampled_from(["minus minus one", "rational", "zeta5"]))
    if kind == "minus minus one":
        return 1, [Fraction(1)], -(-Cyc.one())
    if kind == "rational":
        q = draw(st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
                           small_rationals))
        return 1, [q], Cyc.rational(q)
    coeffs = draw(st.lists(small_rationals, min_size=4, max_size=4))
    return 5, coeffs, Cyc.from_coeffs(5, coeffs)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(operand=rational_or_zeta5())
def test_a_product_by_the_shared_one_is_the_other_factor(operand):
    order, coeffs, x = operand
    general = Cyc(1, 1, (1,))  # equal to one but not the shared object: no fast path
    assert general is not Cyc.one()
    expected = ref_product(coeffs, ref_embed(1, order), order)
    for product in (x * general, general * x, x * 1, 1 * x, x * Cyc.one(), Cyc.one() * x):
        assert_canonical(product, order, expected)
        assert product == x * general
    for product in (x * 1, 1 * x, x * Cyc.one(), Cyc.one() * x, x * Fraction(1)):
        assert product is x


def test_minus_minus_one_is_the_shared_one():
    one = Cyc.one()
    assert -(-one) is one
    assert -Cyc.rational(-1) is one and -Cyc.zeta(2) is one
    assert -Cyc.rational(Fraction(-1, 2)) == Fraction(1, 2)
    assert (-(-Cyc.zeta(5))) * (-(-one)) == Cyc.zeta(5)
