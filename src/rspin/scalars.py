"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_r).

A scalar of order r is an integer-coefficient polynomial in zeta reduced
modulo the r-th cyclotomic polynomial Phi_r, over a single positive
denominator in lowest terms.  Every value has one representation: a
rational value always lives in Q (order 1, one numerator), and a result
whose zeta coefficients cancel, such as zeta * zeta^-1 or 1 + zeta + zeta^2,
moves there.  So arithmetic needs no coercion between fields, and an
operator picks its path from the operands' lengths: in Q a sum or product is
one integer operation and one gcd; a rational operand scales the other's
numerators or shifts its constant coefficient, with no convolution and no
reduction mod Phi_r; two irrational operands must share their order.  No
floating point appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class ScalarError(ValueError):
    pass


def divisors(r):
    """Positive divisors of r, ascending."""
    return [d for d in range(1, r + 1) if r % d == 0]


def _int_poly_div_exact(num, den):
    """Divide integer coefficient lists (ascending), den monic; remainder must vanish."""
    num = list(num)
    dn = len(den) - 1
    if den[-1] != 1:
        raise ScalarError("divisor must be monic")
    quot = [0] * (len(num) - dn)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c == 0:
            continue
        quot[k - dn] = c
        for i, d in enumerate(den):
            num[k - dn + i] -= c * d
    if any(num[:dn]):
        raise ScalarError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r):
    """Coefficients of Phi_r, ascending, monic, exact integers.

    Computed by dividing x^r - 1 by Phi_d for every proper divisor d of r.
    """
    if r < 1:
        raise ScalarError("order must be a positive integer")
    poly = [0] * (r + 1)
    poly[0], poly[r] = -1, 1
    for d in divisors(r)[:-1]:
        poly = _int_poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_mod_phi(coeffs, r):
    """Reduce an ascending integer coefficient list modulo Phi_r (monic)."""
    phi = cyclotomic_polynomial(r)
    deg = len(phi) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        coeffs[k] = 0
        for i in range(deg):
            coeffs[k - deg + i] -= c * phi[i]
    del coeffs[deg:]
    while len(coeffs) < deg:
        coeffs.append(0)
    return coeffs


class Cyc:
    """An element of Q(zeta_r) in canonical form.

    A rational value has order 1 and one numerator; any other value has the
    order r >= 3 of its field and deg(Phi_r) numerators, not all of them
    after the first zero.  Equal values therefore have equal fields.
    """

    __slots__ = ("order", "den", "num")

    def __init__(self, order, den, num):
        # Internal: callers must pass canonical data; use the constructors below.
        self.order = order
        self.den = den
        self.num = num

    @staticmethod
    def _make(order, den, num):
        """num / den, with num reduced mod Phi_order, in canonical form."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, num = -den, [-c for c in num]
        if not any(num[1:]):
            return _in_q(num[0], den)
        g = gcd(den, *num)
        if g > 1:
            den //= g
            num = [c // g for c in num]
        return Cyc(order, den, tuple(num))

    @staticmethod
    def rational(value):
        if value.__class__ is int:
            n, den = value, 1
        else:
            value = Fraction(value)
            n, den = value.numerator, value.denominator
        return _in_q(n, den)

    @staticmethod
    def zeta(order, power=1):
        power %= order
        coeffs = [0] * (power + 1)
        coeffs[power] = 1
        return Cyc._make(order, 1, _reduce_mod_phi(coeffs, order))

    @staticmethod
    def from_coeffs(order, coeffs):
        """Build from a list of rational coefficients in zeta (any length)."""
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        ints = [int(f * den) for f in fracs]
        return Cyc._make(order, den, _reduce_mod_phi(ints, order))

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @property
    def coeffs(self):
        """Coefficients in zeta as Fractions: one for a rational value."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        return len(self.num) == 1

    def as_fraction(self):
        if len(self.num) > 1:
            raise ScalarError("not a rational value: %s" % format_scalar(self))
        return Fraction(self.num[0], self.den)

    def __add__(self, other):
        a, b = self, other
        if b.__class__ is not Cyc:
            b = Cyc.rational(b)
        if len(a.num) == 1:
            a, b = b, a  # an irrational summand comes first
        da, db = a.den, b.den
        if len(b.num) > 1:
            num = [x * db + y * da for x, y in zip(a.num, b.num)]
            return Cyc._make(_common_order(a, b), da * db, num)
        if len(a.num) == 1:
            # Q + Q: one integer sum, one gcd
            return _in_q(a.num[0] * db + b.num[0] * da, da * db)
        # a rational summand shifts the constant coefficient
        num = [x * db for x in a.num]
        num[0] += b.num[0] * da
        return Cyc._make(a.order, da * db, num)

    __radd__ = __add__

    def __neg__(self):
        # -(-1) is the shared one, so products by it take the fast path
        if self.num == (-1,) and self.den == 1:
            return _ONE
        return Cyc(self.order, self.den, tuple(-c for c in self.num))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self, other
        if b.__class__ is not Cyc:
            b = Cyc.rational(b)
        # a product by the shared one is the other factor itself
        if b is _ONE:
            return a
        if a is _ONE:
            return b
        if len(a.num) == 1:
            a, b = b, a  # an irrational factor comes first
        an, bn, den = a.num, b.num, a.den * b.den
        if len(bn) > 1:
            return Cyc._make(_common_order(a, b), den,
                             _reduce_mod_phi(_int_poly_mul(an, bn), a.order))
        c = bn[0]
        if len(an) == 1:
            # Q x Q: one integer product, one gcd
            return _in_q(an[0] * c, den)
        # a rational factor scales the numerators: no convolution and no
        # reduction mod Phi_r; a nonzero one leaves the product irrational
        if not c:
            return _ZERO
        num = [c * x for x in an]
        g = gcd(den, *num)
        return Cyc(a.order, den // g, tuple(x // g for x in num))

    __rmul__ = __mul__

    def inverse(self):
        if len(self.num) == 1:
            n, d = self.num[0], self.den
            if not n:
                raise ZeroDivisionError("inverse of zero")
            if n < 0:
                n, d = -n, -d
            # n/d is in lowest terms, so d/n is too; 1/1 stays the shared one
            return _ONE if d == n else Cyc(1, n, (d,))
        # Galois norm: with c the product of the conjugates sigma_k(a), zeta -> zeta^k
        # for the units k != 1 mod r, N = a c is rational and a^-1 = c / N.  On
        # numerators, a = num / den gives a^-1 = den * c_num / N_num.
        r = self.order
        conj = [1]
        for k in range(2, r):
            if gcd(k, r) == 1:
                sigma = [0] * r
                for i, x in enumerate(self.num):
                    sigma[i * k % r] += x
                conj = _reduce_mod_phi(_int_poly_mul(conj, sigma), r)
        norm = _reduce_mod_phi(_int_poly_mul(self.num, conj), r)[0]
        return Cyc._make(r, norm, [self.den * x for x in conj])

    def __truediv__(self, other):
        if other.__class__ is not Cyc:
            other = Cyc.rational(other)
        return self * other.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return _ONE
        # square-and-multiply from the base: bit_length(k) - 1 squarings and
        # popcount(k) - 1 products, none with the shared one
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def __eq__(self, other):
        # a Cyc first: isinstance against Fraction, an ABC, is slow
        if other.__class__ is Cyc:
            return self.num == other.num and self.den == other.den and self.order == other.order
        if isinstance(other, (int, Fraction)):
            return (len(self.num) == 1 and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the equal int or Fraction; hash(n) is
        # hash(Fraction(n, 1)), so an integer builds no Fraction
        if len(self.num) == 1:
            if self.den == 1:
                return hash(self.num[0])
            return hash(Fraction(self.num[0], self.den))
        return hash((self.order, self.den, self.num))

    def __repr__(self):
        return "Cyc(%d, %s)" % (self.order, format_scalar(self))


_ZERO = Cyc(1, 1, (0,))
_ONE = Cyc(1, 1, (1,))


def _in_q(n, den):
    """n / den in Q for den > 0, in lowest terms; a value of 1 is the shared one,
    by which a product is the other factor itself, and which compose and whisker
    skip multiplying by."""
    if n == den:
        return _ONE
    g = gcd(n, den)  # gcd(0, den) = den, so zero comes out as 0/1
    return Cyc(1, den // g, (n // g,))


def _common_order(a, b):
    """The order of two irrational values, which must share their field."""
    if a.order != b.order:
        raise ScalarError("order mismatch: cannot combine Q(zeta_%d) with Q(zeta_%d)"
                          % (a.order, b.order))
    return a.order


def _int_poly_mul(a, b):
    """Product of integer coefficient lists (ascending)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def as_cyc(value):
    if isinstance(value, Cyc):
        return value
    return Cyc.rational(value)


# -- textual expressions: `3/2`, `1 - 2*z^3`, `x^3 + y^3`, `(1 + z)^2` -------
#
# One grammar serves scalars and polynomials; its values come from the caller:
#
#   expr   := [+ | -] term {(+ | -) term}
#   term   := factor {(* | /) factor}
#   factor := - factor | (int | name | "(" expr ")") [^ [-] int]
#
# Parentheses and unary minus together nest at most MAX_NESTING levels deep;
# past that the caller's error is raised, not a RecursionError.
#
# An integer is ASCII digits; a name is an ASCII letter or _ followed by
# ASCII letters, digits, _, ' and ~; any other non-space character is an
# error (so x² or a non-ASCII digit is refused, not misread).  The
# operators are those of the values, so each value type decides what it
# accepts: a polynomial refuses a negative exponent or a nonconstant divisor.

MAX_NESTING = 100

_TOKEN = re.compile(r"\s+|([0-9]+)|([A-Za-z_][A-Za-z0-9_'~]*)|([-+*/^()])")


def _tokenize(text, noun, error):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise error("unexpected character %r in %s %r" % (text[pos], noun, text))
        digits, name, op = match.groups()
        if digits:
            tokens.append(("int", int(digits)))
        elif name:
            tokens.append(("name", name))
        elif op:
            tokens.append((op, op))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text, noun, error, constant, name):
        self.tokens = _tokenize(text, noun, error)
        self.pos = 0
        self.depth = 0
        self.noun = noun
        self.error = error
        self.constant = constant
        self.name = name

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind=None):
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of %s" % self.noun)
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise self.error("expected %r, found %r" % (kind, tok[0]))
        self.pos += 1
        return tok

    def parse_expr(self):
        if self.peek() == "-":
            self.take()
            value = -self.parse_term()
        else:
            if self.peek() == "+":
                self.take()
            value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.parse_factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def parse_factor(self):
        kind = self.peek()
        if kind == "-":
            self.take()
            return -self.nested(self.parse_factor)
        if kind == "int":
            value = self.constant(self.take()[1])
        elif kind == "name":
            value = self.name(self.take()[1])
        elif kind == "(":
            self.take()
            value = self.nested(self.parse_expr)
            self.take(")")
        else:
            raise self.error("cannot parse %s near token %r" % (self.noun, kind))
        if self.peek() == "^":
            self.take()
            negative = self.peek() == "-"
            if negative:
                self.take()
            n = self.take("int")[1]
            value = value ** (-n if negative else n)
        return value

    def nested(self, parse):
        """parse() one level deeper, refused past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            raise self.error("%s nests parentheses and unary minus deeper than %d levels"
                             % (self.noun, MAX_NESTING))
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value


def parse_expression(text, noun, error, constant, name):
    """Parse the expression grammar above into the caller's values.

    constant(n) is the value of the integer n and name(s) the value of the
    name s; noun names the kind of expression in messages.  Syntax errors
    and division by zero raise error.
    """
    parser = _Parser(text, noun, error, constant, name)
    try:
        value = parser.parse_expr()
    except ZeroDivisionError as exc:
        raise error("division by zero in %s %r" % (noun, text)) from exc
    if parser.pos != len(parser.tokens):
        raise error("trailing tokens in %s %r" % (noun, text))
    return value


def parse_scalar(text, order=1):
    """Parse the textual scalar syntax; `z` is zeta_r for the given order."""

    def name(s):
        if s != "z":
            raise ScalarError("unknown name %r in scalar %r; only z (zeta_r) is allowed"
                              % (s, text))
        return Cyc.zeta(order)

    return parse_expression(text, "scalar", ScalarError, Cyc.rational, name)


def _format_fraction(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def format_scalar(c):
    parts = []
    for k, q in enumerate(c.coeffs):
        if q == 0:
            continue
        if k == 0:
            body = _format_fraction(abs(q))
        else:
            z = "z" if k == 1 else "z^%d" % k
            body = z if abs(q) == 1 else "%s*%s" % (_format_fraction(abs(q)), z)
        if not parts:
            parts.append(body if q > 0 else "-" + body)
        else:
            parts.append(("+ " if q > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"
