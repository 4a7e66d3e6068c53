"""Exact arithmetic over Q and the cyclotomic fields Q(zeta_r).

A scalar of order r is an integer-coefficient polynomial in zeta reduced
modulo the r-th cyclotomic polynomial Phi_r, over a single positive
denominator in lowest terms.  Purely rational values embed into any order,
so arithmetic mixing rationals with a fixed Q(zeta_r) works without a tower
of fields.  A rational operand skips the convolution and the reduction mod
Phi_r: a product with a rational factor scales the other numerator by one
integer, and in Q itself (orders 1 and 2) a sum or product is one integer
operation and one gcd.  No floating point appears anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd


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


@lru_cache(maxsize=None)
def field_degree(r):
    return len(cyclotomic_polynomial(r)) - 1


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
    """An element of Q(zeta_r), canonically reduced modulo Phi_r."""

    __slots__ = ("order", "den", "num")

    def __init__(self, order, den, num):
        # Internal: callers must pass reduced data; use the constructors below.
        self.order = order
        self.den = den
        self.num = num

    @staticmethod
    def _make(order, den, num):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, num = -den, [-c for c in num]
        # gcd(den, 0, ..., 0) = den, so zero comes out as 0/1
        g = gcd(den, *num)
        if g > 1:
            den //= g
            num = [c // g for c in num]
        return Cyc(order, den, tuple(num))

    @staticmethod
    def rational(value, order=1):
        if value.__class__ is int:
            n, den = value, 1
        else:
            value = Fraction(value)
            n, den = value.numerator, value.denominator
        # a Fraction is already in lowest terms with a positive denominator
        return Cyc(order, den, _rational_num(n, order))

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
        den = 1
        for f in fracs:
            den = den * f.denominator // gcd(den, f.denominator)
        ints = [int(f * den) for f in fracs]
        return Cyc._make(order, den, _reduce_mod_phi(ints, order))

    @staticmethod
    def zero(order=1):
        return _ZEROS(order)

    @staticmethod
    def one(order=1):
        return _ONES(order)

    @property
    def coeffs(self):
        """Coefficients as Fractions, length deg(Phi_r)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self):
        if len(self.num) == 1:
            return True
        return not any(self.num[1:])

    def as_fraction(self):
        # For deg-1 fields (r = 1, 2) every reduced representative is constant.
        if not self.is_rational():
            raise ScalarError("not a rational value: %s" % format_scalar(self))
        return Fraction(self.num[0], self.den)

    def to_order(self, order):
        if order == self.order:
            return self
        if self.is_rational():
            return Cyc(order, self.den, _rational_num(self.num[0], order))
        raise ScalarError(
            "order mismatch: cannot move irrational scalar from Q(zeta_%d) to Q(zeta_%d)"
            % (self.order, order)
        )

    @staticmethod
    def _coerce_pair(a, b):
        if not isinstance(b, Cyc):
            b = Cyc.rational(b, a.order)
        if a.order == b.order:
            return a, b
        if a.is_rational():
            return a.to_order(b.order), b
        return a, b.to_order(a.order)

    def __add__(self, other):
        a, b = self, other
        if b.__class__ is not Cyc or a.order != b.order:
            a, b = Cyc._coerce_pair(a, b)
        da, db = a.den, b.den
        if len(a.num) == 1:
            # a degree-1 field (orders 1 and 2) is Q: one integer sum, one gcd
            n = a.num[0] * db + b.num[0] * da
            den = da * db
            g = gcd(n, den)
            return Cyc(a.order, den // g, (n // g,))
        num = [x * db + y * da for x, y in zip(a.num, b.num)]
        return Cyc._make(a.order, da * db, num)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, self.den, tuple(-c for c in self.num))

    def __sub__(self, other):
        a, b = Cyc._coerce_pair(self, other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self, other
        if b.__class__ is not Cyc or a.order != b.order:
            a, b = Cyc._coerce_pair(a, b)
        an, bn = a.num, b.num
        if len(an) == 1:
            # a degree-1 field (orders 1 and 2) is Q: one integer product, one gcd
            n = an[0] * bn[0]
            den = a.den * b.den
            g = gcd(n, den)
            return Cyc(a.order, den // g, (n // g,))
        if not any(an) or not any(bn):
            return _ZEROS(a.order)
        if any(an[1:]):
            if any(bn[1:]):
                conv = [0] * (len(an) + len(bn) - 1)
                for i, x in enumerate(an):
                    if x == 0:
                        continue
                    for j, y in enumerate(bn):
                        if y:
                            conv[i + j] += x * y
                return Cyc._make(a.order, a.den * b.den, _reduce_mod_phi(conv, a.order))
            c, num = bn[0], an
        else:
            c, num = an[0], bn
        # a rational factor scales the other numerator: no convolution and no
        # reduction mod Phi_r; both factors are nonzero, so the product is too
        num = [c * x for x in num]
        den = a.den * b.den
        g = gcd(den, *num)
        return Cyc(a.order, den // g, tuple(x // g for x in num))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_%d)" % self.order)
        if self.is_rational():
            q = self.as_fraction()
            return Cyc.rational(Fraction(q.denominator, q.numerator), self.order)
        # Extended Euclid against Phi_r over Q[x].
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = [Fraction(c, self.den) for c in self.num]
        r0, r1 = phi, list(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        lead = r1[0]
        inv_coeffs = [c / lead for c in s1]
        return Cyc.from_coeffs(self.order, inv_coeffs)

    def __truediv__(self, other):
        a, b = Cyc._coerce_pair(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return Cyc.rational(other, self.order) / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyc.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_fraction() == other
        if not isinstance(other, Cyc):
            return NotImplemented
        if self.order == other.order:
            return self.den == other.den and self.num == other.num
        if self.is_rational() and other.is_rational():
            return self.as_fraction() == other.as_fraction()
        return False

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.order, self.den, self.num))

    def __repr__(self):
        return "Cyc(%d, %s)" % (self.order, format_scalar(self))


def _rational_num(n, order):
    """The reduced numerator of the rational n/den in Q(zeta_order)."""
    return (n,) + (0,) * (field_degree(order) - 1)


@lru_cache(maxsize=None)
def _ZEROS(order):
    return Cyc(order, 1, _rational_num(0, order))


@lru_cache(maxsize=None)
def _ONES(order):
    return Cyc(order, 1, _rational_num(1, order))


def _frac_poly_divmod(a, b):
    a = list(a)
    db = len(b) - 1
    quot = [Fraction(0)] * max(len(a) - db, 1)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k] == 0:
            continue
        c = a[k] / b[-1]
        quot[k - db] = c
        for i, d in enumerate(b):
            a[k - db + i] -= c * d
    return quot, a[:db]


def _frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for j, y in enumerate(b):
        a[j] -= y
    return a


def as_cyc(value, order=1):
    if isinstance(value, Cyc):
        return value
    return Cyc.rational(value, order)


# -- textual expressions: `3/2`, `1 - 2*z^3`, `x^3 + y^3`, `(1 + z)^2` -------
#
# One grammar serves scalars and polynomials; its values come from the caller:
#
#   expr   := [+ | -] term {(+ | -) term}
#   term   := factor {(* | /) factor}
#   factor := - factor | (int | name | "(" expr ")") [^ [-] int]
#
# An integer is ASCII digits; a name is an ASCII letter or _ followed by
# ASCII letters, digits, _, ' and ~; any other non-space character is an
# error (so x² or a non-ASCII digit is refused, not misread).  The
# operators are those of the values, so each value type decides what it
# accepts: a polynomial refuses a negative exponent or a nonconstant divisor.

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
            return -self.parse_factor()
        if kind == "int":
            value = self.constant(self.take()[1])
        elif kind == "name":
            value = self.name(self.take()[1])
        elif kind == "(":
            self.take()
            value = self.parse_expr()
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

    return parse_expression(text, "scalar", ScalarError,
                            lambda n: Cyc.rational(n, order), name)


def _format_fraction(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def format_scalar(c):
    if c.is_rational():
        return _format_fraction(c.as_fraction())
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
