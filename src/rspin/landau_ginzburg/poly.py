"""Multivariate polynomials with exact cyclotomic coefficients.

Variables are kept in a canonical sorted order; operations align variable
sets automatically.  One routine, divide, does multivariate division in
graded-reverse-lexicographic order: Poly.divide_exact divides by one
polynomial where exactness is guaranteed (difference quotients,
twisted-identity entries), and the Groebner module takes normal forms
with it.

Poly(vars, terms) coerces every coefficient and drops the zero ones.  The
arithmetic builds its results through Poly._trusted, which does neither: its
coefficients are sums and products of canonical nonzero values, with every
sum that cancels already removed.
"""

from __future__ import annotations

from operator import add, sub

from ..scalars import Cyc, as_cyc, format_scalar, parse_expression

_ONE = Cyc.one()


class PolyError(ValueError):
    pass


def _merge_vars(a_vars, b_vars):
    if a_vars == b_vars:
        return a_vars
    return tuple(sorted(set(a_vars) | set(b_vars)))


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        self.terms = {}
        for exp, coeff in terms.items():
            coeff = as_cyc(coeff)
            if coeff:
                self.terms[tuple(exp)] = coeff

    @staticmethod
    def _trusted(variables, terms):
        """A Poly over the tuple `variables` that takes `terms` as they are:
        tuple exponents and canonical nonzero coefficients."""
        p = object.__new__(Poly)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(variables=()):
        return Poly._trusted(tuple(variables), {})

    @staticmethod
    def const(value, variables=()):
        variables = tuple(variables)
        return Poly(variables, {(0,) * len(variables): as_cyc(value)})

    @staticmethod
    def variable(name):
        return Poly._trusted((name,), {(1,): Cyc.one()})

    def align(self, variables):
        if variables == self.vars:
            return self
        variables = tuple(variables)
        index = {v: k for k, v in enumerate(variables)}
        for v in self.vars:
            if v not in index:
                raise PolyError("cannot drop variable %r" % v)
        terms = {}
        for exp, coeff in self.terms.items():
            new = [0] * len(variables)
            for v, e in zip(self.vars, exp):
                new[index[v]] = e
            terms[tuple(new)] = coeff
        return Poly._trusted(variables, terms)

    @staticmethod
    def _aligned(a, b):
        if a.vars == b.vars:
            return a, b, a.vars
        variables = _merge_vars(a.vars, b.vars)
        return a.align(variables), b.align(variables), variables

    # -- basic queries ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def constant_term(self):
        zero_exp = (0,) * len(self.vars)
        return self.terms.get(zero_exp, Cyc.zero())

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if other == 0:
                return self.is_zero()
            other = Poly.const(other, self.vars)
        a, b, _ = Poly._aligned(self, other)
        return a.terms == b.terms

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        a, b, variables = Poly._aligned(self, other)
        terms = dict(a.terms)
        for exp, coeff in b.terms.items():
            acc = terms.get(exp)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[exp] = total
            elif acc is not None:
                del terms[exp]
        return Poly._trusted(variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other, self.vars)
        a, b, variables = Poly._aligned(self, other)
        terms = dict(a.terms)
        for exp, coeff in b.terms.items():
            # Cyc.__sub__ adds the negative anyway, so add it here directly
            acc, coeff = terms.get(exp), -coeff
            total = coeff if acc is None else acc + coeff
            if total:
                terms[exp] = total
            elif acc is not None:
                del terms[exp]
        return Poly._trusted(variables, terms)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        a, b, variables = Poly._aligned(self, other)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                exp = tuple(map(add, e1, e2))
                prod = c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2
                acc = terms.get(exp)
                if acc is None:
                    terms[exp] = prod
                else:
                    total = acc + prod
                    if total:
                        terms[exp] = total
                    else:
                        del terms[exp]
        return Poly._trusted(variables, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value):
        if value == 1:
            return self
        value = as_cyc(value)
        if not value:
            return Poly.zero(self.vars)
        return Poly._trusted(self.vars, {e: value * c for e, c in self.terms.items()})

    def __truediv__(self, other):
        """Division by a constant; divide_exact divides by a polynomial."""
        if isinstance(other, Poly):
            if other.degree() > 0:
                raise PolyError("only division by a constant is supported, not by %s"
                                % format_poly(other))
            other = other.constant_term()
        return self.scale(as_cyc(other).inverse())

    def __pow__(self, k):
        if k < 0:
            raise PolyError("negative exponents are not polynomial")
        # Walk the binary prefixes of k, holding power = self^j.  Squaring costs
        # |power|^2 term products; the j products by self that it would replace
        # cost at least j |power| |self|.  So square while power has at most
        # j |self| terms (sparse bases, monomials), and otherwise multiply by self.
        if k == 0:
            return Poly.const(1, self.vars)
        power, j = self, 1
        for shift in range(k.bit_length() - 2, -1, -1):
            if len(power.terms) <= j * len(self.terms):
                power, j = power * power, 2 * j
            while j < k >> shift:
                power, j = power * self, j + 1
        return power

    # -- calculus and substitution ----------------------------------------------

    def derivative(self, name):
        if name not in self.vars:
            return Poly.zero(self.vars)
        i = self.vars.index(name)
        terms = {}
        for exp, coeff in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            terms[tuple(new)] = coeff * exp[i]
        return Poly(self.vars, terms)

    def substitute(self, mapping):
        """Map variables to scalar multiples of variables.

        mapping: name -> (coef, new_name); unlisted variables are kept.
        """
        variables = tuple(sorted({mapping[v][1] if v in mapping else v for v in self.vars}))
        index = {v: k for k, v in enumerate(variables)}
        # coef^0, coef^1, ... of each scaled variable, extended as its
        # exponents are met, so a term costs one product per scaled variable
        powers = {}
        terms = {}
        for exp, coeff in self.terms.items():
            new_exp = [0] * len(variables)
            value = coeff
            for v, e in zip(self.vars, exp):
                if e == 0:
                    continue
                if v in mapping:
                    coef, target = mapping[v]
                    if coef != 1:
                        power = powers.get(v)
                        if power is None:
                            power = powers[v] = [Cyc.one(), as_cyc(coef)]
                        while len(power) <= e:
                            power.append(power[-1] * power[1])
                        value = value * power[e]
                    v = target
                new_exp[index[v]] += e
            key = tuple(new_exp)
            acc = terms.get(key)
            total = value if acc is None else acc + value
            if total:
                terms[key] = total
            elif acc is not None:
                del terms[key]
        return Poly._trusted(variables, terms)

    def rename(self, mapping):
        if not mapping:
            return self
        return self.substitute({old: (1, new) for old, new in mapping.items()})

    # -- division -----------------------------------------------------------------

    def divide_exact(self, divisor):
        """Quotient self/divisor; raises PolyError when the division is inexact."""
        if divisor.is_zero():
            raise PolyError("division by the zero polynomial")
        (quotient,), remainder = divide(self, [divisor])
        if remainder:
            raise PolyError("inexact polynomial division")
        return quotient

    # -- printing -------------------------------------------------------------------

    def __repr__(self):
        return "Poly(%s)" % format_poly(self)


def grevlex_key(exp):
    """Sort key: graded reverse lexicographic (largest last for sorted())."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


def leading_term(p):
    exp = max(p.terms, key=grevlex_key)
    return exp, p.terms[exp]


def divide(p, divisors):
    """Division of p by the list divisors in grevlex order, over the union of
    the variables: (quotients, remainder) with p = sum of q_i d_i + remainder.

    Each step cancels the leading term of what is left of p with the first
    divisor whose leading term divides it, or else moves that term to the
    remainder.  So no term of the remainder is divisible by a leading term,
    and no q_i d_i leads above p.  A zero divisor divides nothing.
    """
    variables = p.vars
    for d in divisors:
        variables = _merge_vars(variables, d.vars)
    steps = []  # (index, leading exponent, 1/leading coefficient or None, -tail)
    for i, d in enumerate(divisors):
        if d.terms:
            d = d.align(variables)
            lead, coeff = leading_term(d)
            inverse = coeff.inverse()
            steps.append((i, lead, None if inverse == 1 else inverse,
                          [(e, -c) for e, c in d.terms.items() if e != lead]))
    # what is left leads lower at every step, so each quotient exponent is new
    quotients, remainder = [{} for _ in divisors], {}
    left = dict(p.align(variables).terms)
    while left:
        top = max(left, key=grevlex_key)
        coeff = left.pop(top)
        for i, lead, inverse, tail in steps:
            exp = tuple(map(sub, top, lead))
            if min(exp, default=0) >= 0:
                break
        else:
            remainder[top] = coeff
            continue
        quotients[i][exp] = coeff = coeff if inverse is None else coeff * inverse
        for e, c in tail:  # the leading term cancels the popped one
            key = tuple(map(add, exp, e))
            acc, prod = left.pop(key, None), coeff * c
            total = prod if acc is None else acc + prod
            if total:  # a product of nonzeros never cancels; a sum may
                left[key] = total
    return [Poly._trusted(variables, q) for q in quotients], Poly._trusted(variables, remainder)


def format_monomial(variables, exp):
    """x^2*y for the exponent (2, 1) over (x, y); the empty string for 1."""
    return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip(variables, exp) if e)


def format_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for exp in sorted(p.terms, key=grevlex_key, reverse=True):
        mono = format_monomial(p.vars, exp)
        c = format_scalar(p.terms[exp])
        if mono:
            if c == "1":
                body = mono
            elif c == "-1":
                body = "-" + mono
            else:
                cs = c if ("+" not in c and "-" not in c.lstrip("-")) else "(%s)" % c
                body = "%s*%s" % (cs, mono)
        else:
            body = c if ("+" not in c) else "(%s)" % c
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append("- " + body[1:])
        else:
            parts.append("+ " + body)
    return " ".join(parts)


# -- parsing: `x^3 + y^3`, `2*x^2*y - 1/3`; every name is a variable ----------

def parse_poly(text):
    """Parse a polynomial with rational coefficients; its variables are sorted."""
    return parse_expression(text, "polynomial", PolyError,
                            lambda n: Poly.const(Cyc.rational(n)), Poly.variable)
