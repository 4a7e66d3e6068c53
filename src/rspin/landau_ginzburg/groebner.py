"""Buchberger's algorithm and Jacobi algebras of isolated singularities.

Reduced Groebner bases in graded-reverse-lexicographic order, with the
coprime-leading-term criterion; deterministic given the canonical variable
order.  Every reduction, of an S-polynomial, of a basis element on the
others or to a normal form, is poly.divide.  JacobiAlgebra carries the
staircase monomial basis and reduces polynomials to normal form.
"""

from __future__ import annotations

import itertools
from operator import add

from .poly import Poly, divide, grevlex_key, leading_term


class GroebnerError(ValueError):
    pass


class InfiniteQuotientError(GroebnerError):
    def __init__(self, variable):
        self.variable = variable
        super().__init__(
            "quotient is infinite-dimensional: no pure power of %r "
            "appears among the leading terms" % variable)


def _lcm_exp(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _shift(g, lcm, lead):
    """g times the monomial lcm / lead."""
    shift = tuple(a - b for a, b in zip(lcm, lead))
    return Poly._trusted(g.vars, {tuple(map(add, e, shift)): c for e, c in g.terms.items()})


def normal_form(p, basis):
    """Multivariate division remainder of p against the list of polynomials."""
    return divide(p, basis)[1]


def groebner(generators):
    """Reduced monic Groebner basis in grevlex order (Buchberger)."""
    variables = tuple(sorted(set().union(*(g.vars for g in generators))))
    basis, leads = [], []  # the monic basis and its leading exponents

    def push(g):
        lead, coeff = leading_term(g)
        basis.append(g.scale(coeff.inverse()))
        leads.append(lead)

    for g in generators:
        if g.terms:
            push(g.align(variables))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        # deterministic selection: smallest lcm degree first
        pairs.sort(key=lambda ij: sum(_lcm_exp(leads[ij[0]], leads[ij[1]])), reverse=True)
        i, j = pairs.pop()
        ei, ej = leads[i], leads[j]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # first Buchberger criterion: coprime leading terms
        lcm = _lcm_exp(ei, ej)
        s = divide(_shift(basis[i], lcm, ei) - _shift(basis[j], lcm, ej), basis)[1]
        if s.terms:
            push(s)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    # keep the minimal leading terms, the first of equal ones; reduce each kept
    # element on the others, which keeps its monic leading term; sort
    kept = [k for k, e in enumerate(leads)
            if not any(_divides(f, e) and (f != e or j < k) for j, f in enumerate(leads))]
    reduced = [divide(basis[k], [basis[j] for j in kept if j != k])[1] for k in kept]
    return sorted(reduced, key=lambda g: grevlex_key(leading_term(g)[0]))


def staircase(basis, variables):
    """Monomials below the leading-term staircase; raises if infinite."""
    leads = [leading_term(g)[0] for g in basis] if basis else []
    bounds = []
    for k, v in enumerate(variables):
        pure = [e[k] for e in leads if all(x == 0 for i, x in enumerate(e) if i != k)]
        if not pure:
            raise InfiniteQuotientError(v)
        bounds.append(min(pure))
    monomials = []
    for exp in itertools.product(*[range(b) for b in bounds]):
        if not any(_divides(lead, exp) for lead in leads):
            monomials.append(exp)
    monomials.sort(key=grevlex_key)
    return monomials


class JacobiAlgebra:
    """k[x1..xn]/(dW/dx1, ..., dW/dxn) with its staircase monomial basis."""

    def __init__(self, potential):
        self.vars = potential.vars
        gens = [potential.derivative(v) for v in self.vars]
        self.groebner_basis = groebner(gens)
        self.monomial_basis = staircase(self.groebner_basis, self.vars)
        self.dimension = len(self.monomial_basis)

    def normal_form(self, p):
        return normal_form(p.align(self.vars), self.groebner_basis)


def jacobi(potential):
    """Jacobi algebra of a potential; rejects non-isolated singularities."""
    return JacobiAlgebra(potential)
