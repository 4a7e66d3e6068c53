"""Buchberger's algorithm and Jacobi algebras of isolated singularities.

Reduced Groebner bases in graded-reverse-lexicographic order, with the
coprime-leading-term criterion; deterministic given the canonical variable
order.  JacobiAlgebra carries the staircase monomial basis and reduces
polynomials to normal form.
"""

from __future__ import annotations

import itertools

from ..scalars import Cyc
from .poly import Poly, grevlex_key, leading_term


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


def normal_form(p, basis):
    """Multivariate division remainder of p against the list of polynomials."""
    if not basis:
        return p
    variables = basis[0].vars
    p = p.align(variables)
    leads = [leading_term(g) for g in basis]
    remainder = Poly.zero(variables)
    while p.terms:
        exp, coeff = leading_term(p)
        for (lexp, lcoeff), g in zip(leads, basis):
            if _divides(lexp, exp):
                factor = Poly(variables,
                              {tuple(a - b for a, b in zip(exp, lexp)): coeff / lcoeff})
                p = p - factor * g
                break
        else:
            mono = Poly(variables, {exp: coeff})
            remainder = remainder + mono
            p = p - mono
    return remainder


def _s_poly(f, g):
    (ef, cf) = leading_term(f)
    (eg, cg) = leading_term(g)
    lcm = _lcm_exp(ef, eg)
    mf = Poly(f.vars, {tuple(a - b for a, b in zip(lcm, ef)): Cyc.one() / cf})
    mg = Poly(g.vars, {tuple(a - b for a, b in zip(lcm, eg)): Cyc.one() / cg})
    return mf * f - mg * g


def groebner(generators):
    """Reduced monic Groebner basis in grevlex order (Buchberger)."""
    variables = ()
    for g in generators:
        variables = tuple(sorted(set(variables) | set(g.vars)))
    basis = []
    for g in generators:
        g = g.align(variables)
        if g.terms:
            _, lc = leading_term(g)
            basis.append(g.scale(lc.inverse()))
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        # deterministic selection: smallest lcm degree first
        pairs.sort(key=lambda ij: sum(_lcm_exp(leading_term(basis[ij[0]])[0],
                                                leading_term(basis[ij[1]])[0])),
                   reverse=True)
        i, j = pairs.pop()
        ei = leading_term(basis[i])[0]
        ej = leading_term(basis[j])[0]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # first Buchberger criterion: coprime leading terms
        s = normal_form(_s_poly(basis[i], basis[j]), basis)
        if s.terms:
            _, lc = leading_term(s)
            basis.append(s.scale(lc.inverse()))
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    return _reduce_basis(basis)


def _reduce_basis(basis):
    # drop redundant leading terms, then tail-reduce; sort for determinism
    basis = list(basis)
    kept = []
    for i, g in enumerate(basis):
        ei = leading_term(g)[0]
        others = [leading_term(h)[0] for j, h in enumerate(basis) if j != i]
        if any(_divides(e, ei) for e in others if e != ei) or \
                any(e == ei for e in (leading_term(h)[0] for h in kept)):
            continue
        kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        rest = kept[:i] + kept[i + 1:]
        r = normal_form(g, rest) if rest else g
        if r.terms:
            _, lc = leading_term(r)
            reduced.append(r.scale(lc.inverse()))
    reduced.sort(key=lambda g: grevlex_key(leading_term(g)[0]))
    return reduced


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
