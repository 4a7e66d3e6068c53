"""Reference operators that the tests check the library against; the library
itself never calls them."""

from rspin.landau_ginzburg.mf import difference_quotient, prime
from rspin.superlinalg import compose, identity


def power(f, k):
    """f^k for an endomorphism f: k composes onto the identity."""
    result = identity(f.source)
    for _ in range(k):
        result = compose(f, result)
    return result


def surface_by_compose(alg, surface):
    """evaluate_surface as the map eps o K_{a_g,b_g} o ... o K_{a_1,b_1} o eta,
    composed one handle operator at a time and read off as its 1x1 scalar."""
    current = alg.eta
    for k, (a, b) in enumerate(surface.handles):
        current = compose(alg.handle_operator(1 - 2 * k, a, b), current)
    return compose(alg.eps, current).scalar


def three_variable_composite(model, g, lab1, h, lab2):
    """SectorModel.composite over a middle variable y: the left row renamed
    to (x', y), the right cocycle to (y, x) and q0 to (x', y, x), multiplied
    there, and only then y -> roots[g] x' substituted."""
    y = model.var + "~"
    q0 = difference_quotient(model.u[0], model.prime).rename({prime(model.prime): y})
    P, Q = [e.rename({model.var: y}) for e in model.cocycles[(g, lab1)][0]]
    (P2, Q2), (S2, T2) = [[e.rename({model.prime: y}) for e in row]
                          for row in model.cocycles[(h, lab2)]]
    composite = [[P * P2 - Q * Q2 * q0, P * Q2 + Q * P2],
                 [P * S2 + Q * T2 * q0, P * T2 - Q * S2]]
    sub = {y: (model.roots[g], model.prime)}
    return [[e.substitute(sub) for e in row] for row in composite]
