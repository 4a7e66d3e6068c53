"""Reference operators, and inputs, that the tests check the library against;
the library itself never calls them."""

import itertools

from rspin.constructors import FrobeniusAlgebraData, nakayama_gamma, structure_maps
from rspin.lambda_frobenius import LambdaFrobenius, _Relations
from rspin.landau_ginzburg.mf import (
    GroupAction,
    HomCohomology,
    MFError,
    check_closed,
    difference_quotient,
    mf_tensor,
    prime,
    twisted_identity,
)
from rspin.landau_ginzburg.poly import Poly
from rspin.scalars import Cyc
from rspin.superlinalg import (
    SparseEchelon,
    SuperLinAlgError,
    SuperSpace,
    braiding,
    compose,
    identity,
    tensor,
)


def scalar(f):
    """The one entry of a 1x1 map."""
    if f.source.dim != 1 or f.target.dim != 1:
        raise SuperLinAlgError("not a 1x1 map")
    return f.entries[0].get(0, Cyc.zero())


def power(f, k):
    """f^k for an endomorphism f: k composes onto the identity."""
    result = identity(f.source)
    for _ in range(k):
        result = compose(f, result)
    return result


def structures(r, genus):
    """Every r-spin structure (tuple of holonomy pairs) on the genus-g surface."""
    return [tuple(zip(hol[::2], hol[1::2]))
            for hol in itertools.product(range(r), repeat=2 * genus)]


def rescaled(alg, scale):
    """The copy of alg transported along x -> scale(a) x on every C_a."""
    mu = {(a, b): m.scale(scale(a + b - 1) / (scale(a) * scale(b)))
          for (a, b), m in alg.mu.items()}
    delta = {(a, b): d.scale(scale(a) * scale(b) / scale(a + b + 1))
             for (a, b), d in alg.delta.items()}
    return LambdaFrobenius(alg.r, alg.spaces, mu, delta,
                           alg.eta.scale(scale(1)), alg.eps.scale(1 / scale(-1)))


def constant_algebra(algebra, r):
    """Every C_a = A for the Frobenius algebra A, and every mu_{a,b} and Delta_{a,b}
    A's own."""
    pairs = [(a, b) for a in range(r) for b in range(r)]
    return LambdaFrobenius(r=r, spaces={a: algebra.space(0) for a in range(r)},
                           mu={p: algebra.mu_map(0, 0) for p in pairs},
                           delta={p: algebra.delta_map(0, 0) for p in pairs},
                           eta=algebra.eta, eps=algebra.eps)


def surface_by_compose(alg, surface):
    """evaluate_surface as the map eps o K_{a_g,b_g} o ... o K_{a_1,b_1} o eta,
    composed one handle operator at a time and read off as its 1x1 scalar."""
    current = alg.eta
    for k, (a, b) in enumerate(surface.handles):
        current = compose(alg.handle_operator(1 - 2 * k, a, b), current)
    return scalar(compose(alg.eps, current))


class IdentityWalk(_Relations):
    """_Relations whose sides apply every step, the first one too, to the identity
    on all basis tuples of the source, looking each tuple up in the step's table;
    nothing is kept from one side to the next."""

    def side(self, source, steps):
        zero = Cyc.zero()
        out = {x + x: Cyc.one() for x in itertools.product(
            *[range(self.alg.space(a).dim) for a in source])}
        for k, p in steps:
            table, width = self.tables[k]
            p += len(source)
            state, out = out, {}
            for basis, c in state.items():
                head, tail = basis[:p], basis[p + width:]
                for t, v in table.get(basis[p:p + width], ()):
                    t = head + t + tail
                    out[t] = out.get(t, zero) + c * v
        return {t: v for t, v in out.items() if v}


# the families of frobenius_report, in its order; validate checks these first
UNTWISTED_FAMILIES = ("associativity", "coassociativity", "unitality", "counitality",
                      "frobenius")


def per_tuple_entries(alg):
    """validate's entries as (family, indices, passed), every relation decided at
    every index tuple below r with the literal powers N_a^(k mod r), each side
    formed by the identity walk: the loop that validate ran before it checked
    index classes and read the first step from the stored nonzeros."""
    r = alg.r
    rel = IdentityWalk(alg)
    mu, delta, eta, eps, classes = rel.mu, rel.delta, rel.eta, rel.eps, set(rel.space)
    out = []

    def check(family, indices, source, lhs, rhs):
        out.append((family, indices, rel.verdict(source, lhs, rhs)))

    for a, b, c in itertools.product(range(r), repeat=3):
        ab, bc = (a + b - 1) % r, (b + c - 1) % r
        check("associativity", (a, b, c), (a, b, c),
              ((mu[a, b], 0), (mu[ab, c], 0)), ((mu[b, c], 1), (mu[a, bc], 0)))
        ab, bc = (a + b + 1) % r, (b + c + 1) % r
        check("coassociativity", (a, b, c), ((ab + c + 1) % r,),
              ((delta[ab, c], 0), (delta[a, b], 0)), ((delta[a, bc], 0), (delta[b, c], 1)))
    for a in range(r):
        check("unitality", (a, "left"), (a,), ((eta, 0), (mu[1 % r, a], 0)), ())
        check("unitality", (a, "right"), (a,), ((eta, 1), (mu[a, 1 % r], 0)), ())
        check("counitality", (a, "left"), (a,), ((delta[r - 1, a], 0), (eps, 0)), ())
        check("counitality", (a, "right"), (a,), ((delta[a, r - 1], 0), (eps, 1)), ())
    for a, b, c in itertools.product(range(r), repeat=3):
        d, e, f = (a + b - c - 2) % r, (a - c - 1) % r, (c - a + 1) % r
        middle = ((mu[a, b], 0), (delta[c, d], 0))
        check("frobenius", (a, b, c, "left"), (a, b),
              ((delta[c, e], 0), (mu[e, b], 1)), middle)
        check("frobenius", (a, b, c, "right"), (a, b),
              ((delta[f, d], 1), (mu[a, f], 0)), middle)
    braid = {(a, b): rel.handle(braiding(alg.space(a), alg.space(b)))
             for a in classes for b in classes}

    powers = {}

    def nak(a, k):
        # N_a^(k mod r) composed onto the identity, not read mod the period
        key = (a % r, k % r)
        if key not in powers:
            powers[key] = rel.handle(power(alg.nakayama(a), k % r))
        return powers[key]

    for a, b in itertools.product(range(r), repeat=2):
        braided = ((braid[rel.space[b], rel.space[a]], 0), (mu[a, b], 0))
        check("commutativity", (a, b, "left"), (b, a),
              ((nak(b, 1 - a), 0), (mu[b, a], 0)), braided)
        check("commutativity", (a, b, "right"), (b, a),
              ((nak(a, b - 1), 1), (mu[b, a], 0)), braided)
    for a in range(r):
        check("twist_power", (a,), (a,), ((nak(a, a), 0),), ())

    def zigzag(a, b):
        return ((eta, 0), (delta[a, -a % r], 0), (nak(a, b), 0), (mu[a, -a % r], 0))

    for a, b in itertools.product(range(r), repeat=2):
        check("twist_pairing", (a, b), (), zigzag(a, b), zigzag((a + b - 1) % r, b))
    for a in range(r):
        check("deck", (a,), (a,), ((nak(a, r - 1), 0), (rel.handle(alg.nakayama(a)), 0)), ())
    return out


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


def _matmul(a, b):
    """a . b for matrices of Poly (or scalar) entries, every product formed."""
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Poly.zero())
             for j in range(len(b[0]))] for i in range(len(a))]


# the slots (left state, right state) of a tensor of two rank-(1|1)
# factorizations, in mf_tensor's order: evens first, each in pair order
TENSOR_SLOTS = sorted(itertools.product(range(2), repeat=2), key=lambda s: sum(s) % 2)


def sector_composition(model, g, h):
    """The literal data behind SectorModel.composite(g, ., h, .): the tensor
    I_g(x'|x'') o I_h(x|x') that mf_tensor builds (its middle x' renamed to
    a fresh y), the inclusion iota: I_0(x|x'') -> I_0 o I_0 as a 4x2 matrix,
    the retraction pi: I_g o I_h -> I_{g+h} as a 2x4 matrix, and the
    substitution y -> root_g x'' that makes pi semilinear.  Returns
    (tensor, iota, pi, substitution)."""
    x, x1 = model.var, model.prime
    x2 = prime(x1)
    w = Poly.variable(x) ** model.d
    right = twisted_identity(w, GroupAction(model.r, ((x, model.weight),)), h)
    left = twisted_identity(w.rename({x: x1}), GroupAction(model.r, ((x1, model.weight),)), g)
    tensor = mf_tensor(left, right)
    (y,) = tensor.middle_vars
    # q = (u_0(x, y) - u_0(x, x'')) / (y - x''), u_0(a, b) = (b^d - a^d) / (b - a)
    X, Y, X2 = Poly.variable(x), Poly.variable(y), Poly.variable(x2)
    u_y = (Y ** model.d - w).divide_exact(Y - X)
    u_x2 = (X2 ** model.d - w).divide_exact(X2 - X)
    q = (u_y - u_x2).divide_exact(Y - X2)
    one, zero = Poly.const(1), Poly.zero()
    slot = {s: k for k, s in enumerate(TENSOR_SLOTS)}
    iota = [[zero, zero] for _ in TENSOR_SLOTS]
    iota[slot[(0, 0)]][0], iota[slot[(1, 1)]][0] = one, q
    iota[slot[(1, 0)]][1] = iota[slot[(0, 1)]][1] = one
    pi = [[one if s == (0, p) else zero for s in TENSOR_SLOTS] for p in range(2)]
    root = GroupAction(model.r, ((x, model.weight),)).root(x, -g)
    return tensor, iota, pi, {y: (root, x2)}


def literal_composite(model, g, lab1, h, lab2):
    """SectorModel.composite as pi o (L (x) R) o iota over (x | y | x''):
    the left cocycle moved to (y, x''), the right one to (x, y), their tensor
    placed entry by entry with the Koszul sign (-1)^{|R| q} on the left state
    q, then y -> root_g x'' and x'' renamed back to x'."""
    x, x1 = model.var, model.prime
    x2 = prime(x1)
    tensor, iota, pi, substitution = sector_composition(model, g, h)
    (y,) = tensor.middle_vars
    left = [[e.rename({x: y, x1: x2}) for e in row] for row in model.cocycles[(g, lab1)]]
    right = [[e.rename({x1: y}) for e in row] for row in model.cocycles[(h, lab2)]]
    odd = model.parity(lab2)
    both = [[(-1 if odd and q else 1) * left[q2][q] * right[p2][p]
             for (q, p) in TENSOR_SLOTS] for (q2, p2) in TENSOR_SLOTS]
    raw = _matmul(_matmul(pi, both), iota)
    return [[e.substitute(substitution).rename({x2: x1}) for e in row] for row in raw]


def check_every_product_closed(model):
    """The closedness check that SectorModel.product ran on each raw composite
    before SectorModel.verify replaced it: d_{g+h} c = (-1)^|c| c d_0 for the
    composite c of every pair of canonical cocycles.  Raises MFError."""
    for g, h in itertools.product(range(model.r), repeat=2):
        s = (g + h) % model.r
        for lab1, lab2 in itertools.product(model.basis(g), model.basis(h)):
            parity = (model.parity(lab1) + model.parity(lab2)) % 2
            check_closed(model.differentials[0], model.differentials[s],
                         model.composite(g, lab1, h, lab2), parity)


def gamma_automorphism_failures(algebra):
    """The identities that gamma = nakayama_gamma(algebra) fails among
    gamma mu = mu (gamma (x) gamma), eps gamma = eps and
    Delta gamma = (gamma (x) gamma) Delta, with gamma (x) gamma built by
    tensor: the automorphism check that the library drops as a theorem of
    the Frobenius axioms.  An empty list on every algebra that assemble
    returns."""
    gamma = nakayama_gamma(algebra).map
    mult, comult, eps = algebra.mu_map(0, 0), algebra.delta_map(0, 0), algebra.eps
    both = tensor(gamma, gamma)
    checks = (("multiplication", compose(gamma, mult), compose(mult, both)),
              ("counit", compose(eps, gamma), eps),
              ("comultiplication", compose(comult, gamma), compose(both, comult)))
    return [name for name, left, right in checks if left != right]


def twisted_matrix_algebra(r):
    """M_2 with eps = tr(D .), D = c diag(1, zeta_r) and c = 1 + zeta_r^-1: tr(D^-1) = 1,
    so it is Delta-separable, and gamma has order r (every built-in has order <= 2)."""
    z = Cyc.zeta(r)
    c = 1 + z.inverse()
    space = SuperSpace(4, 0)
    # E_ij is the basis vector 2 i + j, and E_ij E_jl = E_il
    products = {(2 * i + j, 2 * j + l): {2 * i + l: 1}
                for i in range(2) for j in range(2) for l in range(2)}
    return FrobeniusAlgebraData.assemble(
        space, *structure_maps(space, products, {0: 1, 3: 1}, {0: c, 3: c * z}))


def _monomials_of_degree(nvars, degree):
    """Exponent tuples of total degree `degree` in `nvars` variables."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for e in range(degree, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


def hom_cohomology(x, y, nmax=24):
    """Hom(X, Y) over all the variables, by a truncation plateau: the
    cohomology of delta(zeta) = d_Y zeta - (-1)^{|zeta|} zeta d_X.

    Kernel elements are polynomial matrices of entry degree <= cutoff that
    are exactly delta-closed over the full ring; boundaries come from
    preimages of degree <= cutoff + margin.  Both echelons are carried from
    one cutoff to the next and fed only the monomials of the new degree.  At
    each cutoff the kernel vectors are reduced against one echelon holding
    the boundaries and the representatives accepted so far.  The dimensions
    are accepted once two consecutive cutoffs from the entry degree of the
    differentials on agree; past nmax, MFError.  A heuristic that shares no
    code with the library's graded route beyond the echelon and check_closed.
    """
    if sorted(x.source_vars) != sorted(y.source_vars) or \
            x.source_potential != y.source_potential:
        raise MFError("source potentials differ")
    if sorted(x.target_vars) != sorted(y.target_vars) or \
            x.target_potential != y.target_potential:
        raise MFError("target potentials differ")
    variables = tuple(sorted(set(x.ring_vars) | set(y.ring_vars)))
    nx, ny = len(x.parities), len(y.parities)
    maxdeg = max([e.degree() for row in x.d for e in row if e] +
                 [e.degree() for row in y.d for e in row if e] + [1])
    margin = maxdeg + 1

    # delta of the monomial in slot (i, j): the terms of each differential
    # entry it meets, shifted by the monomial's exponent
    slots = ([], [])
    shifts = {}
    for i in range(ny):
        for j in range(nx):
            parity = (y.parities[i] + x.parities[j]) % 2
            slots[parity].append((i, j))
            terms = []
            for i2 in range(ny):
                for exp, c in y.d[i2][i].align(variables).terms.items():
                    terms.append(((i2, j), exp, c))
            for j2 in range(nx):
                for exp, c in x.d[j][j2].align(variables).terms.items():
                    terms.append(((i, j2), exp, c if parity else -c))
            shifts[(i, j)] = terms

    columns = {}  # (slot, exponent) -> column index, numbered on first sight

    def column(key):
        col = columns.get(key)
        if col is None:
            col = columns[key] = len(columns)
        return col

    def delta(slot, mono):
        vec = {}
        for target, exp, c in shifts[slot]:
            col = column((target, tuple(a + b for a, b in zip(exp, mono))))
            acc = vec.get(col)
            vec[col] = c if acc is None else acc + c
        return {k: v for k, v in vec.items() if v}

    domain = ([], [])     # (slot, monomial) of each tracking index, per parity
    kernel = ([], [])     # kernel vectors in tracking coordinates -1 - index
    tracked = (SparseEchelon(), SparseEchelon())
    bound = (SparseEchelon(), SparseEchelon())
    kernel_degree = bound_degree = 0   # next degree to feed
    previous = None
    for cutoff in range(1, nmax + 1):
        for parity in (0, 1):
            for degree in range(kernel_degree, cutoff + 1):
                for mono in _monomials_of_degree(len(variables), degree):
                    for slot in slots[parity]:
                        row = delta(slot, mono)
                        row[-1 - len(domain[parity])] = Cyc.one()
                        domain[parity].append((slot, mono))
                        key, reduced = tracked[parity].add(row)
                        if key is None:
                            kernel[parity].append(reduced)
            # the image of the other parity spans this parity's boundaries
            for degree in range(bound_degree, cutoff + margin + 1):
                for mono in _monomials_of_degree(len(variables), degree):
                    for slot in slots[1 - parity]:
                        bound[parity].add(delta(slot, mono))
        kernel_degree, bound_degree = cutoff + 1, cutoff + margin + 1
        reps_pair = []
        for parity in (0, 1):
            # one echelon for the boundaries and the representatives so far
            quotient = SparseEchelon(bound[parity].pivots)
            reps = []
            for vec in kernel[parity]:
                key, _ = quotient.add({column(domain[parity][-1 - t]): c
                                       for t, c in vec.items()})
                if key is not None:
                    reps.append(vec)
            reps_pair.append(reps)
        dims = tuple(len(reps) for reps in reps_pair)
        # stability below the entry degree of the differentials can be a
        # plateau before the first representatives appear; wait it out
        if dims == previous and cutoff >= maxdeg:
            even_reps, odd_reps = (
                [_vec_to_matrix(vec, domain[parity], ny, nx, variables) for vec in reps]
                for parity, reps in enumerate(reps_pair))
            for parity, reps in enumerate((even_reps, odd_reps)):
                for mat in reps:
                    check_closed(x.d, y.d, mat, parity)
            return HomCohomology(len(even_reps), len(odd_reps), even_reps, odd_reps, cutoff)
        previous = dims
    raise MFError("dimensions did not stabilize up to cutoff %d" % nmax)


def _vec_to_matrix(vec, domain, ny, nx, variables):
    # each tracking index is a distinct (slot, monomial), so no terms collide
    terms = {}
    for t, coeff in vec.items():
        slot, mono = domain[-1 - t]
        terms.setdefault(slot, {})[mono] = coeff
    return [[Poly(variables, terms.get((i, j), {})) for j in range(nx)] for i in range(ny)]
