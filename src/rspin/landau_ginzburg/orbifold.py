"""Orbifold algebras of Fermat potentials under diagonal cyclic actions.

The algebra A = (+)_g Hom(1_W, _g(1_W)) is computed with explicit cocycle
representatives.  The product of a cocycle L in sector g and R in sector h
is pi o (L (x) R) o iota, their composite over a middle variable y followed
by the exact retraction that eliminates y from a composition of graph-type
Koszul factorizations (th1 and th2 are the odd generators of the left and
the right factor):

    iota: I_0 -> I_0(y|x') (x) I_0(x|y),  iota(s) = s + q . s . th1 th2
    pi: I_g(y|x') (x) I_h(x|y) -> I_{g+h},
        pi(A + B th1 + C th2 + F th1 th2) = A|_{y -> root_g x'} + C|...| . theta
    q = (u_0(x|y) - u_0(x|x')) / (y - x')   (q0, with y named x'')

The substitution y -> root_g x' is a ring homomorphism, so it is applied to
the factors before they are multiplied: the left row, the right cocycle and
q0 are each brought to (x, x') once, and every product is bivariate.

Why every product is closed (Carqueville-Runkel, arXiv:1210.6363;
Dyckerhoff-Murfet, arXiv:1004.0687).  L and R are closed, so L (x) R, with
Koszul signs, is a closed map I_0 (x) I_0 -> I_g (x) I_h; if iota and pi are
chain maps, their composite with it is closed.  iota is a chain map when
D iota = iota d_0 for the tensor differential D over (x, y, x'): one 4x2
identity.  pi is semilinear over y -> root_g x', so pi D = d_{g+h} pi on the
four basis vectors proves it.  On I_g (x) I_0 that says the left v_g
vanishes at y = root_g x' and the right d_0(x, y) lands on d_g(x, x'): r
identities.  They cover every h: the one at h gives d_h(x, y) =
d_0(x, root_h y), so at y = root_g x' the right d_h is d_0 at
root_h root_g = root_{g+h} (the twists xi^{-wg} are a character of Z_r),
which the one at g + h gives as d_{g+h}.

So SectorModel.verify checks, once per model when it is built, that every
canonical cocycle is closed, that iota is a chain map and that pi is one in
every sector g, all through mf.check_closed, with D placed by
mf.tensor_differential, mf_tensor's Koszul sign helper; a failure raises
OrbifoldError.  The products themselves are not checked (the test suite
runs check_closed on every one).  Class reduction re-expresses each raw
product in the canonical cocycle basis through functionals that provably
kill coboundaries: evaluation at the origin for the twisted sectors, and
restriction to the diagonal modulo the Jacobi ideal for untwisted ones;
it still refuses a product of the wrong parity, an even untwisted one that
is not scalar-diagonal and an even twisted one that v_s does not divide.
Multi-variable Fermat sums are graded tensor products of the one-variable
data with the usual Koszul signs.

Each orbifold_algebra call builds one SectorModel per distinct (exponent,
weight); variables that agree in both share it.  A model computes its
sector data (v_g, u_g, q0 and the canonical cocycles) and verifies it when
it is built, and memoises the factors over (x, x') and its own products.
Its sector differentials are mf.twisted_identity's: their Koszul pairs come
from mf.koszul_pairs, their twists from GroupAction.root, and no
factorization is built, so no d^2 check runs.  Nothing is kept from one
call to the next.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from ..scalars import Cyc, divisors
from ..superlinalg import SuperMap, SuperSpace, compose, identity
from ..constructors import (
    AlgebraAutomorphism,
    FrobeniusAlgebraData,
    graded_center,
    structure_maps,
)
from .poly import Poly
from .mf import (
    GroupAction,
    MFError,
    check_closed,
    difference_quotient,
    koszul_pairs,
    prime,
    tensor_differential,
)


class OrbifoldError(ValueError):
    pass


def _fermat_exponents(w):
    """Decompose W = sum_i x_i^{d_i}; raises for anything else."""
    exponents = {}
    variables = w.vars
    for exp, coeff in w.terms.items():
        live = [(v, e) for v, e in zip(variables, exp) if e]
        if len(live) != 1 or coeff != Cyc.one():
            raise OrbifoldError(
                "supported potentials are Fermat sums x1^d1 + ... + xn^dn")
        v, e = live[0]
        if v in exponents or e < 2:
            raise OrbifoldError(
                "supported potentials are Fermat sums with distinct variables "
                "and exponents >= 2")
        exponents[v] = e
    if set(exponents) != set(variables):
        raise OrbifoldError("every declared variable must appear in the potential")
    return exponents


def _entrywise(mat, f):
    """f applied to every nonzero entry of a polynomial matrix."""
    return [[f(e) if e else e for e in row] for row in mat]


class SectorModel:
    """One Fermat variable x^d with the weight-w action of Z_r.

    The constructor computes the sector data once: v_g and u_g for every g,
    q0, and the canonical cocycle of every basis label; then verify checks
    what makes every product closed.  The factors of the products with a
    left factor in sector g are brought to (x, x') on first use, and product
    memoises its own results, so a model shared by the variables of one
    (d, weight) computes each of them once.
    """

    def __init__(self, var, d, r, weight):
        self.var = var
        self.prime = prime(var)
        self.pair = (var, self.prime)
        self.d = d
        self.r = r
        self.weight = weight % r
        x, zero = Poly.variable(var), Poly.zero()
        # sector g twists x' -> roots[g] x' in the identity I_W: d_g =
        # [[0, v_g], [u_g, 0]] is twisted_identity(x^d, action, g).d, and
        # roots[g]^d = 1 (the action fixes x^d), so u_g = (x'^d - x^d) / v_g
        action = GroupAction(r, ((var, weight),))
        self.roots = [action.root(var, -g) for g in range(r)]
        pairs = [koszul_pairs(x ** d, action, g) for g in range(r)]
        self.u, self.v = [u_g for (u_g,), _ in pairs], [v_g for _, (v_g,) in pairs]
        self.differentials = [[[zero, v_g], [u_g, zero]] for v_g, u_g in zip(self.v, self.u)]
        # q0 = (u_0(x|y) - u_0(x|x')) / (y - x'), u_0 over (source|target),
        # with the middle variable y named x''
        self.q0 = difference_quotient(self.u[0], self.prime)
        # canonical cocycle representatives as 2x2 matrices over (var', var)
        self.cocycles = {}
        for g in range(r):
            for label in self.basis(g):
                if label[0] == "even":
                    mono = x ** label[1]
                    mat = [[mono, zero], [zero, mono]]
                else:
                    mat = [[zero, Poly.const(1)], [-self.u[0].divide_exact(self.v[g]), zero]]
                self.cocycles[(g, label)] = mat
        self.factors = {}
        self.products = {}
        self.verify()

    def untwisted(self, g):
        return self.roots[g % self.r] == 1

    def basis(self, g):
        if self.untwisted(g):
            return [("even", j) for j in range(self.d - 1)]
        return [("odd", 0)]

    @staticmethod
    def parity(label):
        return 0 if label[0] == "even" else 1

    def verify(self):
        """Check, once, what makes every product closed (module docstring):
        each canonical cocycle is closed, iota is a chain map, and pi is one
        from I_g (x) I_0 to I_g in every sector g.  Raises OrbifoldError."""
        d0 = self.differentials[0]
        mid = prime(self.prime)
        try:
            for (g, label), mat in self.cocycles.items():
                check_closed(d0, self.differentials[g], mat, SectorModel.parity(label))
            # I_0(y|x') (x) I_0(x|y) with y named x'': the left factor is I_0
            # with x renamed to y, the right one I_0 with x' renamed to y
            left = _entrywise(d0, lambda e: e.rename({self.var: mid}))
            right = _entrywise(d0, lambda e: e.rename({self.prime: mid}))
            _, d, pairs = tensor_differential(left, (0, 1), right, (0, 1))
            # slot (left state, right state); th1 th2 is the slot (1, 1).  The
            # entries 0 and 1 of iota and pi are integers, which a Poly scales by
            pos = {pair: k for k, pair in enumerate(pairs)}
            iota = [[0, 0] for _ in pairs]
            iota[pos[(0, 0)]][0], iota[pos[(1, 1)]][0] = 1, self.q0
            iota[pos[(1, 0)]][1] = iota[pos[(0, 1)]][1] = 1
            check_closed(d0, d, iota, 0)
            # pi keeps the slots (0, p) at y = roots[g] x': only d_g's first row enters pi D
            pi = [[int(k == pos[(0, p)]) for k in range(len(pairs))] for p in range(2)]
            for g in range(self.r):
                left = _entrywise(self.differentials[g][:1],
                                  lambda e: self._lift(e, g, self.var)) + [[0, 0]]
                right = _entrywise(d0, lambda e: self._lift(e, g, self.prime))
                check_closed(tensor_differential(left, (0, 1), right, (0, 1))[1],
                             self.differentials[g], pi, 0)
        except MFError as exc:
            raise OrbifoldError("sector model of %s^%d under Z%d with weight %d: %s"
                                % (self.var, self.d, self.r, self.weight, exc)) from exc

    # -- composition over the middle variable --------------------------------

    def _lift(self, e, g, y):
        """The entry e, with y the variable that plays the middle one, at
        y -> roots[g] x' and aligned to (x, x').  An entry without y, or one
        whose y is x' in an untwisted sector (y -> 1 x' fixes it), is only
        aligned."""
        if y not in e.vars or (y == self.prime and self.untwisted(g)):
            return e.align(self.pair)
        return e.substitute({y: (self.roots[g], self.prime)}).align(self.pair)

    def _factors(self, g):
        """The factors of every product with a left factor in sector g, over
        (x, x') with y -> roots[g] x' applied: the first rows of the left
        cocycles (x renamed to y), every right cocycle (x' renamed to y) and
        q0.  Only the first row of the left factor enters (see composite)."""
        if g not in self.factors:
            left = {lab: [self._lift(e, g, self.var) for e in self.cocycles[(g, lab)][0]]
                    for lab in self.basis(g)}
            right = {key: [[self._lift(e, g, self.prime) for e in row] for row in mat]
                     for key, mat in self.cocycles.items()}
            self.factors[g] = left, right, self._lift(self.q0, g, prime(self.prime))
        return self.factors[g]

    def composite(self, g, lab1, h, lab2):
        """The raw product pi o (L (x) R) o iota of the cocycles L = (g, lab1)
        and R = (h, lab2), over (x, x').

        L lives on (x', y), R on (y, x).  iota lifts the two basis vectors to
        1 + q0 th1 th2 and th1 + th2, L (x) R carries the Koszul sign
        s = (-1)^|R| past th1, and pi keeps the 1 and th2 components at
        y = roots[g] x'.  So only the first row (P, Q) of L enters, and the
        columns are P R_0 + s Q q0 R_1 and s Q R_0 + P R_1.  An even L has
        Q = 0 and an odd one P = 0, so each column keeps one of its terms.
        """
        g, h = g % self.r, h % self.r
        left, right, q0 = self._factors(g)
        P, Q = left[lab1]
        R = right[(h, lab2)]
        if not SectorModel.parity(lab1):
            return _entrywise(R, lambda e: P * e)
        if SectorModel.parity(lab2):
            Q = -Q
        Qq = Q * q0
        return [[Qq * R1 if R1 else R1, Q * R0 if R0 else R0] for R0, R1 in R]

    def product(self, g, lab1, h, lab2):
        """Class of the composite cocycle in sector g + h, as basis coefficients.

        The raw composite is closed by what verify checked (module
        docstring), so it goes straight to the class reduction.  The result is
        kept and returned again; callers must not mutate it.
        """
        g, h = g % self.r, h % self.r
        key = (g, lab1, h, lab2)
        if key in self.products:
            return self.products[key]
        raw = self.composite(g, lab1, h, lab2)
        s = (g + h) % self.r
        parity = (SectorModel.parity(lab1) + SectorModel.parity(lab2)) % 2
        self.products[key] = self._extract_class(raw, s, parity)
        return self.products[key]

    def _extract_class(self, mat, s, parity):
        """Coefficients of the class in the canonical basis of sector s.

        Coboundary entries in the twisted sectors lie in (v_s, v_0) = (x, x'),
        so evaluation at the origin is class-invariant; in untwisted sectors
        the diagonal restriction modulo x^{d-1} plays the same role.  Only
        the twisted sectors hold odd labels, and the untwisted ones,
        {g : w g = 0 mod r}, form a subgroup: so an odd product, which has
        exactly one twisted factor, lands in a twisted sector.
        """
        if parity == 1:
            if not (mat[0][0].is_zero() and mat[1][1].is_zero()):
                raise OrbifoldError("odd product has even entries; convention bug")
            if self.untwisted(s):
                raise OrbifoldError("odd product in an untwisted sector; convention bug")
            value = mat[0][1].constant_term()
            return {("odd", 0): value} if value else {}
        if not (mat[0][1].is_zero() and mat[1][0].is_zero()):
            raise OrbifoldError("even product has odd entries; convention bug")
        if not self.untwisted(s):
            # the even cohomology of a twisted sector vanishes
            mat[0][0].divide_exact(self.v[s])
            return {}
        if mat[0][0] != mat[1][1]:
            raise OrbifoldError("closed even matrix must be scalar-diagonal")
        coeffs = {}
        reduced = mat[0][0].substitute({self.prime: (1, self.var)})
        for exp, coeff in reduced.terms.items():
            j = exp[reduced.vars.index(self.var)] if reduced.vars else 0
            if j >= self.d - 1:
                continue  # x^{d-1} and above vanish in the Jacobi quotient
            key = ("even", j)
            coeffs[key] = coeffs.get(key, Cyc.zero()) + coeff
        return coeffs


@dataclass
class OrbifoldAlgebra:
    algebra: FrobeniusAlgebraData
    gamma: AlgebraAutomorphism
    potential: Poly
    action: GroupAction
    basis_labels: list  # (sector, per-variable labels) in matrix order
    counit_scale: Cyc
    models: list  # one SectorModel per variable, sorted; shared by equal (d, weight)
    delta_separable: bool  # mu o Delta = id on the algebra, read off its handle element

    def sector_dims(self):
        dims = {}
        for g, labs in self.basis_labels:
            dims[g] = dims.get(g, 0) + 1
        return dims


def orbifold_algebra(w, action):
    """The flattened orbifold algebra with its Nakayama weights.

    Returns the algebra, gamma = sum_g det(g)^{-1} . 1_g (checked as
    N_0 o gamma = id, since gamma_A = N_0^{-1}, with no solve), and the
    recorded counit normalisation.  The Gram matrix of the pairing is solved
    once, by the one assemble call: the counit scale s is read from the
    handle element z of the assembled algebra, and s != 1 rescales it
    through counit_scaled (copairing over s), which keeps the verdict of
    assemble's Frobenius check.  The Delta-separability flag is read off z
    once: mu o Delta = id for the counit s . eps iff z = s . 1 with s != 0.
    It fails for every exponent d >= 3, whatever r (x^4 under Z2 too): the
    untwisted x is then central and nilpotent, since x^(d-1) = 0 in the
    Jacobi algebra and the maximal ideal annihilates the twisted sectors, so
    it spans a nonzero nilpotent ideal, which a separable algebra never has.
    """
    exponents = _fermat_exponents(w)
    action.check_invariance(w)
    r = action.r
    variables = tuple(sorted(exponents))
    # the products of one variable depend on its exponent and weight, not on
    # its name, so variables with equal (d, weight) share one model
    shared, models = {}, []
    for v in variables:
        key = (exponents[v], action.weight(v) % r)
        if key not in shared:
            shared[key] = SectorModel(v, key[0], r, key[1])
        models.append(shared[key])

    labels = []
    for g in range(r):
        for combo in itertools.product(*[m.basis(g) for m in models]):
            labels.append((g, combo))
    parities = [sum(SectorModel.parity(l) for l in labs) % 2 for g, labs in labels]
    order = sorted(range(len(labels)), key=lambda k: (parities[k], labels[k]))
    labels = [labels[k] for k in order]
    parities = [parities[k] for k in order]
    index = {lab: k for k, lab in enumerate(labels)}
    space = SuperSpace(parities.count(0), parities.count(1))

    def multiply(e1, e2):
        """e1 . e2 as {basis index: coefficient}, with the Koszul sign of the
        interleaved tensor factors."""
        g, labs1 = e1
        h, labs2 = e2
        sign = 1
        for i in range(len(models)):
            for j in range(i):
                if SectorModel.parity(labs1[i]) and SectorModel.parity(labs2[j]):
                    sign = -sign
        results = [m.product(g, l1, h, l2) for m, l1, l2 in zip(models, labs1, labs2)]
        out = {}
        for combo in itertools.product(*[list(res.items()) for res in results]):
            labs = tuple(lab for lab, _ in combo)
            # the empty product (W = 0 has no variables) is 1
            coeff = functools.reduce(operator.mul, [c for _, c in combo] or [Cyc.one()])
            k = index[((g + h) % r, labs)]
            out[k] = out.get(k, Cyc.zero()) + (coeff if sign > 0 else -coeff)
        return out

    products = {(i, j): multiply(e1, e2)
                for i, e1 in enumerate(labels) for j, e2 in enumerate(labels)}
    unit_label = (0, tuple(("even", 0) for _ in models))
    socle = {k: 1 for k, (g, labs) in enumerate(labels)
             if g == 0 and all(l == ("even", m.d - 2) for l, m in zip(labs, models))}
    mult, unit, counit = structure_maps(space, products, {index[unit_label]: 1}, socle)

    # the unit is the single basis vector 1_0, so the handle element
    # z = mu o Delta o eta is a multiple of it exactly when it equals its own
    # entry there times the unit; then the counit s . eps makes mu o Delta = id.
    # z is read from the algebra with the counit as given, whose copairing
    # assemble solved; a scale s != 1 rescales that algebra, with no second solve
    algebra = FrobeniusAlgebraData.assemble(space, mult, unit, counit)
    z = compose(mult, algebra.copairing(0))
    scale = z.entries[index[unit_label]].get(0)
    separable = bool(scale) and z == unit.scale(scale)
    if not separable:
        scale = Cyc.one()
    elif scale != 1:
        algebra = algebra.counit_scaled(scale)

    # det(g)^{-1}: the product of the twists of g on every variable (1 for W = 0)
    det_inverse = [math.prod([action.root(v, -g) for v in variables] or [Cyc.one()])
                   for g in range(r)]
    gamma = AlgebraAutomorphism(SuperMap(space, space, 0, entries=[
        {k: det_inverse[g]} for k, (g, _) in enumerate(labels)]))

    if compose(algebra.nakayama(0), gamma.map) != identity(space):
        raise OrbifoldError(
            "pairing zig-zag disagrees with the det(g)^{-1} Nakayama weights; "
            "convention bug")

    return OrbifoldAlgebra(algebra, gamma, w, action, labels, scale, models, separable)


# -- circle spaces via the diagonal averaging projector ------------------------

@dataclass
class CircleSpaces:
    spaces: dict
    qdims: dict
    torus_invariants: dict
    crosscheck: str


def _character_exponent(labs, models):
    m = 0
    for lab, model in zip(labs, models):
        if lab[0] == "even":
            m -= model.weight * lab[1]
        else:
            m += model.weight
    return m


def circle_spaces(orb):
    """Circle space table of a built orbifold, from the diagonal projector.

    A sector-g basis element with loop character xi^{h m} survives in C_a
    iff m = 1 - a (mod r); the resulting subspace is regraded by the shift
    [n (1-a)].  The graded-centre route is cross-checked whenever the
    flattened algebra is Delta-separable.
    """
    r = orb.action.r
    models = orb.models
    n = len(models)
    spaces = {}
    for a in range(r):
        shift = (n * (1 - a)) % 2
        even = odd = 0
        for k, (g, labs) in enumerate(orb.basis_labels):
            m = _character_exponent(labs, models)
            if (m - (1 - a)) % r != 0:
                continue
            parity = (sum(SectorModel.parity(l) for l in labs) + shift) % 2
            if parity == 0:
                even += 1
            else:
                odd += 1
        spaces[a] = SuperSpace(even, odd)
    qdims = {a: spaces[a].even - spaces[a].odd for a in range(r)}
    torus = {d: qdims[d % r] for d in divisors(r)}
    if orb.delta_separable:
        center = graded_center(orb.algebra, r)
        mismatches = [a for a in range(r) if center.space(a).dim != spaces[a].dim]
        crosscheck = ("ok" if not mismatches else
                      "MISMATCH at a=%s" % mismatches)
    else:
        crosscheck = ("skipped: flattened orbifold algebra is not "
                      "Delta-separable (twisted sectors are annihilated by "
                      "the maximal ideal), so the 1-categorical graded "
                      "centre does not apply")
    return CircleSpaces(spaces, qdims, torus, crosscheck)


def lg_circle_spaces(w, action):
    """Circle space table of the orbifold of w under action."""
    return circle_spaces(orbifold_algebra(w, action))


def lg_torus_invariants(w, action):
    """Signed torus invariants d -> qdim(C_d); report |.| when comparing
    against the sign-quotiented Landau-Ginzburg conventions."""
    return lg_circle_spaces(w, action).torus_invariants
