"""Orbifold algebras of Fermat potentials under diagonal cyclic actions.

The algebra A = (+)_g Hom(1_W, _g(1_W)) is computed with explicit cocycle
representatives.  Products are formed by lifting both factors into the
composite factorization over a middle variable, then contracting with the
exact retraction that eliminates the middle variable of a composition of
graph-type Koszul factorizations:

    pi(A + B th1 + C th2 + F th1 th2) = A|_{y -> lam_g x'} + C|...| . theta
    iota(s) = s + q . s . th1 th2,   q = (u(y,x) - u(x',x)) / (y - x')

Class reduction re-expresses the (delta-closed, asserted) raw product in
the canonical cocycle basis through functionals that provably kill
coboundaries: evaluation at the origin for the twisted sectors, and
restriction to the diagonal modulo the Jacobi ideal for untwisted ones.
Multi-variable Fermat sums are graded tensor products of the one-variable
data with the usual Koszul signs.

Each orbifold_algebra call computes the per-sector data of a variable
(v_g and u_g keyed by g mod r, the canonical cocycles, and q0) once, on its
SectorModel, and fills one product table keyed on (d, weight, g, labels),
which variables of equal exponent and weight share.  Every distinct product
is still checked to be a cocycle of the right parity.  Nothing is kept
from one call to the next.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..scalars import Cyc
from ..superlinalg import (
    SuperMap,
    SuperSpace,
    UNIT_SPACE,
    graded_tuples,
    identity,
    tensor_space,
)
from ..constructors import (
    AlgebraAutomorphism,
    FrobeniusAlgebraData,
    graded_center,
    nakayama_gamma,
)
from ..surface_eval import divisors
from .poly import Poly
from .mf import GroupAction


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


class SectorModel:
    """One Fermat variable x^d with the weight-w action of Z_r."""

    def __init__(self, var, d, r, weight):
        self.var = var
        self.prime = var + "'"
        self.mid = var + "~"
        self.d = d
        self.r = r
        self.weight = weight % r
        self.x = Poly.variable(var)
        self.xp = Poly.variable(self.prime)
        # per-sector data, each computed on first use; orbifold_algebra builds
        # new models on every call, so no two calls share it
        self._v = {}
        self._u = {}
        self._matrix = {}
        self._q0 = None

    def lam(self, g):
        return Cyc.zeta(self.r, (-self.weight * g) % self.r)

    def v(self, g):
        g %= self.r
        if g not in self._v:
            self._v[g] = self.xp.scale(self.lam(g)) - self.x
        return self._v[g]

    def u(self, g):
        g %= self.r
        if g not in self._u:
            num = (self.xp ** self.d) - (self.x ** self.d)
            self._u[g] = num.divide_exact(self.v(g))
        return self._u[g]

    def q0(self):
        """(u_0(y, x) - u_0(x', x)) / (y - x') with y the middle variable."""
        if self._q0 is None:
            u_mid = self.u(0).rename({self.prime: self.mid})
            self._q0 = (u_mid - self.u(0)).divide_exact(
                Poly.variable(self.mid) - self.xp)
        return self._q0

    def untwisted(self, g):
        return self.lam(g) == Cyc.one(self.r)

    def basis(self, g):
        if self.untwisted(g):
            return [("even", j) for j in range(self.d - 1)]
        return [("odd", 0)]

    @staticmethod
    def parity(label):
        return 0 if label[0] == "even" else 1

    def matrix(self, g, label):
        """Canonical cocycle representative as a 2x2 matrix over (var', var).

        The model keeps the matrix and returns it again; callers must not mutate it.
        """
        key = (g % self.r, label)
        if key not in self._matrix:
            if label[0] == "even":
                mono = self.x ** label[1]
                zero = Poly.zero(mono.vars)
                mat = [[mono, zero], [zero, mono]]
            else:
                cbar = self.u(0).divide_exact(self.v(g))
                zero = Poly.zero(cbar.vars)
                mat = [[zero, Poly.const(1)], [-cbar, zero]]
            self._matrix[key] = mat
        return self._matrix[key]

    # -- composition over the middle variable --------------------------------

    def product(self, g, lab1, h, lab2):
        """Class of the composite cocycle in sector g + h, as basis coefficients.

        The left factor lives on (var', mid), the right one on (mid, var).
        Their composite is applied to the lifts 1 + q0 th1 th2 and th1 + th2
        of the two basis vectors, and pi keeps the 1 and th2 components, so
        only the first row of the left factor enters.
        """
        P, Q = [e.rename({self.var: self.mid}) for e in self.matrix(g, lab1)[0]]
        (P2, Q2), (S2, T2) = [[e.rename({self.prime: self.mid}) for e in row]
                              for row in self.matrix(h, lab2)]
        q0 = self.q0()
        composite = [[P * P2 - Q * Q2 * q0, P * Q2 + Q * P2],
                     [P * S2 + Q * T2 * q0, P * T2 - Q * S2]]
        sub = {self.mid: (self.lam(g), self.prime)}
        raw = [[e.substitute(sub) for e in row] for row in composite]
        s = (g + h) % self.r
        parity = (SectorModel.parity(lab1) + SectorModel.parity(lab2)) % 2
        self._assert_cocycle(raw, s, parity)
        return self._extract_class(raw, s, parity)

    def _assert_cocycle(self, mat, s, parity):
        """d_s . mat = (-1)^parity mat . d_0, with d_g = [[0, v_g], [u_g, 0]]."""
        v_s, u_s, v_0, u_0 = self.v(s), self.u(s), self.v(0), self.u(0)
        lhs = [[v_s * mat[1][0], v_s * mat[1][1]],
               [u_s * mat[0][0], u_s * mat[0][1]]]
        rhs = [[mat[0][1] * u_0, mat[0][0] * v_0],
               [mat[1][1] * u_0, mat[1][0] * v_0]]
        sign = -1 if parity else 1
        for i in range(2):
            for j in range(2):
                if lhs[i][j] != rhs[i][j].scale(sign):
                    raise OrbifoldError("raw product is not a cocycle; convention bug")

    def _extract_class(self, mat, s, parity):
        """Coefficients of the class in the canonical basis of sector s.

        Coboundary entries in the twisted sectors lie in (v_s, v_0) = (x, x'),
        so evaluation at the origin is class-invariant; in untwisted sectors
        the diagonal restriction modulo x^{d-1} plays the same role.
        """
        if parity == 0 and not (mat[0][1].is_zero() and mat[1][0].is_zero()):
            raise OrbifoldError("even product has odd entries; convention bug")
        if parity == 1 and not (mat[0][0].is_zero() and mat[1][1].is_zero()):
            raise OrbifoldError("odd product has even entries; convention bug")
        coeffs = {}
        if self.untwisted(s):
            if parity == 0:
                if mat[0][0] != mat[1][1]:
                    raise OrbifoldError("closed even matrix must be scalar-diagonal")
                reduced = mat[0][0].substitute({self.prime: (1, self.var)})
                for exp, coeff in reduced.terms.items():
                    j = exp[reduced.vars.index(self.var)] if reduced.vars else 0
                    if j >= self.d - 1:
                        continue  # x^{d-1} and above vanish in the Jacobi quotient
                    key = ("even", j)
                    coeffs[key] = coeffs.get(key, Cyc.zero()) + coeff
                return coeffs
            # the odd cohomology of an untwisted sector vanishes; the entries
            # must be syzygy multiples, which exact division certifies
            mat[0][1].divide_exact(self.v(0))
            return {}
        if parity == 1:
            value = mat[0][1].eval_zero()
            if value:
                coeffs[("odd", 0)] = value
            return coeffs
        # the even cohomology of a twisted sector vanishes
        mat[0][0].divide_exact(self.v(s))
        return {}


@dataclass
class OrbifoldAlgebra:
    algebra: FrobeniusAlgebraData
    gamma: AlgebraAutomorphism
    potential: Poly
    action: GroupAction
    basis_labels: list  # (sector, per-variable labels) in matrix order
    sector_of: list
    counit_scale: Cyc
    models: list  # one SectorModel per variable, in sorted variable order

    @property
    def delta_separable(self):
        return self.algebra.delta_separable

    def sector_dims(self):
        dims = {}
        for g, labs in self.basis_labels:
            dims[g] = dims.get(g, 0) + 1
        return dims


def orbifold_algebra(w, action):
    """The flattened orbifold algebra with its Nakayama weights.

    Returns the algebra, gamma = sum_g det(g)^{-1} . 1_g (verified against
    the pairing zig-zag), and the recorded counit normalisation.  The
    Delta-separability flag records the honest outcome of mu o Delta = id;
    see the package notes for why it fails for r >= 3 twists.
    """
    exponents = _fermat_exponents(w)
    action.check_invariance(w)
    r = action.r
    variables = tuple(sorted(exponents))
    models = [SectorModel(v, exponents[v], r, action.weight(v)) for v in variables]

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

    # the products of one variable depend on its exponent and weight, not on
    # its name, so variables with equal (d, weight) share their entries
    product_table = {}

    def var_product(model, g, lab1, h, lab2):
        key = (model.d, model.weight, g, lab1, h, lab2)
        if key not in product_table:
            product_table[key] = model.product(g, lab1, h, lab2)
        return product_table[key]

    def multiply(e1, e2):
        g, labs1 = e1
        h, labs2 = e2
        sign = 1
        for i in range(len(models)):
            for j in range(i):
                if SectorModel.parity(labs1[i]) and SectorModel.parity(labs2[j]):
                    sign = -sign
        results = [var_product(m, g, l1, h, l2) for m, l1, l2 in zip(models, labs1, labs2)]
        out = {}
        for combo in itertools.product(*[list(res.items()) for res in results]):
            coeff = Cyc.rational(sign)
            labs = []
            for lab, c in combo:
                labs.append(lab)
                coeff = coeff * c
            key = ((g + h) % r, tuple(labs))
            out[key] = out.get(key, Cyc.zero()) + coeff
        return {k: v for k, v in out.items() if v}

    pair_pos = {t: k for k, t in enumerate(graded_tuples([space, space]))}
    mult_entries = [{} for _ in range(space.dim)]
    for i, e1 in enumerate(labels):
        for j, e2 in enumerate(labels):
            col = pair_pos[(i, j)]
            for target, coeff in multiply(e1, e2).items():
                mult_entries[index[target]][col] = coeff
    mult = SuperMap(_sq(space), space, 0, None, (space, space), None, entries=mult_entries)

    unit_label = (0, tuple(("even", 0) for _ in models))
    unit_entries = [{} for _ in range(space.dim)]
    unit_entries[index[unit_label]][0] = Cyc.one()
    unit = SuperMap(UNIT_SPACE, space, 0, None, (), None, entries=unit_entries)

    def socle(lab, model):
        return lab == ("even", model.d - 2)

    counit_row = {k: Cyc.one() for k, (g, labs) in enumerate(labels)
                  if g == 0 and all(socle(l, m) for l, m in zip(labs, models))}
    counit = SuperMap(space, UNIT_SPACE, 0, None, None, (), entries=[counit_row])

    algebra = FrobeniusAlgebraData.assemble(space, mult, unit, counit,
                                            require_delta_separable=False)
    scale = Cyc.one()
    if not algebra.delta_separable:
        z = algebra.handle_element()
        unit_col = unit.column(0)
        z_col = z.column(0)
        ratio = None
        proportional = True
        for zu, uu in zip(z_col, unit_col):
            if uu and zu:
                ratio = zu / uu
            elif bool(zu) != bool(uu):
                proportional = False
        if proportional and ratio is not None:
            for zu, uu in zip(z_col, unit_col):
                if zu != ratio * uu:
                    proportional = False
                    break
        if proportional and ratio:
            algebra = algebra.rescaled(ratio)
            scale = ratio

    total_weight = sum(action.weight(v) for v in variables) % r
    gamma_map = SuperMap(space, space, 0, entries=[
        {k: Cyc.zeta(r, (-g * total_weight) % r)} for k, (g, _) in enumerate(labels)])
    gamma_inv = SuperMap(space, space, 0, entries=[
        {k: Cyc.zeta(r, (g * total_weight) % r)} for k, (g, _) in enumerate(labels)])
    gamma = AlgebraAutomorphism(gamma_map, gamma_inv)

    computed = nakayama_gamma(algebra)
    if computed.map != gamma.map:
        raise OrbifoldError(
            "pairing zig-zag disagrees with the det(g)^{-1} Nakayama weights; "
            "convention bug")
    if gamma.power(r) != identity(space):
        raise OrbifoldError("gamma^r != id")

    return OrbifoldAlgebra(algebra, gamma, w, action, labels,
                           [g for g, _ in labels], scale, models)


def _sq(space):
    return tensor_space(space, space)


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
    total = sum(s.dim for s in spaces.values())
    if total != orb.algebra.dim:
        raise OrbifoldError("projector images do not decompose the identity")
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
