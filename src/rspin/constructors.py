"""Delta-separable Frobenius algebras and the graded-centre construction.

A Frobenius algebra A is the closed Lambda_1-Frobenius algebra on A, with
the comultiplication derived from the pairing, read through the
LambdaFrobenius accessors; its Nakayama automorphism gamma_A is N_0^{-1}.
graded_center builds a closed Lambda_r-Frobenius algebra from the images of
the twisted averaging projectors P_a(x) = sum_i ebar_i . x . gamma^(1-a)(e_i),
where Delta(1) = sum_i ebar_i o e_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lambda_frobenius import (
    LambdaFrobenius,
    frobenius_report,
    infer_scalar_order,
    read_int,
    read_keys,
    read_map,
    read_space,
    write_map,
)
from .scalars import Cyc, as_cyc
from .superlinalg import (
    SuperLinAlgError,
    SuperMap,
    SuperSpace,
    UNIT_SPACE,
    braiding,
    compose,
    identity,
    kernel_of_matrix,
    pair_index,
    solve_exact,
    split_idempotent,
    tensor,
    tensor_space,
    whisker,
)


class FrobeniusError(ValueError):
    pass


class DegeneratePairingError(FrobeniusError):
    pass


class FrobeniusAlgebraData(LambdaFrobenius):
    """A Frobenius algebra A as the closed Lambda_1-Frobenius algebra with
    C_{-1} = C_0 = C_1 = A.  It passes frobenius_report, which assemble runs,
    but need not pass validate, whose commutativity and deck families hold only
    for a commutative symmetric algebra (clifford1 fails both, M_2 the first)."""

    @staticmethod
    def assemble(space, mult, unit, counit):
        """The algebra with the comultiplication derived from the pairing, once
        the maps are even and the Frobenius axioms hold."""
        if mult.parity or unit.parity or counit.parity:
            raise FrobeniusError("structure maps must be even")
        copairing = copairing_from(compose(counit, mult), space)
        comult = whisker(whisker(identity(space), (space,), copairing, ()), (), mult, (space,))
        algebra = FrobeniusAlgebraData(1, {0: space}, {(0, 0): mult}, {(0, 0): comult},
                                       unit, counit)
        report = frobenius_report(algebra)
        if not report.ok:
            raise FrobeniusError("the %s axiom fails" % report.failures()[0].family)
        return algebra

    def counit_scaled(self, scale):
        """The algebra that assemble returns for the counit scale . eps, scale
        nonzero, with no second solve or check: the copairing of scale . eps is
        the copairing over scale, Delta is linear in it, and every untwisted
        relation is homogeneous in (Delta, eps), so it holds as it did."""
        scale = as_cyc(scale)
        comult = self.delta_map(0, 0).scale(scale.inverse())
        return FrobeniusAlgebraData(1, self.spaces, self.mu, {(0, 0): comult},
                                    self.eta, self.eps.scale(scale))

    # -- config schema ---------------------------------------------------------

    def to_config(self):
        return {
            "format": "frobenius_algebra",
            "scalar_order": infer_scalar_order([self.mu_map(0, 0), self.eta, self.eps]),
            "even_dim": self.space(0).even,
            "odd_dim": self.space(0).odd,
            "mult": write_map(self.mu_map(0, 0)),
            "unit": write_map(self.eta),
            "counit": write_map(self.eps),
        }

    @staticmethod
    def from_config(data):
        read_keys(data, "frobenius_algebra", ("even_dim", "odd_dim", "mult", "unit", "counit"))
        order = read_int(data.get("scalar_order", 1), "scalar_order", 1)
        space = read_space([data["even_dim"], data["odd_dim"]])
        mult = read_map(data["mult"], "mult", order, (space, space), (space,))
        unit = read_map(data["unit"], "unit", order, (), (space,))
        counit = read_map(data["counit"], "counit", order, (space,), ())
        algebra = FrobeniusAlgebraData.assemble(space, mult, unit, counit)
        if not delta_separable(algebra):
            raise FrobeniusError("algebra is not Delta-separable (mu o Delta != id)")
        return algebra


def delta_separable(algebra):
    """Whether mu o Delta = id on A: Delta(x) = sum_i x ebar_i o e_i, so mu o Delta
    multiplies by the handle element z = mu(copairing), and is id iff z = 1."""
    return compose(algebra.mu_map(0, 0), algebra.copairing(0)) == algebra.eta


def copairing_from(pairing, space):
    """The copairing: the inverse Gram matrix of the pairing at the pair index (i, j).

    With c = sum_ij c_ij e_i o e_j, the zorro identity (p o id).(id o c) = id
    reads G c = 1 for the Gram matrix G_ij = p(e_i o e_j); the pairing is
    even, so no Koszul sign enters.  G is square, so G c = 1 gives the mirrored
    identity c G = 1 too; a singular G raises DegeneratePairingError.
    """
    dim = space.dim
    pairs = pair_index(space)
    values = pairing.entries[0]
    gram = [{} for _ in range(dim)]
    for (i, j), k in pairs.items():
        if k in values:
            gram[i][j] = values[k]
    try:
        inverse = solve_exact(gram, identity(space).entries, dim)
    except SuperLinAlgError as exc:
        raise DegeneratePairingError("pairing is degenerate; no copairing exists") from exc
    cop = [{} for _ in pairs]
    for (i, j), k in pairs.items():
        if j in inverse[i]:
            cop[k][0] = inverse[i][j]
    return SuperMap(UNIT_SPACE, tensor_space(space, space), 0, None,
                    (), (space, space), entries=cop)


@dataclass
class AlgebraAutomorphism:
    map: SuperMap

    def powers(self, bound):
        """[map^0, ..., map^(m-1)] for the order m <= bound of the map, or None."""
        one = identity(self.map.source)
        powers, power = [one], self.map
        while power != one:
            if len(powers) == bound:
                return None
            powers.append(power)
            power = compose(self.map, power)
        return powers


def nakayama_gamma(algebra):
    """The Nakayama automorphism gamma_A: the inverse of N_0.

    N_0, the pairing zig-zag with one braided copairing, computes
    gamma_A^{-1} under the right-duals-from-braiding convention.
    gamma_A = id iff the algebra is symmetric.  Its one solve is the whole
    cost: N_0 is the zig-zag of an algebra whose Frobenius axioms assemble
    has checked, so its inverse is an even algebra automorphism that fixes
    eps; it preserves the pairing, hence the copairing and Delta.
    """
    space = algebra.space(0)
    return AlgebraAutomorphism(SuperMap(space, space, 0, None, entries=solve_exact(
        algebra.nakayama(0).entries, algebra.nakayama_power(0, 0).entries, space.dim)))


class GammaOrderError(FrobeniusError):
    pass


def projector_front(algebra):
    """x -> sum_i ebar_i o x o e_i, Koszul signs included: the part of every
    averaging projector that gamma does not enter."""
    space = algebra.space(0)
    side = (space,)
    front = whisker(identity(space), (), algebra.copairing(0), side)  # x -> (ebar, e, x)
    return whisker(front, side, braiding(space, space), ())          # -> (ebar, x, e)


def averaging_projector(algebra, front, gpow):
    """P_a(x) = sum_i ebar_i . x . gpow(e_i) for gpow = gamma^(1-a), from
    front = projector_front(algebra)."""
    space, mult = algebra.space(0), algebra.mu_map(0, 0)
    side = (space,)
    step = whisker(front, side + side, gpow, ())  # -> (ebar, x, gamma(e))
    return compose(mult, whisker(step, (), mult, side))


@dataclass
class GradedCenter:
    """A graded centre together with its embedding data."""

    algebra: LambdaFrobenius
    gamma: AlgebraAutomorphism
    inclusions: dict
    projections: dict

    def gamma_restriction(self, a):
        """gamma_A restricted/corestricted to the circle space C_a."""
        a %= self.algebra.r
        return compose(self.projections[a], compose(self.gamma.map, self.inclusions[a]))


def graded_center_data(algebra, r):
    """Build the graded centre with the twisted averaging projectors.

    Requires gamma_A^r = id; the Nakayama automorphisms of the result act as
    gamma_A restricted to each circle space.  P_a depends on a only through
    gamma^(1-a), so only the ord(gamma) distinct ones are split.  The unit
    lies in C_1 with no check: P_1 = P with gamma^0 sends 1 to the handle
    element z = mu(copairing), which Delta-separability makes 1.
    """
    if r < 1:
        raise FrobeniusError("the spin order r must be a positive integer, got %d" % r)
    if not delta_separable(algebra):
        raise FrobeniusError(
            "graded_center requires a Delta-separable algebra (mu o Delta = id)")
    gamma = nakayama_gamma(algebra)
    powers = gamma.powers(r)
    if powers is None or r % len(powers):
        raise GammaOrderError("gamma_A^%d != id; the graded centre needs gamma_A^r = 1" % r)
    m, front = len(powers), projector_front(algebra)
    # split_idempotent refuses a p with p o p != p, through proj o incl = id
    incl, proj, images = zip(*(split_idempotent(
        averaging_projector(algebra, front, powers[(1 - a) % m])) for a in range(m)))
    # index pairs congruent mod m share one restricted mu and Delta, and the mu
    # with one target C_c share proj_c o mu;
    # Delta's proj_a o proj_b = (proj_a o id).(id o proj_b), with no Koszul sign
    side, mult, unit = (algebra.space(0),), algebra.mu_map(0, 0), algebra.eta
    proj_mult = [compose(proj[c], mult) for c in range(m)]
    mu_m = {(a, b): compose(proj_mult[(a + b - 1) % m], tensor(incl[a], incl[b]))
            for a in range(m) for b in range(m)}
    comult_incl = [compose(algebra.delta_map(0, 0), incl[c]) for c in range(m)]
    delta_m = {(a, b): whisker(whisker(comult_incl[(a + b + 1) % m], side, proj[b], ()),
                               (), proj[a], proj[b].target_factors)
               for a in range(m) for b in range(m)}
    mu = {(a, b): mu_m[(a % m, b % m)] for a in range(r) for b in range(r)}
    delta = {(a, b): delta_m[(a % m, b % m)] for a in range(r) for b in range(r)}
    eta = compose(proj[1 % m], unit)
    eps = compose(algebra.eps, incl[-1])
    spaces = {a: images[a % m] for a in range(r)}
    result = LambdaFrobenius(r=r, spaces=spaces, mu=mu, delta=delta, eta=eta, eps=eps)
    return GradedCenter(result, gamma,
                        {a: incl[a % m] for a in range(r)},
                        {a: proj[a % m] for a in range(r)})


def graded_center(algebra, r):
    """Closed Lambda_r-Frobenius algebra on the images of the projectors P_a."""
    return graded_center_data(algebra, r).algebra


# -- algebras from structure constants ----------------------------------------

def structure_maps(space, products, unit, counit):
    """The even maps mu, eta and eps of an algebra on space from its structure constants.

    products[(i, j)] = {k: c} reads e_i . e_j = sum_k c e_k; unit = {k: c}
    reads eta(1) = sum_k c e_k and counit = {k: c} reads eps(e_k) = c.
    Zero coefficients are dropped; SuperMap refuses any entry outside the
    even parity blocks.
    """
    def nonzero(coeffs):
        return {k: c for k, c in ((k, as_cyc(c)) for k, c in coeffs.items()) if c}

    pairs = pair_index(space)
    mult = [{} for _ in range(space.dim)]
    for pair, images in products.items():
        for k, c in nonzero(images).items():
            mult[k][pairs[pair]] = c
    eta = [{} for _ in range(space.dim)]
    for k, c in nonzero(unit).items():
        eta[k][0] = c
    return (SuperMap(tensor_space(space, space), space, 0, None, (space, space), None,
                     entries=mult),
            SuperMap(UNIT_SPACE, space, 0, None, (), None, entries=eta),
            SuperMap(space, UNIT_SPACE, 0, None, None, (), entries=[nonzero(counit)]))


def builtin(name, **params):
    """Named Delta-separable Frobenius algebras in their canonical forms."""
    if name == "trivial":
        name, params = "group_algebra_Zn", {"n": 1}
    if name == "group_algebra_Zn":
        n = int(params.get("n", 2))
        if n < 1:
            raise FrobeniusError("group order must be positive")
        space = SuperSpace(n, 0)
        products = {(i, j): {(i + j) % n: 1} for i in range(n) for j in range(n)}
        unit, counit = {0: 1}, {0: n}
    elif name == "clifford1":
        # k<theta>/(theta^2 = 1) with theta odd; counit reads off 2x the even part
        space = SuperSpace(1, 1)
        products = {(i, j): {(i + j) % 2: 1} for i in range(2) for j in range(2)}
        unit, counit = {0: 1}, {0: 2}
    elif name == "matrix_algebra_n":
        n = int(params.get("n", 2))
        if n < 1:
            raise FrobeniusError("matrix size must be positive")
        # E_ij is the basis vector i n + j, and E_ij E_jl = E_il
        space = SuperSpace(n * n, 0)
        products = {(i * n + j, j * n + l): {i * n + l: 1}
                    for i in range(n) for j in range(n) for l in range(n)}
        unit = {i * (n + 1): 1 for i in range(n)}
        counit = {i * (n + 1): n for i in range(n)}
    else:
        raise FrobeniusError("unknown builtin algebra %r" % name)
    return FrobeniusAlgebraData.assemble(space, *structure_maps(space, products, unit, counit))


BUILTIN_NAMES = ("trivial", "group_algebra_Zn", "clifford1", "matrix_algebra_n")


def center_basis(algebra):
    """Brute-force centre: solve x e_i = e_i x for all i (oracle helper)."""
    space = algebra.space(0)
    dim = space.dim
    pairs = pair_index(space)
    mult, zero = algebra.mu_map(0, 0).entries, Cyc.zero()
    rows = []
    # unknown x = sum_j x_j e_j; for each basis e_i and output slot k one equation
    for i in range(dim):
        for k in range(dim):
            row = {}
            for j in range(dim):
                left = mult[k].get(pairs[(j, i)], zero)
                right = mult[k].get(pairs[(i, j)], zero)
                row[j] = left - right
            rows.append(row)
    return kernel_of_matrix(rows, dim)
