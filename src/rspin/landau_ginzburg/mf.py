"""Matrix factorizations: Koszul identities, twists, tensors, Hom cohomology.

A factorization is a free Z2-graded module over the polynomial ring on all
involved variables, with an odd differential squaring to the potential
difference (checked symbolically on construction).  One helper places every
Koszul-signed entry: mf_tensor runs it once, and a Koszul factorization such
as I_W is the tensor product of its rank-one factors, so for two or more
variables its basis is in pair order (the exterior-algebra monomials permuted
within each parity block, no sign change).  The orbifold reads its
twists (GroupAction.root), primes, difference quotients and its one
closedness test, d_Y f = (-1)^|f| f d_X (check_closed), from here.  Hom
cohomology is computed incrementally on the degree filtration of the
morphism complex: kernels are exact over the untruncated ring, boundaries
are saturated degree by degree, and both echelons are carried from one
cutoff to the next.  The quotient is taken against the boundaries and the
representatives already accepted together, in one echelon, so the count does
not depend on the kernel basis.  The dimensions are accepted once stable for
two consecutive cutoffs.  The echelons are superlinalg.SparseEchelon, the one
elimination engine of the package.  Hom out of I_W (identity_hom, what lg-hom
computes) takes the restricted route: I_W is the Koszul factorization of the
regular sequence x'_i - x_i, so Hom(I_W, Y) is the cohomology of Y with x' set
to x, a rank-2^n complex over the n variables of W, with the parity shifted by
n; hom_cohomology runs on it in place of the 4^n slots over (x, x'), out of a
rank-one zero factorization of parity n mod 2, which applies the shift.  If it
does not stabilize and W has a non-isolated singularity, the error says so.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

from ..scalars import Cyc
from ..superlinalg import SparseEchelon
from .groebner import InfiniteQuotientError, jacobi
from .poly import Poly, format_monomial, format_poly


class MFError(ValueError):
    pass


class InconclusiveCohomology(MFError):
    def __init__(self, cutoff, advice="raise RSPIN_HOM_NMAX"):
        self.cutoff = cutoff
        super().__init__("dimensions did not stabilize up to cutoff %d; %s" % (cutoff, advice))


DEFAULT_NMAX = 24


@dataclass(frozen=True)
class GroupAction:
    """Diagonal Z_r-action x_i -> xi^{w_i} x_i on the given variables."""

    r: int
    weights: tuple  # pairs (variable, weight)

    def __post_init__(self):
        if self.r < 1:
            raise MFError("the group order must be a positive integer, got %d" % self.r)

    def weight(self, var):
        for v, w in self.weights:
            if v == var:
                return w % self.r
        raise MFError("no weight declared for variable %r" % var)

    def root(self, var, k):
        """xi^{w_var * k} as an exact cyclotomic scalar."""
        return Cyc.zeta(self.r, (self.weight(var) * k) % self.r)

    def check_invariance(self, w):
        """Raise MFError unless every monomial of w has weight sum_i w_i e_i = 0
        mod r; a variable without a declared weight has weight 0.  Integer
        arithmetic only, so a huge r costs nothing."""
        declared = {v for v, _ in self.weights}
        weights = [self.weight(v) if v in declared else 0 for v in w.vars]
        for exp in w.terms:
            total = sum(map(operator.mul, weights, exp))
            if total % self.r:
                raise MFError("potential %s is not invariant under Z%d: its monomial %s has "
                              "weight %d, not 0 mod %d" % (format_poly(w), self.r,
                                                           format_monomial(w.vars, exp),
                                                           total, self.r))


def prime(name):
    return name + "'"


def difference_quotient(w, var):
    """(W(.., x'_i, x'_{i+1}, ..) - W(.., x_i, x'_{i+1}, ..)) / (x'_i - x_i).

    Variables after the chosen one are primed in both terms, so summing
    u_i * (x'_i - x_i) over i telescopes to W(x') - W(x).
    """
    variables = w.vars
    if var not in variables:
        raise MFError("potential does not involve %r" % var)
    i = variables.index(var)
    high = w.rename({v: prime(v) for v in variables[i:]})
    low = w.rename({v: prime(v) for v in variables[i + 1:]})
    numerator = high - low
    denominator = Poly.variable(prime(var)) - Poly.variable(var)
    return numerator.divide_exact(denominator)


@dataclass
class MatrixFactorization:
    """(X, d) with d^2 = (target_potential - source_potential) . id."""

    source_vars: tuple
    target_vars: tuple
    middle_vars: tuple
    source_potential: Poly
    target_potential: Poly
    parities: tuple
    d: list

    def __post_init__(self):
        n = len(self.parities)
        if len(self.d) != n or any(len(row) != n for row in self.d):
            raise MFError("differential must be square of size the total rank")
        for i in range(n):
            for j in range(n):
                if self.d[i][j] and self.parities[i] == self.parities[j]:
                    raise MFError("differential must be odd for the module grading")
        diff = self.target_potential - self.source_potential
        square = _pmat_mul(self.d, self.d)
        for i in range(n):
            for j in range(n):
                want = diff if i == j else Poly.zero()
                if square[i][j] != want:
                    raise MFError("d^2 != (V - W) . id at entry (%d, %d)" % (i, j))

    @property
    def rank(self):
        odd = sum(self.parities)
        return (len(self.parities) - odd, odd)

    @property
    def ring_vars(self):
        seen = set(self.source_vars) | set(self.target_vars) | set(self.middle_vars)
        return tuple(sorted(seen))

    def shift(self):
        """[1]: swap the module grading and negate the differential."""
        parities = tuple(1 - p for p in self.parities)
        d = [[-entry for entry in row] for row in self.d]
        return MatrixFactorization(self.source_vars, self.target_vars, self.middle_vars,
                                   self.source_potential, self.target_potential,
                                   parities, d)


def _pmat_mul(a, b):
    """a . b over Poly, summing only the nonzero products."""
    out = []
    for row in a:
        acc = [None] * (len(b[0]) if b else 0)
        for entry, brow in zip(row, b):
            if entry:
                for j, other in enumerate(brow):
                    if other:
                        acc[j] = entry * other if acc[j] is None else acc[j] + entry * other
        out.append([Poly.zero() if e is None else e for e in acc])
    return out


def check_closed(dx, dy, mat, parity):
    """Raise MFError unless d_Y . mat = (-1)^parity mat . d_X, with dx and dy
    the differential matrices of the source and the target."""
    rhs = _pmat_mul(mat, dx)
    for i, row in enumerate(_pmat_mul(dy, mat)):
        for j, left in enumerate(row):
            if left != (-rhs[i][j] if parity else rhs[i][j]):
                raise MFError("d_Y . f != (-1)^|f| f . d_X at entry (%d, %d)" % (i, j))


def _tensor_differential(yd, y_parities, xd, x_parities):
    """(parities, d) of d_Y o 1 + (-1)^{|q|} 1 o d_X on the pairs (q, p), evens
    first, each parity block in pair order (the sort is stable).  Both
    differentials are odd, so no two terms land in the same entry."""
    pairs = [(q, p) for q in range(len(y_parities)) for p in range(len(x_parities))]
    pairs.sort(key=lambda pair: (y_parities[pair[0]] + x_parities[pair[1]]) % 2)
    pos = {pair: k for k, pair in enumerate(pairs)}
    d = [[Poly.zero()] * len(pairs) for _ in pairs]
    for (q, p), col in pos.items():
        for q2, row in enumerate(yd):
            if row[q]:
                d[pos[(q2, p)]][col] = row[q]
        for p2, row in enumerate(xd):
            if row[p]:
                d[pos[(q, p2)]][col] = -row[p] if y_parities[q] else row[p]
    return tuple((y_parities[q] + x_parities[p]) % 2 for q, p in pairs), d


def koszul_factorization(us, vs, source_vars, target_vars, middle_vars,
                         source_potential, target_potential):
    """The Koszul factorization sum_i (u_i theta_i + v_i theta_i*): the tensor
    product of the rank-(1|1) factors [[0, v_i], [u_i, 0]] in the order given,
    starting from the rank-(1|0) zero differential."""
    parities, d = (0,), [[Poly.zero()]]
    for u, v in zip(us, vs):
        parities, d = _tensor_differential(d, parities, [[Poly.zero(), v], [u, Poly.zero()]],
                                           (0, 1))
    return MatrixFactorization(tuple(source_vars), tuple(target_vars), tuple(middle_vars),
                               source_potential, target_potential, parities, d)


def identity_mf(w):
    """The unit 1-morphism I_W: d = sum_i (u_i theta_i + (x'_i - x_i) theta_i*)."""
    return _koszul_identity(w, {v: Cyc.one() for v in w.vars})


def twisted_identity(w, action, g):
    """The g-twisted identity: substitute x'_i -> xi^{-w_i g} x'_i in I_W."""
    return _koszul_identity(w, {v: action.root(v, -g) for v in w.vars})


def _koszul_identity(w, lam):
    """I_W with x'_i -> lam_i x'_i substituted; lam_i = 1 for every i gives I_W itself."""
    variables = w.vars
    primed = tuple(prime(v) for v in variables)
    scaled = {p: (lam[v], p) for v, p in zip(variables, primed) if lam[v] != 1}
    us = [difference_quotient(w, v).substitute(scaled) for v in variables]
    vs = [Poly.variable(p).substitute(scaled) - Poly.variable(v)
          for v, p in zip(variables, primed)]
    return koszul_factorization(us, vs, variables, primed, (),
                                w, w.rename(dict(zip(variables, primed))))


def mf_tensor(y, x):
    """Horizontal composition Y o X over the shared middle variables.

    X: W -> V on (x | z), Y: V -> U on (z | u); the middle variables are
    renamed to fresh retained names, and the differential is
    d_Y o 1 + 1 o d_X with Koszul signs.  If X and Y share no variables
    (both potentials meeting at 0), this is the external product.
    """
    shared = tuple(v for v in x.target_vars)
    if list(shared) != list(y.source_vars):
        raise MFError("middle variables do not match: %r vs %r"
                      % (x.target_vars, y.source_vars))
    check = x.target_potential.rename({v: "@%s" % v for v in shared}) \
        - y.source_potential.rename({v: "@%s" % v for v in shared})
    if not check.is_zero():
        raise MFError("middle potentials do not match")
    fresh = {}
    taken = set(x.ring_vars) | set(y.ring_vars)
    for v in shared:
        base = v + "~"
        while base in taken:
            base += "~"
        fresh[v] = base
        taken.add(base)
    xd = [[entry.rename(fresh) if entry else entry for entry in row] for row in x.d]
    yd = [[entry.rename(fresh) if entry else entry for entry in row] for row in y.d]
    parities, d = _tensor_differential(yd, y.parities, xd, x.parities)
    middles = tuple(sorted(set(x.middle_vars) | set(y.middle_vars) | set(fresh.values())))
    return MatrixFactorization(x.source_vars, y.target_vars, middles,
                               x.source_potential, y.target_potential, parities, d)


# -- Hom cohomology on the degree filtration ----------------------------------

@dataclass
class HomCohomology:
    even_dim: int
    odd_dim: int
    even_reps: list
    odd_reps: list
    stabilized_at: int
    trajectory: tuple  # (even, odd) dimensions at each cutoff 1..stabilized_at

    @property
    def dims(self):
        return (self.even_dim, self.odd_dim)


def _monomials_of_degree(nvars, degree):
    """Exponent tuples of total degree `degree` in `nvars` variables."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for e in range(degree, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


def hom_cohomology(x, y):
    """Cohomology of delta(zeta) = d_Y zeta - (-1)^{|zeta|} zeta d_X.

    Kernel elements are polynomial matrices of entry degree <= D that are
    exactly delta-closed over the full ring; boundaries are computed from
    preimages of degree <= D + margin.  Both echelons are carried from one
    cutoff to the next and fed only the monomials of the new degree.  At
    each cutoff the kernel vectors are reduced against one echelon holding
    the boundaries and the representatives accepted so far, so the count
    is dim K_D / (K_D meet B_D) whatever basis the kernel came out in.
    Dimensions are accepted once two consecutive cutoffs agree, else
    InconclusiveCohomology is raised.
    """
    if sorted(x.source_vars) != sorted(y.source_vars) or \
            x.source_potential != y.source_potential:
        raise MFError("source potentials differ")
    if sorted(x.target_vars) != sorted(y.target_vars) or \
            x.target_potential != y.target_potential:
        raise MFError("target potentials differ")
    nmax = os.environ.get("RSPIN_HOM_NMAX", str(DEFAULT_NMAX))
    if not (nmax.isascii() and nmax.isdigit()) or int(nmax) < 1:
        raise MFError("RSPIN_HOM_NMAX must be a positive integer, got %r" % nmax)
    nmax = int(nmax)
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
    trajectory = []
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
        trajectory.append(tuple(len(reps) for reps in reps_pair))
        # stability below the entry degree of the differentials can be a
        # plateau before the first representatives appear; wait it out
        if len(trajectory) > 1 and trajectory[-2] == trajectory[-1] and cutoff >= maxdeg:
            even_reps, odd_reps = (
                [_vec_to_matrix(vec, domain[parity], ny, nx, variables) for vec in reps]
                for parity, reps in enumerate(reps_pair))
            for parity, reps in enumerate((even_reps, odd_reps)):
                for mat in reps:
                    check_closed(x.d, y.d, mat, parity)
            return HomCohomology(len(even_reps), len(odd_reps), even_reps, odd_reps,
                                 cutoff, tuple(trajectory))
    raise InconclusiveCohomology(nmax)


def identity_hom(w, y):
    """Hom(I_W, Y) for a factorization Y of W(x') - W(x) over (x | x').

    I_W is the Koszul factorization of the regular sequence x'_i - x_i, so
    Hom(I_W, Y) is the cohomology of Y restricted to the diagonal x' = x,
    with the parity shifted by n = len(w.vars) (Dyckerhoff, arXiv:0904.4713).
    The restricted differential squares to W(x) - W(x) = 0: a rank-2^n
    complex over n variables, whose cohomology hom_cohomology computes from
    the zero factorization of rank (1|0) for even n and (0|1) for odd n, which
    applies the shift.  The dimensions, the trajectory and the representatives
    are those of Hom(I_W, Y); the representatives are cocycles of the
    restricted complex (columns), not morphisms I_W -> Y.  When the cohomology
    does not stabilize and W has no isolated singularity, the error says so.
    """
    variables = w.vars
    primed = tuple(prime(v) for v in variables)
    if sorted(y.source_vars) != sorted(variables) or y.source_potential != w or \
            sorted(y.target_vars) != sorted(primed) or \
            y.target_potential != w.rename(dict(zip(variables, primed))):
        raise MFError("Y must be a factorization of W(x') - W(x) over (x | x')")
    diagonal = dict(zip(primed, variables))
    d = [[entry.rename(diagonal) if entry else entry for entry in row] for row in y.d]
    zero = Poly.zero()
    restricted = MatrixFactorization(variables, (), y.middle_vars, zero, zero, y.parities, d)
    point = MatrixFactorization(variables, (), y.middle_vars, zero, zero,
                                (len(variables) % 2,), [[zero]])
    try:
        return hom_cohomology(point, restricted)
    except InconclusiveCohomology as exc:
        try:
            jacobi(w)
        except InfiniteQuotientError as singular:
            raise InconclusiveCohomology(exc.cutoff, (
                "W = %s has a non-isolated singularity (no pure power of %r leads its "
                "Jacobian ideal), so Hom(I_W, Y) can be infinite-dimensional, and then "
                "no RSPIN_HOM_NMAX helps") % (format_poly(w), singular.variable)) from exc
        raise


def _vec_to_matrix(vec, domain, ny, nx, variables):
    # each tracking index is a distinct (slot, monomial), so no terms collide
    terms = {}
    for t, coeff in vec.items():
        slot, mono = domain[-1 - t]
        terms.setdefault(slot, {})[mono] = coeff
    return [[Poly(variables, terms.get((i, j), {})) for j in range(nx)] for i in range(ny)]

