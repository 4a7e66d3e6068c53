"""Matrix factorizations: Koszul identities, twists, tensors, Hom cohomology.

A factorization is a free Z2-graded module over the polynomial ring on all
involved variables, with an odd differential squaring to the potential
difference (checked symbolically on construction).  Hom cohomology is
computed incrementally on the degree filtration of the morphism complex:
kernels are exact over the untruncated ring, boundaries are saturated
degree by degree, and both echelons are carried from one cutoff to the
next.  The quotient is taken against the boundaries and the
representatives already accepted together, in one echelon, so the count
does not depend on the kernel basis.  The dimensions are accepted once
stable for two consecutive cutoffs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..scalars import Cyc
from .poly import Poly


class MFError(ValueError):
    pass


class InconclusiveCohomology(MFError):
    pass


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
        mapping = {v: (self.root(v, 1), v) for v, _ in self.weights}
        if w.substitute(mapping) != w:
            raise MFError("potential is not invariant under the group action")


def partial_derivative(p, var):
    return p.derivative(var)


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
    n = len(a)
    m = len(b[0]) if b else 0
    out = [[Poly.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for k in range(len(b)):
            entry = a[i][k]
            if not entry:
                continue
            for j in range(m):
                if b[k][j]:
                    out[i][j] = out[i][j] + entry * b[k][j]
    return out


def _pmat_sub(a, b):
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _pmat_scale(a, c):
    return [[c * x for x in row] for row in a]


def _koszul_basis(n):
    """Subsets of {0..n-1} as bitmasks, evens first, each block in mask order."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1") % 2, m))
    return masks


def _wedge(mask, i):
    if mask & (1 << i):
        return None
    below = bin(mask & ((1 << i) - 1)).count("1")
    return mask | (1 << i), -1 if below % 2 else 1


def _contract(mask, i):
    if not (mask & (1 << i)):
        return None
    below = bin(mask & ((1 << i) - 1)).count("1")
    return mask & ~(1 << i), -1 if below % 2 else 1


def koszul_factorization(us, vs, source_vars, target_vars, middle_vars,
                         source_potential, target_potential):
    """The Koszul-type factorization sum_i (u_i theta_i + v_i theta_i*)."""
    n = len(us)
    masks = _koszul_basis(n)
    index = {m: k for k, m in enumerate(masks)}
    parities = tuple(bin(m).count("1") % 2 for m in masks)
    size = len(masks)
    d = [[Poly.zero() for _ in range(size)] for _ in range(size)]
    for col, mask in enumerate(masks):
        for i in range(n):
            w = _wedge(mask, i)
            if w is not None:
                target, sign = w
                d[index[target]][col] = d[index[target]][col] + us[i].scale(sign)
            c = _contract(mask, i)
            if c is not None:
                target, sign = c
                d[index[target]][col] = d[index[target]][col] + vs[i].scale(sign)
    return MatrixFactorization(tuple(source_vars), tuple(target_vars), tuple(middle_vars),
                               source_potential, target_potential, parities, d)


def identity_mf(w):
    """The unit 1-morphism I_W: d = sum_i (u_i theta_i + (x'_i - x_i) theta_i*)."""
    variables = w.vars
    us = [difference_quotient(w, v) for v in variables]
    vs = [Poly.variable(prime(v)) - Poly.variable(v) for v in variables]
    primed = tuple(prime(v) for v in variables)
    return koszul_factorization(us, vs, variables, primed, (),
                                w, w.rename({v: prime(v) for v in variables}))


def twisted_identity(w, action, g):
    """The g-twisted identity: substitute x'_i -> xi^{-w_i g} x'_i in I_W."""
    variables = w.vars
    lam = {v: action.root(v, -g) for v in variables}
    us = []
    vs = []
    for v in variables:
        u = difference_quotient(w, v)
        us.append(u.substitute({prime(x): (lam[x], prime(x)) for x in variables}))
        vs.append(Poly.variable(prime(v)).scale(lam[v]) - Poly.variable(v))
    primed = tuple(prime(v) for v in variables)
    return koszul_factorization(us, vs, variables, primed, (),
                                w, w.rename({v: prime(v) for v in variables}))


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
    ny, nx = len(y.parities), len(x.parities)
    pairs = [(q, p) for q in range(ny) for p in range(nx)]
    parities = [(y.parities[q] + x.parities[p]) % 2 for q, p in pairs]
    order = sorted(range(len(pairs)), key=lambda k: (parities[k], k))
    pos = {pairs[k]: rank for rank, k in enumerate(order)}
    size = len(pairs)
    d = [[Poly.zero() for _ in range(size)] for _ in range(size)]
    for q, p in pairs:
        col = pos[(q, p)]
        for q2 in range(ny):
            if yd[q2][q]:
                d[pos[(q2, p)]][col] = d[pos[(q2, p)]][col] + yd[q2][q]
        sign = -1 if y.parities[q] else 1
        for p2 in range(nx):
            if xd[p2][p]:
                d[pos[(q, p2)]][col] = d[pos[(q, p2)]][col] + xd[p2][p].scale(sign)
    new_parities = tuple(parities[k] for k in order)
    middles = tuple(sorted(set(x.middle_vars) | set(y.middle_vars) | set(fresh.values())))
    return MatrixFactorization(x.source_vars, y.target_vars, middles,
                               x.source_potential,
                               y.target_potential,
                               new_parities, d)


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


class _SparseEchelon:
    """Echelon form of sparse rows over Q(zeta_r), keyed by column index.

    Each pivot row's pivot is its largest key, with coefficient -1, so
    reducing by it is one multiply-add per entry.  Negative keys are tracking
    coordinates: they ride along in every row operation but are never
    pivots, so a row whose nonnegative keys cancel records the combination
    of the rows it came from.
    """

    def __init__(self, pivots=()):
        self.pivots = dict(pivots)

    def reduce(self, row):
        """(key, row): the row reduced until its largest key is no pivot.

        The key is that largest key, or None once only tracking
        coordinates are left.
        """
        row = dict(row)
        while row:
            key = max(row)
            if key < 0:
                break
            pivot = self.pivots.get(key)
            if pivot is None:
                return key, row
            coeff = row[key]
            for k, v in pivot.items():
                acc = row.get(k)
                delta = coeff * v
                total = delta if acc is None else acc + delta
                if total:
                    row[k] = total
                else:
                    del row[k]
        return None, row

    def add(self, row):
        """Reduce the row and keep it as a pivot row unless nothing is left."""
        key, reduced = self.reduce(row)
        if key is not None:
            inv = -reduced[key].inverse()
            self.pivots[key] = {k: inv * v for k, v in reduced.items()}
        return key, reduced


def _monomials_of_degree(nvars, degree):
    """Exponent tuples of total degree `degree` in `nvars` variables."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    for e in range(degree, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, degree - e):
            yield (e,) + rest


def hom_cohomology(x, y, nmax=None):
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
    if nmax is None:
        nmax = int(os.environ.get("RSPIN_HOM_NMAX", DEFAULT_NMAX))
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
    tracked = (_SparseEchelon(), _SparseEchelon())
    bound = (_SparseEchelon(), _SparseEchelon())
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
            quotient = _SparseEchelon(bound[parity].pivots)
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
            _verify_closed(x, y, even_reps, 0)
            _verify_closed(x, y, odd_reps, 1)
            return HomCohomology(len(even_reps), len(odd_reps), even_reps, odd_reps,
                                 cutoff, tuple(trajectory))
    raise InconclusiveCohomology(
        "dimensions did not stabilize up to cutoff %d; raise RSPIN_HOM_NMAX" % nmax)


def _vec_to_matrix(vec, domain, ny, nx, variables):
    mat = [[Poly.zero(variables) for _ in range(nx)] for _ in range(ny)]
    for t, coeff in vec.items():
        (i, j), mono = domain[-1 - t]
        mat[i][j] = mat[i][j] + Poly(variables, {mono: coeff})
    return mat


def _verify_closed(x, y, reps, parity):
    sign = -1 if parity else 1
    for mat in reps:
        lhs = _pmat_mul(y.d, mat)
        rhs = _pmat_scale(_pmat_mul(mat, x.d), sign)
        residual = _pmat_sub(lhs, rhs)
        for row in residual:
            for entry in row:
                if not entry.is_zero():
                    raise MFError("representative is not delta-closed; internal error")
