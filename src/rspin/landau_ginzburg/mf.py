"""Matrix factorizations: Koszul identities, twists, tensors, Hom cohomology.

A factorization is a free Z2-graded module over the polynomial ring on all
involved variables, with an odd differential squaring to the potential
difference (checked symbolically on construction).  Hom cohomology is
computed on the degree filtration of the morphism complex: kernels are
exact over the untruncated ring, boundaries are saturated degree by degree
and the dimensions are accepted once stable for two consecutive cutoffs.
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

    @property
    def dims(self):
        return (self.even_dim, self.odd_dim)


class _SparseEchelon:
    """Incremental echelon form of sparse rows over Q(zeta_r)."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = dict(row)
        while row:
            key = min(row)
            if key not in self.pivots:
                return key, row
            coeff = row[key]
            for k, v in self.pivots[key].items():
                acc = row.get(k, None)
                delta = coeff * v
                total = -delta if acc is None else acc - delta
                if total:
                    row[k] = total
                else:
                    row.pop(k, None)
        return None, None

    def add(self, row):
        key, reduced = self.reduce(row)
        if key is None:
            return None
        inv = reduced[key].inverse()
        self.pivots[key] = {k: inv * v for k, v in reduced.items()}
        return key

    @property
    def rank(self):
        return len(self.pivots)


def _monomials_upto(variables, degree):
    out = []
    n = len(variables)

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, n)
    return sorted(out)


def _entry_vector(slot, poly, variables):
    vec = {}
    for exp, coeff in poly.align(variables).terms.items():
        vec[(slot, exp)] = coeff
    return vec


def hom_cohomology(x, y, nmax=None):
    """Cohomology of delta(zeta) = d_Y zeta - (-1)^{|zeta|} zeta d_X.

    Kernel elements are polynomial matrices of entry degree <= D that are
    exactly delta-closed over the full ring; boundaries are computed from
    preimages of degree <= D + margin.  Dimensions are accepted once two
    consecutive cutoffs agree, else InconclusiveCohomology is raised.
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
    xd = [[e.align(variables) for e in row] for row in x.d]
    yd = [[e.align(variables) for e in row] for row in y.d]
    maxdeg = max([e.degree() for row in x.d for e in row if e] +
                 [e.degree() for row in y.d for e in row if e] + [1])
    margin = maxdeg + 1

    slots = [(i, j) for i in range(ny) for j in range(nx)]
    slot_parity = {s: (y.parities[s[0]] + x.parities[s[1]]) % 2 for s in slots}

    def delta_of_basis(slot, mono, parity):
        i, j = slot
        sign = -1 if parity else 1
        mono_poly = Poly(variables, {mono: Cyc.one()})
        vec = {}
        for i2 in range(ny):
            if yd[i2][i]:
                for key, coeff in _entry_vector((i2, j), yd[i2][i] * mono_poly,
                                                variables).items():
                    vec[key] = vec.get(key, Cyc.zero()) + coeff
        for j2 in range(nx):
            if xd[j][j2]:
                contrib = xd[j][j2] * mono_poly
                for key, coeff in _entry_vector((i, j2), contrib, variables).items():
                    vec[key] = vec.get(key, Cyc.zero()) + (-sign) * coeff
        return {k: v for k, v in vec.items() if v}

    previous = None
    for cutoff in range(1, nmax + 1):
        dims = []
        reps_pair = []
        for parity in (0, 1):
            par_slots = [s for s in slots if slot_parity[s] == parity]
            basis = [(s, m) for s in par_slots for m in _monomials_upto(variables, cutoff)]
            # exact kernel of delta restricted to degree <= cutoff
            rows = []
            for s, m in basis:
                rows.append(delta_of_basis(s, m, parity))
            # kernel via sparse elimination on the transpose: build column space
            ker = _sparse_kernel(rows, len(basis))
            # boundary space: delta applied to the opposite parity up to cutoff+margin
            opp = [s for s in slots if slot_parity[s] == 1 - parity]
            bound = _SparseEchelon()
            for s in opp:
                for m in _monomials_upto(variables, cutoff + margin):
                    row = delta_of_basis(s, m, 1 - parity)
                    if row:
                        bound.add(row)
            reps = []
            quotient = _SparseEchelon()
            for kv in ker:
                vec = {}
                for idx, coeff in kv.items():
                    s, m = basis[idx]
                    vec[(s, m)] = coeff
                key, reduced = bound.reduce(vec)
                if key is None:
                    continue
                if quotient.add(reduced) is not None:
                    reps.append(vec)
            dims.append(len(reps))
            reps_pair.append(reps)
        # stability below the entry degree of the differentials can be a
        # plateau before the first representatives appear; wait it out
        if previous is not None and previous[0] == tuple(dims) and cutoff >= maxdeg:
            even_reps = [_vec_to_matrix(v, ny, nx, variables) for v in reps_pair[0]]
            odd_reps = [_vec_to_matrix(v, ny, nx, variables) for v in reps_pair[1]]
            _verify_closed(x, y, even_reps, 0)
            _verify_closed(x, y, odd_reps, 1)
            return HomCohomology(dims[0], dims[1], even_reps, odd_reps, cutoff)
        previous = (tuple(dims), reps_pair)
    raise InconclusiveCohomology(
        "dimensions did not stabilize up to cutoff %d; raise RSPIN_HOM_NMAX" % nmax)


def _sparse_kernel(rows, ncols):
    """Kernel of the linear map sending basis j to sparse vector rows[j]."""
    echelon = _SparseEchelon()
    kernel = []
    images = []
    for j, row in enumerate(rows):
        # augment with tracking coordinates
        tracked = dict(row)
        tracked[("#", j)] = Cyc.one()
        key, reduced = _reduce_tracked(echelon, tracked)
        if key is None or str(key[0]) == "#":
            # the untracked part vanished: kernel vector found
            vec = {k[1]: v for k, v in (reduced or {}).items() if k[0] == "#"}
            if not vec:
                vec = {j: Cyc.one()}
            kernel.append(vec)
        else:
            inv = reduced[key].inverse()
            echelon.pivots[key] = {k: inv * v for k, v in reduced.items()}
    return kernel


def _reduce_tracked(echelon, row):
    row = dict(row)
    while True:
        keys = [k for k in row if k[0] != "#"]
        if not keys:
            return None, row
        key = min(keys)
        if key not in echelon.pivots:
            return key, row
        coeff = row[key]
        for k, v in echelon.pivots[key].items():
            acc = row.get(k)
            delta = coeff * v
            total = -delta if acc is None else acc - delta
            if total:
                row[k] = total
            else:
                row.pop(k, None)


def _vec_to_matrix(vec, ny, nx, variables):
    mat = [[Poly.zero(variables) for _ in range(nx)] for _ in range(ny)]
    for (slot, mono), coeff in vec.items():
        i, j = slot
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
