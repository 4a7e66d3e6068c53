"""Matrix factorizations: Koszul identities, twists, tensors, Hom cohomology.

A factorization is a free Z2-graded module over the polynomial ring on all
involved variables, with an odd differential squaring to the potential
difference (checked symbolically on construction).  One helper,
tensor_differential, places every Koszul-signed entry: mf_tensor runs it
once, and a Koszul factorization such as I_W is the tensor product of its
rank-one factors, so for two or more variables its basis is in pair order
(the exterior-algebra monomials permuted within each parity block, no sign
change).  The orbifold reads its twists (GroupAction.root), primes, Koszul
pairs (koszul_pairs, also behind the identities and identity_hom),
difference quotients, the tensor differential of its composites and its one
closedness test, d_Y f = (-1)^|f| f d_X (check_closed), from here.

Hom out of I_W (identity_hom, what lg-hom computes) is exact, with no
cutoff.  I_W is the Koszul factorization of the regular sequence
x'_i - x_i, so Hom(I_W, Y) is the cohomology of Y with x' set to x, a
square-zero complex of rank 2^n over the n variables of W, with the parity
shifted by n, folded from the Koszul pairs at x' = x (Y itself is never
built).  W must be quasi-homogeneous with an isolated singularity (anything
else is refused with MFError); its weights grade that complex so that it
splits into finite pieces by weighted degree, and hom_cohomology takes each
piece in the window [-h, h], h = sum_i (D - 2 w_i), which holds every class,
with one SparseEchelon per piece (superlinalg.SparseEchelon is the one
elimination engine of the package).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from ..scalars import Cyc
from ..superlinalg import SparseEchelon
from .groebner import InfiniteQuotientError, jacobi
from .poly import Poly, format_monomial, format_poly


class MFError(ValueError):
    pass


@dataclass(frozen=True)
class GroupAction:
    """Diagonal Z_r-action x_i -> xi^{w_i} x_i on the given variables."""

    r: int
    weights: tuple  # pairs (variable, weight)

    def __post_init__(self):
        if self.r < 1:
            raise MFError("the group order must be a positive integer, got %d" % self.r)

    def weight(self, var):
        """The declared weight of var mod r; a variable without one has weight 0."""
        for v, w in self.weights:
            if v == var:
                return w % self.r
        return 0

    def root(self, var, k):
        """xi^{w_var * k} as an exact cyclotomic scalar."""
        return Cyc.zeta(self.r, (self.weight(var) * k) % self.r)

    def check_invariance(self, w):
        """Raise MFError unless every monomial of w has weight sum_i w_i e_i = 0
        mod r.  Integer arithmetic only, so a huge r costs nothing."""
        weights = [self.weight(v) for v in w.vars]
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


def tensor_differential(yd, y_parities, xd, x_parities):
    """(parities, d, pairs) of d_Y o 1 + (-1)^{|q|} 1 o d_X on the slots (q, p)
    listed in pairs: evens first, each parity block in pair order (the sort
    is stable).  Both differentials are odd, so no two terms share an entry."""
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
    return tuple((y_parities[q] + x_parities[p]) % 2 for q, p in pairs), d, pairs


def _koszul_fold(us, vs):
    """(parities, d, states) of sum_i (u_i theta_i + v_i theta_i*): the tensor
    product of the rank-(1|1) factors [[0, v_i], [u_i, 0]] in the order given,
    from the rank-(1|0) zero; states[k] holds each factor's state (1 odd) in slot k."""
    parities, d, states = (0,), [[Poly.zero()]], [()]
    for u, v in zip(us, vs):
        parities, d, pairs = tensor_differential(d, parities, [[Poly.zero(), v], [u, Poly.zero()]],
                                                  (0, 1))
        states = [states[q] + (p,) for q, p in pairs]
    return parities, d, states


def koszul_factorization(us, vs, source_vars, target_vars, middle_vars,
                         source_potential, target_potential):
    """The Koszul factorization sum_i (u_i theta_i + v_i theta_i*) (_koszul_fold)."""
    return MatrixFactorization(tuple(source_vars), tuple(target_vars), tuple(middle_vars),
                               source_potential, target_potential, *_koszul_fold(us, vs)[:2])


def identity_mf(w):
    """The unit 1-morphism I_W: d = sum_i (u_i theta_i + (x'_i - x_i) theta_i*)."""
    return twisted_identity(w, None, None)


def twisted_identity(w, action, g):
    """The g-twisted identity, x'_i -> xi^{-w_i g} x'_i in I_W (I_W if g is None)."""
    primed = tuple(map(prime, w.vars))
    return koszul_factorization(*koszul_pairs(w, action, g), w.vars, primed, (),
                                w, w.rename(dict(zip(w.vars, primed))))


def koszul_pairs(w, action=None, g=None):
    """The pairs (u_i, v_i) over (x, x') of twisted_identity(w, action, g): with
    lam_i = xi^{-w_i g} (1 if g is None), v_i = lam_i x'_i - x_i and u_i is
    difference_quotient(w, x_i) at x' -> lam x' in closed form, where c x^e gives
    c prod_{j<i} x_j^e_j sum_{k<e_i} (lam_i x'_i)^k x_i^(e_i-1-k) prod_{j>i} (lam_j x'_j)^e_j."""
    n = len(w.vars)
    roots = [Cyc.one() if g is None else action.root(v, -g) for v in w.vars]
    us = []
    for i in range(n):
        terms = {}
        for exp, c in w.terms.items():
            c = prod((roots[j] ** exp[j] for j in range(i + 1, n)), start=c)
            for k in range(exp[i]):
                key = exp[:i] + (exp[i] - 1 - k,) + (0,) * (n - 1) + (k,) + exp[i + 1:]
                terms[key] = terms.get(key, Cyc.zero()) + c * roots[i] ** k
        us.append(Poly(w.vars + tuple(map(prime, w.vars)), terms))
    vs = [Poly.variable(prime(v)).scale(root) - Poly.variable(v) for v, root in zip(w.vars, roots)]
    return us, vs


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
    parities, d, _ = tensor_differential(yd, y.parities, xd, x.parities)
    middles = tuple(sorted(set(x.middle_vars) | set(y.middle_vars) | set(fresh.values())))
    return MatrixFactorization(x.source_vars, y.target_vars, middles,
                               x.source_potential, y.target_potential, parities, d)


# -- Hom out of I_W, one weighted degree at a time -------------------------------

@dataclass
class HomCohomology:
    even_dim: int
    odd_dim: int
    even_reps: list
    odd_reps: list
    stabilized_at: int  # the top h of the degree window, a figure of work

    @property
    def dims(self):
        return (self.even_dim, self.odd_dim)


def _weights(w):
    """(integer weights of w.vars, degree D) with sum_i w_i e_i = D on every
    monomial of w: the rational q with sum_i q_i e_i = 1 on every monomial,
    scaled by its least common denominator.  A weight that the monomials
    leave free (as x*y leaves it) is 1/2.  A constant term is skipped: it
    cancels in W(x') - W(x).  MFError unless every q_i > 0."""
    echelon = SparseEchelon()
    for exp in filter(any, w.terms):
        # key k + 1 stands for q_k, key 0 for the constant 1
        row = {k + 1: Cyc.rational(e) for k, e in enumerate(exp) if e}
        row[0] = Cyc.rational(-1)
        if echelon.add(row)[0] == 0:
            raise MFError("W = %s is not quasi-homogeneous: no weights give all its "
                          "monomials one degree" % format_poly(w))
    q = [Fraction(1)]
    for k in range(1, len(w.vars) + 1):
        # a pivot row reads -q_k + sum_j row_j q_j = 0 over keys j < k
        pivot = echelon.pivots.get(k)
        q.append(Fraction(1, 2) if pivot is None else
                 sum(c.as_fraction() * q[j] for j, c in pivot.items() if j != k))
    if any(qk <= 0 for qk in q):
        raise MFError("W = %s is not quasi-homogeneous with positive weights" % format_poly(w))
    degree = lcm(*(qk.denominator for qk in q))
    return tuple(int(qk * degree) for qk in q[1:]), degree


def _window(weights, degree):
    """(-h, h) with h = sum_i (D - 2 w_i): the doubled degrees that can carry
    Hom(I_W, _g I_W) (identity_hom says why)."""
    top = sum(degree - 2 * weight for weight in weights)
    return -top, top


def _monomials(weights, total):
    """Exponent tuples e with sum_i weights[i] e_i = total, weights positive."""
    if not weights:
        if total == 0:
            yield ()
        return
    for e in range(total // weights[0], -1, -1):
        for rest in _monomials(weights[1:], total - e * weights[0]):
            yield (e,) + rest


def hom_cohomology(variables, d, parities, slot_degrees, weights, degree):
    """The cohomology of the square-zero complex d over the polynomial ring
    in variables, with slot j of parity parities[j] at the doubled degree
    slot_degrees[j], for the weights of variables that give W degree D.

    The grading is the caller's: across every nonzero entry
    deg_i - deg_j = D - 2 wdeg(d[i][j]), and a monomial m in slot i sits at
    deg_i + 2 wdeg(m).  d raises that degree by D, so each piece C_{t,q} of
    degree t and parity q is finite, and
    dim H_{t,q} = dim C_{t,q} - rank d|C_{t,q} - rank d|C_{t-D,1-q}: one
    echelon per piece, whose kernel vectors are reduced against the image of
    C_{t-D,1-q} and the representatives accepted so far together.  A kernel
    vector is a cocycle by construction, so no representative is re-checked
    with check_closed (the tests run it on every one).  Only t in
    _window(weights, D) is taken, and stabilized_at is its top; the window
    is proven to hold every class only for the complexes identity_hom builds.
    """
    n = len(parities)
    terms = [[(i, exp, c) for i, row in enumerate(d) for exp, c in row[j].terms.items()]
             for j in range(n)]  # (i, exponent, coefficient) of column j

    columns = {}  # (slot, exponent) -> column index, numbered on first sight
    pieces = {}

    def column(key):
        return columns.setdefault(key, len(columns))

    def piece(t, q):
        """(domain, echelon, kernel) of d on C_{t,q}; domain index s rides
        along as tracking coordinate -1 - s."""
        if (t, q) not in pieces:
            domain, echelon, kernel = [], SparseEchelon(), []
            for j in range(n):
                if parities[j] != q or (t - slot_degrees[j]) % 2:
                    continue
                for mono in _monomials(weights, (t - slot_degrees[j]) // 2):
                    row = {column((i, tuple(map(operator.add, exp, mono)))): c
                           for i, exp, c in terms[j]}
                    row[-1 - len(domain)] = Cyc.one()
                    domain.append((j, mono))
                    key, reduced = echelon.add(row)
                    if key is None:
                        kernel.append(reduced)
            pieces[(t, q)] = domain, echelon, kernel
        return pieces[(t, q)]

    low, high = _window(weights, degree)
    reps = ([], [])
    for t in range(low, high + 1):
        for q in (0, 1):
            domain, _, kernel = piece(t, q)
            quotient = SparseEchelon(piece(t - degree, 1 - q)[1].pivots)
            for vec in kernel:
                cells = [domain[-1 - s] + (c,) for s, c in vec.items()]
                if quotient.add({column((j, mono)): c for j, mono, c in cells})[0] is None:
                    continue
                reps[q].append([[Poly(variables, {mono: c for j, mono, c in cells if j == i})]
                                for i in range(n)])
    return HomCohomology(len(reps[0]), len(reps[1]), reps[0], reps[1], high)


def identity_hom(w, action=None, g=None, shift=False):
    """Hom(I_W, Y) exactly, for Y = I_W, or _g I_W under action when g is
    given, shifted by [1] when shift is set: the sector spaces of the paper.

    I_W is the Koszul factorization of the regular sequence x'_i - x_i, so
    Hom(I_W, Y) is the cohomology of Y restricted to the diagonal x' = x,
    with the parity shifted by n = len(w.vars) (Dyckerhoff, arXiv:0904.4713):
    the n Koszul pairs of Y set to x' = x, folded into a rank-2^n complex
    over n variables (negated for the shift), whose d^2 is sum_i u_i v_i . id
    (MFError unless 0).  Refused first, in this order, each with an MFError
    that names it: an action that moves W, when g is given
    (check_invariance); a non-isolated singularity (jacobi); a W that is not
    quasi-homogeneous (_weights, which finds its degree D and integer
    weights w_i).  u_i and v_i have weighted degrees D - w_i and w_i, so a
    slot sits at the sum of 2 w_i - D over the factors it takes odd: slot 0,
    the Koszul unit, at 0.  Why the window [-h, h], h = sum_i (D - 2 w_i),
    then holds every class: graded Serre duality makes Hom(I_W, _g I_W)
    symmetric under t -> -t; untwisted it is Jac(W), from 1 at -h to the
    Hessian at h, and a twisted sector is the Jacobi algebra of W on the
    fixed locus of g (Polishchuk-Vaintrob, arXiv:1002.2116), whose Hessian
    has the smaller degree sum_{i fixed} (D - 2 w_i).  The representatives
    are cocycles of the restricted complex (columns), not morphisms
    I_W -> Y; stabilized_at is h.
    """
    if g is not None:
        action.check_invariance(w)
    try:
        jacobi(w)
    except InfiniteQuotientError as singular:
        raise MFError("W = %s has a non-isolated singularity (no pure power of %r leads its "
                      "Jacobian ideal), so Hom(I_W, Y) can be infinite-dimensional"
                      % (format_poly(w), singular.variable)) from singular
    weights, degree = _weights(w)
    diagonal = {prime(v): v for v in w.vars}
    us, vs = ([e.rename(diagonal).align(w.vars) for e in side]
              for side in koszul_pairs(w, action, g))
    square = sum((u * v for u, v in zip(us, vs)), Poly.zero())
    if square:
        raise MFError("the Koszul pairs give d^2 = (%s) . id on the diagonal x' = x, not 0"
                      % format_poly(square))
    parities, d, states = _koszul_fold(us, vs)
    slot_degrees = [sum(2 * weight - degree for weight, odd in zip(weights, state) if odd)
                    for state in states]
    return hom_cohomology(w.vars, [[-e if shift else e for e in row] for row in d],
                          [(p + len(us) + shift) % 2 for p in parities], slot_degrees,
                          weights, degree)
