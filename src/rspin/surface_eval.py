"""Invariants of closed r-spin surfaces from a closed Lambda_r-Frobenius algebra.

Every surface is evaluated through its handle decomposition, one handle
operator K_{a,b} = mu_{a,c-a-1} o (N_a^{1-b} o id) o Delta_{a,c-a-1} per
handle, threading the intermediate grading c = 1 - 2k mod r; the torus
T(a,b) is the genus-1 surface with the one handle (-a, b).  An algebra has at
most r^3 distinct handle operators K_{c,a,b}; LambdaFrobenius.handle_operator
builds each once and keeps it with the algebra, as it does the powers of N_a.
The evaluation itself builds no map: it threads the one column of eta, as a
sparse vector, through the handle operators and pairs the result with eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .scalars import Cyc, divisors
from .superlinalg import SuperLinAlgError

_ZERO = Cyc.zero()
_ONE = Cyc.one()


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class RSpinTorus:
    r: int
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "a", self.a % self.r)
        object.__setattr__(self, "b", self.b % self.r)


@dataclass(frozen=True)
class RSpinClosedSurface:
    r: int
    genus: int
    handles: tuple

    def __post_init__(self):
        if self.genus < 0:
            raise SurfaceError("genus must be non-negative")
        handles = tuple((a % self.r, b % self.r) for a, b in self.handles)
        if len(handles) != self.genus:
            raise SurfaceError("need exactly one holonomy pair per handle")
        object.__setattr__(self, "handles", handles)

    def admissible(self):
        """A closed genus-g surface carries an r-spin structure iff r | 2g - 2."""
        return (2 * self.genus - 2) % self.r == 0


def torus_normal_form(t):
    """gcd(a, b, r): the divisor d with T(a,b) diffeomorphic to T(d, 0)."""
    d = gcd(gcd(t.a, t.b), t.r)
    return t.r if d == 0 else d


def evaluate_torus(alg, t):
    """Z(T(a,b)) = eps o mu_{-a,a} o (N_{-a}^{1-b} o id) o Delta_{-a,a} o eta, an
    exact scalar: the genus-1 surface with the one handle (-a, b)."""
    if alg.r != t.r:
        raise SurfaceError("algebra has r=%d but torus has r=%d" % (alg.r, t.r))
    return evaluate_surface(alg, RSpinClosedSurface(t.r, 1, ((-t.a, t.b),)))


def _apply(k, space, vector):
    """k(v) for a vector v = {index: nonzero Cyc} of the space `space`: one
    pass over the stored rows of k, with compose's shape check and its
    shortcut for the shared one."""
    if k.source != space:
        raise SuperLinAlgError("composition shape mismatch: %r after a vector in %r"
                               % (k, space))
    out = {}
    for i, row in enumerate(k.entries):
        total = None
        for j, kv in row.items():
            x = vector.get(j)
            if x is not None:
                value = x if kv is _ONE else kv if x is _ONE else kv * x
                total = value if total is None else total + value
        if total:
            out[i] = total
    return out


def evaluate_surface(alg, s):
    """eps o K_{a_g,b_g} o ... o K_{a_1,b_1} o eta, checked for admissibility.

    The column of eta is carried through each cached handle operator as a
    sparse vector and paired with the row of eps; no map is built per call."""
    if alg.r != s.r:
        raise SurfaceError("algebra has r=%d but surface has r=%d" % (alg.r, s.r))
    if not s.admissible():
        raise SurfaceError(
            "no r-spin structure: r=%d does not divide 2g-2=%d" % (s.r, 2 * s.genus - 2))
    # after g handles the thread sits at C_{1-2g}, which is C_{-1} since r | 2g - 2
    eta = alg.eta
    space = eta.target
    vector = {i: row[0] for i, row in enumerate(eta.entries) if row}
    for k, (a, b) in enumerate(s.handles):
        handle = alg.handle_operator(1 - 2 * k, a, b)
        vector = _apply(handle, space, vector)
        space = handle.target
    return _apply(alg.eps, space, vector).get(0, _ZERO)


def all_torus_invariants(alg):
    """One invariant per diffeomorphism class of r-spin tori: d -> Z(T(d, 0))."""
    return {d: evaluate_torus(alg, RSpinTorus(alg.r, d, 0)) for d in divisors(alg.r)}
