"""Invariants of closed r-spin surfaces from a closed Lambda_r-Frobenius algebra.

Every surface is evaluated through its handle decomposition, one handle
operator K_{a,b} = mu_{a,c-a-1} o (N_a^{1-b} o id) o Delta_{a,c-a-1} per
handle, threading the intermediate grading c = 1 - 2k mod r; the torus
T(a,b) is the genus-1 surface with the one handle (-a, b).  An algebra of
period m has at most m^3 distinct handle operators K_{c,a,b}, whatever r;
LambdaFrobenius.handle_operator builds each once and keeps it with the
algebra, as it does the powers of N_a.
The end handles are kept with eta and eps folded in, also without a map: the
state K_{1,a,b}(eta), a sparse vector on C_{-1}, and the cap eps o K_{c,a,b},
a sparse row on C_c.  The evaluation itself builds no map: it carries the
state of the first handle through the middle handle operators and pairs it
with the cap of the last one, g - 2 vector steps and one pairing at genus g.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .scalars import Cyc, divisors
from .superlinalg import apply

_ZERO = Cyc.zero()


class SurfaceError(ValueError):
    pass


def _check_order(r):
    if r < 1:
        raise SurfaceError("r must be a positive integer, got %d" % r)


@dataclass(frozen=True)
class RSpinTorus:
    r: int
    a: int
    b: int

    def __post_init__(self):
        _check_order(self.r)
        object.__setattr__(self, "a", self.a % self.r)
        object.__setattr__(self, "b", self.b % self.r)


@dataclass(frozen=True)
class RSpinClosedSurface:
    r: int
    genus: int
    handles: tuple

    def __post_init__(self):
        _check_order(self.r)
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


def evaluate_surface(alg, s):
    """eps o K_{a_g,b_g} o ... o K_{a_1,b_1} o eta, checked for admissibility.

    Genus 0 pairs the column of eta with eps, genus 1 the state
    K_{a_1,b_1}(eta) with eps; from genus 2 on the state is carried through
    the middle handle operators as a sparse vector and paired with the cap
    eps o K_{a_g,b_g}.  No map is built per call."""
    if alg.r != s.r:
        raise SurfaceError("algebra has r=%d but surface has r=%d" % (alg.r, s.r))
    if not s.admissible():
        raise SurfaceError(
            "no r-spin structure: r=%d does not divide 2g-2=%d" % (s.r, 2 * s.genus - 2))
    handles = s.handles
    if not handles:
        eta = alg.eta
        column = {i: row[0] for i, row in enumerate(eta.entries) if row}
        return apply(alg.eps, eta.target, column).get(0, _ZERO)
    space, vector = alg.handle_state(*handles[0])
    if len(handles) == 1:
        return apply(alg.eps, space, vector).get(0, _ZERO)
    # handle k maps C_{1-2k} to C_{-1-2k}; the last one, k = g - 1, starts on C_{3-2g}
    for k in range(1, len(handles) - 1):
        handle = alg.handle_operator(1 - 2 * k, *handles[k])
        vector = apply(handle, space, vector)
        space = handle.target
    cap = alg.handle_cap(3 - 2 * len(handles), *handles[-1])
    return apply(cap, space, vector).get(0, _ZERO)


def all_torus_invariants(alg):
    """One invariant per diffeomorphism class of r-spin tori: d -> Z(T(d, 0))."""
    return {d: evaluate_torus(alg, RSpinTorus(alg.r, d, 0)) for d in divisors(alg.r)}
