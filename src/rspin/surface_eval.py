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
a sparse row on C_c.  The evaluation itself builds no map: evaluate_surface
checks r and admissibility and hands the handles to one walk,
LambdaFrobenius.evaluate_handles, next to the tables.  A warm genus-g call
makes one dict lookup per handle, carries the state of the first handle
through the g - 2 middle handle operators with superlinalg.apply, and pairs
it with the cap of the last one (eps at genus 1) straight to a scalar by the
same multiply-accumulate, superlinalg.dot.  A surface reads r, the genus and
every holonomy through operator.index, so a value that is no integer, or a
handle that is not a pair, is refused by name when the surface is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

from .scalars import divisors


class SurfaceError(ValueError):
    pass


def _integer(name, value):
    """value as an int, through operator.index: a float or a string is refused."""
    try:
        return index(value)
    except TypeError:
        raise SurfaceError("%s must be an integer, got %r" % (name, value)) from None


def _order(r):
    r = _integer("r", r)
    if r < 1:
        raise SurfaceError("r must be a positive integer, got %d" % r)
    return r


def _handle_error(handles):
    """The SurfaceError for holonomies that are not pairs of integers: it names
    the first handle that is not a pair, or the first holonomy that is no
    integer, or else the rest of an iterator the failed pass used up."""
    try:
        handles = list(handles)
    except TypeError:
        return SurfaceError("handles must be a sequence of holonomy pairs, got %r" % (handles,))
    for handle in handles:
        try:
            pair = tuple(handle)
        except TypeError:
            pair = None
        if pair is None or len(pair) != 2:
            return SurfaceError("handle %r is not a pair of holonomies" % (handle,))
        for value in pair:
            try:
                index(value)
            except TypeError:
                return SurfaceError("holonomy %r of handle %r is not an integer"
                                    % (value, handle))
    return SurfaceError("handles must be pairs of integers, got %r" % (handles,))


@dataclass(frozen=True, init=False)
class RSpinTorus:
    r: int
    a: int
    b: int

    def __init__(self, r, a, b):
        r = _order(r)
        # frozen: the fields are stored in the instance dict directly
        fields = self.__dict__
        fields["r"], fields["a"], fields["b"] = r, _integer("a", a) % r, _integer("b", b) % r


@dataclass(frozen=True, init=False)
class RSpinClosedSurface:
    """A closed genus-g surface with one holonomy pair (a, b) per handle, each
    read through operator.index and kept mod r."""
    r: int
    genus: int
    handles: tuple

    def __init__(self, r, genus, handles):
        r, genus = _order(r), _integer("genus", genus)
        if genus < 0:
            raise SurfaceError("genus must be non-negative")
        try:
            handles = tuple([(index(a) % r, index(b) % r) for a, b in handles])
        except (TypeError, ValueError):
            raise _handle_error(handles) from None
        if len(handles) != genus:
            raise SurfaceError("need exactly one holonomy pair per handle")
        fields = self.__dict__
        fields["r"], fields["genus"], fields["handles"] = r, genus, handles

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
    """eps o K_{a_g,b_g} o ... o K_{a_1,b_1} o eta, checked for admissibility:
    one walk of LambdaFrobenius.evaluate_handles over the algebra's tables."""
    r = s.r
    if alg.r != r:
        raise SurfaceError("algebra has r=%d but surface has r=%d" % (alg.r, r))
    if (2 * s.genus - 2) % r:
        raise SurfaceError(
            "no r-spin structure: r=%d does not divide 2g-2=%d" % (r, 2 * s.genus - 2))
    return alg.evaluate_handles(s.handles)


def all_torus_invariants(alg):
    """One invariant per diffeomorphism class of r-spin tori: d -> Z(T(d, 0))."""
    return {d: evaluate_torus(alg, RSpinTorus(alg.r, d, 0)) for d in divisors(alg.r)}
