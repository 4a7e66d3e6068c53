"""Closed Lambda_r-Frobenius algebras in super vector spaces.

The structure is a Z_r-graded family of circle spaces C_a with graded
multiplication mu_{a,b}: C_a o C_b -> C_{a+b-1}, unit eta: 1 -> C_1,
comultiplication Delta_{a,b}: C_{a+b+1} -> C_a o C_b and counit
eps: C_{-1} -> 1, together with the Nakayama automorphisms N_a built from
the pairing/copairing zig-zag.  Every derived table (copairings, powers of
N_a, handle operators, states and caps) is keyed mod the algebra's period.
validate() checks every defining relation family exactly, each as a
contraction of structure constants read once per map value as a table, and
builds no map per index tuple.  It decides each relation once per index class
mod the period, and its report counts every index tuple and forms their
entries only when they are read.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .scalars import Cyc, divisors, format_scalar, parse_scalar
from .superlinalg import (
    SuperLinAlgError,
    SuperMap,
    SuperSpace,
    apply,
    braiding,
    compose,
    dot,
    graded_tuples,
    identity,
    pullback,
    tensor_space,
    whisker,
)

_ONE = Cyc.one()
_ZERO = Cyc.zero()


class LambdaFrobeniusError(ValueError):
    pass


class Cap(NamedTuple):
    """A covector on `source` as a one-row matrix: entries = [{index: nonzero}].
    It has the source and entries of a one-row SuperMap, and is none:
    evaluate_handles pairs its row with a vector by superlinalg.dot."""
    source: SuperSpace
    entries: list


@dataclass(eq=False)
class LambdaFrobenius:
    """The tuple ({C_a}, mu_{a,b}, eta, Delta_{a,b}, eps), keyed by indices in 0..r-1;
    the accessors read any index mod r, and the derived tables mod the period m:
    the least divisor of r at which every circle space, mu_{a,b}, Delta_{a,b} and
    power N_a^k (a, b, k < r) has the value at its indices mod m.  A graded
    centre's data repeats mod ord(gamma_A)."""

    r: int
    spaces: dict
    mu: dict
    delta: dict
    eta: SuperMap
    eps: SuperMap
    period: int = field(init=False, compare=False, repr=False)
    # derived structure, filled on first use and keyed mod the period m: each
    # copairing c_a, the powers of each N_a, each handle operator K_{c,a,b},
    # each state K_{1,a,b}(eta) (at most m^2) and each cap eps o K_{c,a,b} (at
    # most m^3).  Not part of the value, and never reassigned after construction.
    _copairings: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _nakayama_powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _handle_operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _handle_states: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _handle_caps: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        r = self.r
        if r < 1:
            raise LambdaFrobeniusError("r must be a positive integer")
        pairs = set(itertools.product(range(r), repeat=2))
        if not (self.spaces.keys() == set(range(r)) and self.mu.keys() == pairs
                and self.delta.keys() == pairs):
            self._check_keys()
        self._check_shapes()
        # while it is sought, every index is read literally
        self.period = r
        self.period = next(m for m in divisors(r) if self.repeats(m))

    def __eq__(self, other):
        """The six fields, for any two LambdaFrobenius, subclasses included; the
        type stays unhashable."""
        if not isinstance(other, LambdaFrobenius):
            return NotImplemented
        fields = ("r", "spaces", "mu", "delta", "eta", "eps")
        return all(getattr(self, f) == getattr(other, f) for f in fields)

    __hash__ = None

    def _check_keys(self):
        """Refuse the first key that is not a pair, lies outside 0..r-1 or is missing."""
        r = self.r
        indices = range(r)
        for name, table in (("mu", self.mu), ("Delta", self.delta)):
            for key in table:
                if not isinstance(key, tuple) or len(key) != 2:
                    raise LambdaFrobeniusError("%s key %r is not a pair of indices"
                                               % (name, key))
        keys = [(a,) for a in self.spaces] + list(self.mu) + list(self.delta)
        outside = [key for key in keys if not all(i in indices for i in key)]
        if outside:
            raise LambdaFrobeniusError("index %r lies outside 0..%d" % (outside[0], r - 1))
        for a in indices:
            if a not in self.spaces:
                raise LambdaFrobeniusError("missing circle space C_%d" % a)
        # the first missing map in the order of the index pairs, mu before Delta
        mu, delta = self.mu, self.delta
        for key in itertools.product(indices, repeat=2):
            if key not in mu:
                raise LambdaFrobeniusError("missing mu_{%d,%d}" % key)
            if key not in delta:
                raise LambdaFrobeniusError("missing Delta_{%d,%d}" % key)

    def _check_shapes(self):
        # every structure map is even and declares its factors, mu and Delta the
        # pair C_a o C_b and eta and eps no unit factor, so that every check
        # reads its matrix over the basis tuples of the same factors; a map's
        # name is formatted only when it fails
        r, spaces = self.r, self.spaces
        for (a, b), m in self.mu.items():
            if (m.parity != 0 or m.source_factors != (spaces[a], spaces[b])
                    or m.target_factors != (spaces[(a + b - 1) % r],)):
                raise LambdaFrobeniusError("mu_{%d,%d} has wrong factors or parity" % (a, b))
        for (a, b), m in self.delta.items():
            if (m.parity != 0 or m.source_factors != (spaces[(a + b + 1) % r],)
                    or m.target_factors != (spaces[a], spaces[b])):
                raise LambdaFrobeniusError("Delta_{%d,%d} has wrong factors or parity" % (a, b))
        for name, m, factors in (("eta", self.eta, ((), (self.space(1),))),
                                 ("eps", self.eps, ((self.space(-1),), ()))):
            if m.parity != 0 or (m.source_factors, m.target_factors) != factors:
                raise LambdaFrobeniusError("%s has wrong factors or parity" % name)

    def repeats(self, m):
        """Whether the data at every index below r has the value at the index mod m."""
        r, spaces = self.r, self.spaces
        if m == r:
            return True
        if any(spaces[a] is not spaces[a % m] for a in range(r)):
            return False
        for maps in (self.mu, self.delta):
            for (a, b), f in maps.items():
                g = maps[a % m, b % m]
                if f != g:
                    return False
        # N_a, built from C_{+-a}, mu_{a,-a}, Delta_{a,-a}, eta and eps, is N_{a mod m}
        return all(self.nakayama_power(a, m) == self.nakayama_power(a, 0) for a in range(m))

    # -- accessors -----------------------------------------------------------

    def space(self, a):
        return self.spaces[a % self.r]

    def mu_map(self, a, b):
        return self.mu[(a % self.r, b % self.r)]

    def delta_map(self, a, b):
        return self.delta[(a % self.r, b % self.r)]

    # -- derived structure ---------------------------------------------------

    def pairing(self, a):
        """p_a = eps o mu_{a,-a} : C_a o C_{-a} -> 1."""
        return compose(self.eps, self.mu_map(a, -a))

    def copairing(self, a):
        """c_a = Delta_{a,-a} o eta : 1 -> C_a o C_{-a}, built once per a mod the period."""
        a %= self.period
        c = self._copairings.get(a)
        if c is None:
            c = self._copairings[a] = compose(self.delta_map(a, -a), self.eta)
        return c

    def nakayama(self, a):
        """N_a = (p_a o id) . (id o c'_a) with c'_a the braided copairing.

        The single strand crossing in the defining zig-zag is realised by
        braiding the copairing legs; the convention is pinned by the twist
        and deck relations plus the graded-centre comparison with gamma_A.
        On a Frobenius algebra (r = 1), N_0 is gamma_A^{-1}.
        """
        return self._nakayama_list(a, 1)[1]

    def nakayama_power(self, a, k):
        """N_a^k, read at a and k mod the period from the powers of N_a."""
        k %= self.period
        return self._nakayama_list(a, k)[k]

    def _nakayama_list(self, a, k):
        """[N_a^0, N_a^1, ...] through N_a^k at least, each one compose above the last."""
        a %= self.period
        powers = self._nakayama_powers.get(a)
        if powers is None:
            # both steps of the zig-zag are whiskers, the first onto id_{C_a},
            # so no tensor of maps is built
            ca, cb = self.space(a), self.space(-a)
            one, crossed = identity(ca), compose(braiding(ca, cb), self.copairing(a))
            zig = whisker(whisker(one, (ca,), crossed, ()), (), self.pairing(a), (ca,))
            powers = self._nakayama_powers[a] = [one, zig]
        while len(powers) <= k:
            powers.append(compose(powers[1], powers[-1]))
        return powers

    def handle_operator(self, c, a, b):
        """K_{a,b} = mu_{a,c-a-1} o (N_a^{1-b} o id) o Delta_{a,c-a-1}: C_c -> C_{c-2},
        built once per (c, a, b) mod the period and kept with the algebra."""
        m = self.period
        key = (c % m, a % m, b % m)
        k = self._handle_operators.get(key)
        if k is None:
            c, a, b = key
            other = (c - a - 1) % m
            n = self.nakayama_power(a, 1 - b)
            k = self._handle_operators[key] = compose(
                self.mu_map(a, other),
                whisker(self.delta_map(a, other), (), n, (self.space(other),)))
        return k

    def handle_state(self, a, b):
        """(C_{-1}, K_{1,a,b}(eta)): the first handle applied to the column of eta,
        a sparse vector {index: nonzero}, built once per (a, b) mod the period."""
        key = (a % self.period, b % self.period)
        state = self._handle_states.get(key)
        if state is None:
            k, eta = self.handle_operator(1, a, b), self.eta
            column = {i: row[0] for i, row in enumerate(eta.entries) if row}
            state = self._handle_states[key] = (k.target, apply(k, eta.target, column))
        return state

    def handle_cap(self, c, a, b):
        """eps o K_{c,a,b} as a Cap on C_c: the row of eps times the stored
        entries of the last handle, built once per (c, a, b) mod the period."""
        m = self.period
        key = (c % m, a % m, b % m)
        cap = self._handle_caps.get(key)
        if cap is None:
            k, eps = self.handle_operator(c, a, b), self.eps
            if k.target is not eps.source:
                raise SuperLinAlgError("composition shape mismatch: %r after %r" % (eps, k))
            cap = self._handle_caps[key] = Cap(k.source, [pullback(eps.entries[0], k.entries)])
        return cap

    def evaluate_handles(self, handles):
        """eps o K_{a_g,b_g} o ... o K_{a_1,b_1} o eta for the holonomy pairs
        handles, in one walk over the tables: one lookup per handle, and a
        miss is built by handle_state, handle_operator or handle_cap.  The
        state K_{1,a_1,b_1}(eta) is carried through the g - 2 middle handle
        operators by apply and paired with the last row, the cap eps o K_{a_g,b_g}
        (eps itself at genus 1 and 0, where eta's column is the state), straight
        to a scalar.  Each step must start on the space the vector lives in."""
        m, g = self.period, len(handles)
        if g:
            a, b = handles[0]
            state = self._handle_states.get((a % m, b % m))
            space, vector = self.handle_state(a, b) if state is None else state
        else:
            eta = self.eta
            space, vector = eta.target, {i: row[0] for i, row in enumerate(eta.entries) if row}
        if g < 2:
            last = self.eps
        else:
            operators = self._handle_operators
            # handle k maps C_{1-2k} to C_{-1-2k}; the last one, k = g - 1, starts on C_{3-2g}
            for k in range(1, g - 1):
                a, b = handles[k]
                c = 1 - 2 * k
                handle = operators.get((c % m, a % m, b % m))
                if handle is None:
                    handle = self.handle_operator(c, a, b)
                vector = apply(handle, space, vector)
                space = handle.target
            a, b = handles[-1]
            c = 3 - 2 * g
            last = self._handle_caps.get((c % m, a % m, b % m))
            if last is None:
                last = self.handle_cap(c, a, b)
        if last.source is not space:
            raise SuperLinAlgError("composition shape mismatch: %r after a vector in %r"
                                   % (last, space))
        return dot(last.entries[0], vector) or _ZERO

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        maps = [self.eta, self.eps] + list(self.mu.values()) + list(self.delta.values())
        return {
            "format": "lambda_frobenius",
            "r": self.r,
            "scalar_order": infer_scalar_order(maps),
            "spaces": {str(a): [self.space(a).even, self.space(a).odd] for a in range(self.r)},
            "mu": {"%d,%d" % key: write_map(m) for key, m in sorted(self.mu.items())},
            "delta": {"%d,%d" % key: write_map(m) for key, m in sorted(self.delta.items())},
            "eta": write_map(self.eta),
            "eps": write_map(self.eps),
        }

    @staticmethod
    def from_dict(data):
        read_keys(data, "lambda_frobenius", ("r", "spaces", "mu", "delta", "eta", "eps"))
        r = read_int(data["r"], "r", 1)
        order = read_int(data.get("scalar_order", 1), "scalar_order", 1)
        spaces = {a: read_space(dims)
                  for (a,), _, dims in read_indexed(data, "spaces", "[0-9]+", r)}

        def space(a):
            if a % r not in spaces:
                raise LambdaFrobeniusError("missing circle space C_%d" % (a % r))
            return spaces[a % r]

        mu = {(a, b): read_map(rows, "mu " + key, order, (space(a), space(b)),
                               (space(a + b - 1),))
              for (a, b), key, rows in read_indexed(data, "mu", "[0-9]+,[0-9]+", r)}
        delta = {(a, b): read_map(rows, "delta " + key, order, (space(a + b + 1),),
                                  (space(a), space(b)))
                 for (a, b), key, rows in read_indexed(data, "delta", "[0-9]+,[0-9]+", r)}
        eta = read_map(data["eta"], "eta", order, (), (space(1),))
        eps = read_map(data["eps"], "eps", order, (space(-1),), ())
        return LambdaFrobenius(r=r, spaces=spaces, mu=mu, delta=delta, eta=eta, eps=eps)


# -- algebra files: one reader and one writer for lambda_frobenius and frobenius_algebra

class AlgebraFileError(ValueError):
    pass


def read_keys(data, kind, keys):
    missing = [k for k in keys if k not in data]
    if missing:
        raise AlgebraFileError("%s data lacks %s" % (kind, ", ".join(missing)))


def read_int(value, name, least):
    """A JSON integer >= least; a bool, a float or a string is refused."""
    if type(value) is not int or value < least:
        raise AlgebraFileError("%s must be an integer >= %d, got %r" % (name, least, value))
    return value


def read_indexed(data, table, pattern, r):
    """(index, key, value) per key of a table.  A key is ASCII digits matching
    pattern, "[0-9]+" for one index and "[0-9]+,[0-9]+" for a pair, and names
    indices in 0..r-1 that no other key of the table names."""
    if not isinstance(data[table], dict):
        raise AlgebraFileError("%s must be a JSON object" % table)
    seen = set()
    for key, value in data[table].items():
        if re.fullmatch(pattern, key) is None:
            raise AlgebraFileError("%s key %r must match %s" % (table, key, pattern))
        index = tuple(int(x) for x in key.split(","))
        if max(index) >= r:
            raise AlgebraFileError("%s key %r has an index outside 0..%d" % (table, key, r - 1))
        if index in seen:
            raise AlgebraFileError("%s key %r repeats the index of another key" % (table, key))
        seen.add(index)
        yield index, key, value


def read_space(dims):
    """A super vector space from its dimensions [even, odd]."""
    if not isinstance(dims, list) or len(dims) != 2:
        raise AlgebraFileError("dimensions must be a pair [even, odd], got %r" % (dims,))
    return SuperSpace(*(read_int(d, "a dimension", 0) for d in dims))


def read_map(rows, name, order, sources, targets):
    """The even map from the tensor product of sources to that of targets whose
    dense matrix rows hold the scalar strings."""
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(isinstance(x, str) for x in row) for row in rows):
        raise AlgebraFileError("%s must be a list of rows of scalar strings" % name)
    parsed = [[parse_scalar(x, order) for x in row] for row in rows]
    return SuperMap(tensor_space(*sources), tensor_space(*targets), 0, parsed, sources, targets)


def write_map(m):
    return [[format_scalar(x) for x in row] for row in m.rows]


def infer_scalar_order(maps):
    """The largest order of an entry of the maps; a rational entry has order 1."""
    return max((x.order for m in maps for stored in m.entries for x in stored.values()),
               default=1)


# -- relation validation -----------------------------------------------------

@dataclass(slots=True)
class ReportEntry:
    family: str
    indices: tuple
    passed: bool


class ValidationReport:
    """The verdicts of one validation.  counts holds [checks, failures] per family,
    and period the m whose index classes were checked.  entries is every check in
    order, one ReportEntry per index tuple below r; its length costs nothing, and
    iterating it replays the index tuples against the verdicts of their classes."""

    def __init__(self, relations, families):
        self.period, self.counts = relations.alg.period, relations.counts
        self.entries = _Entries(relations, families, sum(n for n, _ in self.counts.values()))

    @property
    def ok(self):
        return not any(bad for _, bad in self.counts.values())

    def failures(self):
        return [] if self.ok else [e for e in self.entries if not e.passed]

    def summary(self):
        return "\n".join("%-16s %4d checks, %d failures" % (family, *self.counts[family])
                         for family in sorted(self.counts))


class _Entries:
    """The entries of a report, formed anew by each iteration: the families run over
    every index tuple below r, and each check reads the verdict its key received."""

    def __init__(self, relations, families, size):
        self.relations, self.families, self.size = relations, families, size

    def __len__(self):
        return self.size

    def __iter__(self):
        rel = self.relations
        for checks in self.families:
            for family, indices, source, lhs, rhs in checks(rel, rel.alg.r):
                yield ReportEntry(family, indices, rel.decided(source, lhs, rhs))


def _table(m):
    """{source tuple: [(target tuple, coefficient)]}: the nonzero matrix entries
    of an even map, keyed by the basis tuple of its declared source factors."""
    sources, targets = graded_tuples(m.source_factors), graded_tuples(m.target_factors)
    table = {}
    for i, stored in enumerate(m.entries):
        for j, value in stored.items():
            table.setdefault(sources[j], []).append((targets[i], value))
    return table


class _Relations:
    """The checks of one validation.  A side of a relation is a source (the
    indices a of its factors C_a) and steps (map handle, position), each applying
    the map to the factors from that position on: one sparse dict from basis
    tuples (source, then target) to coefficients.  The first step is read from
    its table's stored nonzeros with the identity on the other factors, so no
    basis tuple outside the support of its map is visited; each later step
    looks up the tuples of the state it is given.  Every map is even, so no
    Koszul sign enters.  A handle names a map's value, so each table is read, each
    side formed and each relation checked once per value: the graded centre
    repeats mu and Delta per index class, as one object or as equal copies.

    A check's key, its source classes and its sides as handles, equals the key at
    its indices mod the algebra's period m, so the families run over the index
    tuples below m only, and each check counts once per index tuple of its class:
    (r/m)^k times for k integer indices."""

    def __init__(self, alg):
        self.alg, self.counts = alg, {}
        self.tables, self.values, self.known, self.sides, self.verdicts = [], {}, {}, {}, {}
        self.braidings = {}
        first = {}
        # equal circle spaces share one source key
        self.space = [first.setdefault(alg.space(a), a) for a in range(alg.r)]
        self.mu = {key: self.handle(m) for key, m in alg.mu.items()}
        self.delta = {key: self.handle(m) for key, m in alg.delta.items()}
        self.eta, self.eps = self.handle(alg.eta), self.handle(alg.eps)

    def handle(self, m):
        """The index in tables of m's value: its factors, parity and sorted stored
        entries.  known keeps m, so no other map takes its id during the call."""
        known = self.known.get(id(m))
        if known is None:
            value = (m.source_factors, m.target_factors, m.parity,
                     tuple(tuple(sorted(stored.items())) for stored in m.entries))
            h = self.values.setdefault(value, len(self.tables))
            if h == len(self.tables):
                self.tables.append((_table(m), len(m.source_factors)))
            known = self.known[id(m)] = (m, h)
        return known[1]

    def nak(self, a, k):
        """The handle of N_a^k, read at a and k mod the period."""
        return self.handle(self.alg.nakayama_power(a, k))

    def braiding(self, a, b):
        """The handle of the braiding C_a o C_b -> C_b o C_a, one per pair of classes."""
        key = (self.space[a], self.space[b])
        if key not in self.braidings:
            self.braidings[key] = self.handle(braiding(self.alg.space(a), self.alg.space(b)))
        return self.braidings[key]

    def check(self, family, indices, source, lhs, rhs):
        """Decide one check of an index class, and count it once per index tuple of
        the class."""
        passed = self.verdict(source, lhs, rhs)
        weight = (self.alg.r // self.alg.period) ** sum(type(i) is int for i in indices)
        count = self.counts.setdefault(family, [0, 0])
        count[0] += weight
        count[1] += 0 if passed else weight

    def key(self, source, lhs, rhs):
        return tuple([self.space[a] for a in source]), lhs, rhs

    def verdict(self, source, lhs, rhs):
        """Whether the two sides agree on the source, decided once per key."""
        key = self.key(source, lhs, rhs)
        passed = self.verdicts.get(key)
        if passed is None:
            passed = self.verdicts[key] = self.side(key[0], lhs) == self.side(key[0], rhs)
        return passed

    def decided(self, source, lhs, rhs):
        """The verdict of a key that the checks of the index classes decided."""
        passed = self.verdicts.get(self.key(source, lhs, rhs))
        if passed is None:
            raise LambdaFrobeniusError("no index class decided the check on %r" % (source,))
        return passed

    def side(self, source, steps):
        if (source, steps) in self.sides:
            return self.sides[source, steps]
        ranges = [range(self.alg.space(a).dim) for a in source]
        if not steps:
            out = {x + x: _ONE for x in itertools.product(*ranges)}
            self.sides[source, steps] = out
            return out
        # the first step applied to the identity of source: the identity on the
        # factors before and after it times each stored nonzero of its map, so
        # no basis tuple outside its support is looked up.  Distinct (source
        # tuple, target) pairs give distinct keys, so nothing sums.
        k, p = steps[0]
        table, width = self.tables[k]
        out = {}
        for head in itertools.product(*ranges[:p]):
            for tail in itertools.product(*ranges[p + width:]):
                for s, images in table.items():
                    x = head + s + tail
                    for t, v in images:
                        out[x + head + t + tail] = v
        for k, p in steps[1:]:
            table, width = self.tables[k]
            p += len(source)
            state, out = out, {}
            for basis, c in state.items():
                head, tail = basis[:p], basis[p + width:]
                for t, v in table.get(basis[p:p + width], ()):
                    t, v = head + t + tail, v if c is _ONE else c * v
                    old = out.pop(t, None)
                    v = v if old is None else old + v
                    if old is None or v:  # a sum may cancel; a product of nonzeros never does
                        out[t] = v
        self.sides[source, steps] = out
        return out


def _untwisted(rel, n):
    """The untwisted families, (co)associativity, (co)unitality and Frobenius, as
    (family, indices, source, lhs, rhs) over the index tuples below n, their sums
    read mod r."""
    r, mu, delta, eta, eps = rel.alg.r, rel.mu, rel.delta, rel.eta, rel.eps
    for a, b, c in itertools.product(range(n), repeat=3):
        ab, bc = (a + b - 1) % r, (b + c - 1) % r
        yield ("associativity", (a, b, c), (a, b, c),
               ((mu[a, b], 0), (mu[ab, c], 0)), ((mu[b, c], 1), (mu[a, bc], 0)))
        ab, bc = (a + b + 1) % r, (b + c + 1) % r
        yield ("coassociativity", (a, b, c), ((ab + c + 1) % r,),
               ((delta[ab, c], 0), (delta[a, b], 0)), ((delta[a, bc], 0), (delta[b, c], 1)))
    for a in range(n):
        yield "unitality", (a, "left"), (a,), ((eta, 0), (mu[1 % r, a], 0)), ()
        yield "unitality", (a, "right"), (a,), ((eta, 1), (mu[a, 1 % r], 0)), ()
        yield "counitality", (a, "left"), (a,), ((delta[r - 1, a], 0), (eps, 0)), ()
        yield "counitality", (a, "right"), (a,), ((delta[a, r - 1], 0), (eps, 1)), ()
    for a, b, c in itertools.product(range(n), repeat=3):
        # on C_a o C_b: (id o mu_{e,b}) o (Delta_{c,e} o id) and (mu_{a,f} o id) o
        # (id o Delta_{f,d}) against Delta_{c,d} o mu_{a,b}, with d = a + b - c - 2
        d, e, f = (a + b - c - 2) % r, (a - c - 1) % r, (c - a + 1) % r
        middle = ((mu[a, b], 0), (delta[c, d], 0))
        yield ("frobenius", (a, b, c, "left"), (a, b),
               ((delta[c, e], 0), (mu[e, b], 1)), middle)
        yield ("frobenius", (a, b, c, "right"), (a, b),
               ((delta[f, d], 1), (mu[a, f], 0)), middle)


def _twisted(rel, n):
    """Twisted commutativity, the twist relations and the deck relation N_a^r = 1,
    as _untwisted writes its families."""
    r, mu, delta, eta = rel.alg.r, rel.mu, rel.delta, rel.eta
    for a, b in itertools.product(range(n), repeat=2):
        # on C_b o C_a: mu_{b,a} o (N_b^{1-a} o id) and mu_{b,a} o (id o N_a^{b-1})
        # against mu_{a,b} o braiding
        braided = ((rel.braiding(b, a), 0), (mu[a, b], 0))
        yield ("commutativity", (a, b, "left"), (b, a),
               ((rel.nak(b, 1 - a), 0), (mu[b, a], 0)), braided)
        yield ("commutativity", (a, b, "right"), (b, a),
               ((rel.nak(a, b - 1), 1), (mu[b, a], 0)), braided)
    # N_a^a is literal (a < m): reducing the power mod r would presuppose deck
    for a in range(n):
        yield "twist_power", (a,), (a,), ((rel.nak(a, a), 0),), ()

    def zigzag(a, b):
        # mu_{a,-a} o (N_a^b o id) o Delta_{a,-a} o eta: 1 -> C_{-1}
        return ((eta, 0), (delta[a, -a % r], 0), (rel.nak(a, b), 0), (mu[a, -a % r], 0))

    for a, b in itertools.product(range(n), repeat=2):
        yield "twist_pairing", (a, b), (), zigzag(a, b), zigzag((a + b - 1) % r, b)
    for a in range(n):
        # the r-th power N_a o N_a^(r-1), never read as N_a^(r mod m) = id
        n_a = rel.handle(rel.alg.nakayama(a))
        yield "deck", (a,), (a,), ((rel.nak(a, r - 1), 0), (n_a, 0)), ()


def _report(alg, families):
    rel = _Relations(alg)
    for checks in families:
        for check in checks(rel, alg.period):
            rel.check(*check)
    return ValidationReport(rel, families)


def frobenius_report(alg):
    """The report of the untwisted families, (co)associativity, (co)unitality and
    Frobenius.  At r = 1, where C_{-1} = C_0 = C_1, they are the Frobenius algebra
    axioms."""
    return _report(alg, (_untwisted,))


def validate(alg):
    """Check all six relation families of the structure, exactly, in a fixed order:
    (co)associativity, (co)unitality, Frobenius, twisted commutativity, the twist
    relations and the deck transformation relation N_a^r = 1, each as a contraction
    decided once per index class mod the period of the data."""
    return _report(alg, (_untwisted, _twisted))
