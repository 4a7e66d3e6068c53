"""Closed Lambda_r-Frobenius algebras in super vector spaces.

The structure is a Z_r-graded family of circle spaces C_a with graded
multiplication mu_{a,b}: C_a o C_b -> C_{a+b-1}, unit eta: 1 -> C_1,
comultiplication Delta_{a,b}: C_{a+b+1} -> C_a o C_b and counit
eps: C_{-1} -> 1, together with the Nakayama automorphisms N_a built from
the pairing/copairing zig-zag.  validate() checks every defining relation
family exactly over all index tuples: the r^3 families (co)associativity
and Frobenius from tables of the structure constants of mu and Delta, the
smaller ones as identities of composed maps.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .scalars import format_scalar, parse_scalar
from .superlinalg import (
    SuperMap,
    SuperSpace,
    UNIT_SPACE,
    braiding,
    compose,
    graded_tuples,
    identity,
    tensor,
    tensor_space,
    whisker,
)


class LambdaFrobeniusError(ValueError):
    pass


@dataclass
class LambdaFrobenius:
    """The tuple ({C_a}, mu_{a,b}, eta, Delta_{a,b}, eps), keyed by indices in 0..r-1;
    the accessors read any index mod r."""

    r: int
    spaces: dict
    mu: dict
    delta: dict
    eta: SuperMap
    eps: SuperMap
    # derived structure, filled on first use: the literal powers of each N_a and
    # each handle operator K_{c,a,b}.  Not part of the value, and never
    # reassigned after construction.
    _nakayama_powers: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _handle_operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        r = self.r
        if r < 1:
            raise LambdaFrobeniusError("r must be a positive integer")
        keys = [(a,) for a in self.spaces] + list(self.mu) + list(self.delta)
        outside = [key for key in keys if not all(i in range(r) for i in key)]
        if outside:
            raise LambdaFrobeniusError("index %r lies outside 0..%d" % (outside[0], r - 1))
        for a in range(r):
            if a not in self.spaces:
                raise LambdaFrobeniusError("missing circle space C_%d" % a)
        for a in range(r):
            for b in range(r):
                if (a, b) not in self.mu:
                    raise LambdaFrobeniusError("missing mu_{%d,%d}" % (a, b))
                if (a, b) not in self.delta:
                    raise LambdaFrobeniusError("missing Delta_{%d,%d}" % (a, b))
        self._check_shapes()

    def _check_shapes(self):
        # mu and Delta declare the factors C_a o C_b, so that every check reads
        # their matrices over the same graded basis of pairs
        for (a, b), m in self.mu.items():
            factors = ((self.space(a), self.space(b)), (self.space(a + b - 1),))
            if m.parity != 0 or (m.source_factors, m.target_factors) != factors:
                raise LambdaFrobeniusError("mu_{%d,%d} has wrong factors or parity" % (a, b))
        for (a, b), m in self.delta.items():
            factors = ((self.space(a + b + 1),), (self.space(a), self.space(b)))
            if m.parity != 0 or (m.source_factors, m.target_factors) != factors:
                raise LambdaFrobeniusError("Delta_{%d,%d} has wrong factors or parity" % (a, b))
        if self.eta.parity != 0 or self.eta.source != UNIT_SPACE \
                or self.eta.target != self.space(1):
            raise LambdaFrobeniusError("eta has wrong shape or parity")
        if self.eps.parity != 0 or self.eps.source != self.space(-1) \
                or self.eps.target != UNIT_SPACE:
            raise LambdaFrobeniusError("eps has wrong shape or parity")

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
        """c_a = Delta_{a,-a} o eta : 1 -> C_a o C_{-a}."""
        return compose(self.delta_map(a, -a), self.eta)

    def nakayama(self, a):
        """N_a = (p_a o id) . (id o c'_a) with c'_a the braided copairing.

        The single strand crossing in the defining zig-zag is realised by
        braiding the copairing legs; the convention is pinned by the twist
        and deck relations plus the graded-centre comparison with gamma_A.
        """
        return self._nakayama_list(a, 1)[1]

    def nakayama_power(self, a, k):
        """N_a^(k mod r), read from the literal powers of N_a."""
        k %= self.r
        return self._nakayama_list(a, k)[k]

    def _nakayama_list(self, a, k):
        """[N_a^0, N_a^1, ...] through N_a^k at least, each one compose above the last."""
        a %= self.r
        powers = self._nakayama_powers.get(a)
        if powers is None:
            ca = self.space(a)
            zig = nakayama_zigzag(self.pairing(a), self.copairing(a), ca, self.space(-a))
            powers = self._nakayama_powers[a] = [identity(ca), zig]
        while len(powers) <= k:
            powers.append(compose(powers[1], powers[-1]))
        return powers

    def handle_operator(self, c, a, b):
        """K_{a,b} = mu_{a,c-a-1} o (N_a^{1-b} o id) o Delta_{a,c-a-1}: C_c -> C_{c-2},
        built once per (c, a, b) mod r and kept with the algebra."""
        r = self.r
        key = (c % r, a % r, b % r)
        k = self._handle_operators.get(key)
        if k is None:
            other = (c - a - 1) % r
            n = self.nakayama_power(a, 1 - b)
            k = self._handle_operators[key] = compose(
                whisker(self.mu_map(a, other), (), n, (self.space(other),)),
                self.delta_map(a, other))
        return k

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

        mu, delta = {}, {}
        for (a, b), key, rows in read_indexed(data, "mu", "[0-9]+,[0-9]+", r):
            mu[(a, b)] = read_map(rows, "mu " + key, order, (space(a), space(b)),
                                  (space(a + b - 1),))
        for (a, b), key, rows in read_indexed(data, "delta", "[0-9]+,[0-9]+", r):
            delta[(a, b)] = read_map(rows, "delta " + key, order, (space(a + b + 1),),
                                     (space(a), space(b)))
        eta = read_map(data["eta"], "eta", order, (), (space(1),))
        eps = read_map(data["eps"], "eps", order, (space(-1),), ())
        return LambdaFrobenius(r=r, spaces=spaces, mu=mu, delta=delta, eta=eta, eps=eps)


def nakayama_zigzag(pairing, copairing, left, right):
    """(p o id) . (id o b.c) on left, with b braiding the legs of c: 1 -> left o right;
    N_a for (C_a, C_{-a}) and gamma_A^{-1} for (A, A)."""
    crossed = compose(braiding(left, right), copairing)
    return whisker(tensor(identity(left), crossed), (), pairing, (left,), g_first=True)


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
    seen = set()
    for key, value in read_table(data, table).items():
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


def read_table(data, key):
    if not isinstance(data[key], dict):
        raise AlgebraFileError("%s must be a JSON object" % key)
    return data[key]


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


@dataclass
class ValidationReport:
    entries: list

    @property
    def ok(self):
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def summary(self):
        fams = {}
        for e in self.entries:
            done, bad = fams.get(e.family, (0, 0))
            fams[e.family] = (done + 1, bad + (0 if e.passed else 1))
        lines = []
        for fam in sorted(fams):
            done, bad = fams[fam]
            lines.append("%-16s %4d checks, %d failures" % (fam, done, bad))
        return "\n".join(lines)


def _entry(report, family, indices, lhs, rhs):
    report.append(ReportEntry(family, indices, lhs == rhs))


def _mu_table(m, left, right):
    """{(x, y): [(t, coefficient)]}: the nonzero structure constants of
    m: left o right -> C, keyed by the basis pair of its source."""
    pairs = graded_tuples([left, right])
    table = {}
    for t, stored in enumerate(m.entries):
        for k, value in stored.items():
            table.setdefault(pairs[k], []).append((t, value))
    return table


def _delta_table(m, left, right):
    """{s: [((x, y), coefficient)]}: the nonzero structure constants of
    m: C -> left o right, keyed by the basis vector of its source."""
    pairs = graded_tuples([left, right])
    table = {}
    for k, stored in enumerate(m.entries):
        for s, value in stored.items():
            table.setdefault(s, []).append((pairs[k], value))
    return table


def _add(out, key, value):
    """out[key] += value in a sparse dict; a sum may cancel, a product of nonzeros never does."""
    old = out.get(key)
    if old is None:
        out[key] = value
    else:
        value = old + value
        if value:
            out[key] = value
        else:
            del out[key]


def frobenius_entries(alg):
    """The entries of the untwisted families, (co)associativity, (co)unitality
    and Frobenius, over every index tuple.  At r = 1, where C_{-1} = C_0 = C_1,
    they are exactly the axioms of a Frobenius algebra.

    The r^3 families read mu and Delta once, as tables of structure
    constants, and form both sides of each relation as a sparse dict from
    basis tuples (source indices, then target indices) to coefficients; no
    map is built per index tuple.  mu and Delta are even (_check_shapes), so
    no Koszul sign enters.
    """
    r = alg.r
    entries = []
    dims = [alg.space(a).dim for a in range(r)]
    mu, delta = {}, {}
    for a in range(r):
        for b in range(r):
            mu[a, b] = _mu_table(alg.mu[a, b], alg.space(a), alg.space(b))
            delta[a, b] = _delta_table(alg.delta[a, b], alg.space(a), alg.space(b))

    for a, b, c in itertools.product(range(r), repeat=3):
        # on x o y o z: mu_{a+b-1,c} o (mu_{a,b} o id) and mu_{a,b+c-1} o (id o mu_{b,c})
        outer, lhs = mu[(a + b - 1) % r, c], {}
        for (x, y), images in mu[a, b].items():
            for u, s in images:
                for z in range(dims[c]):
                    for t, v in outer.get((u, z), ()):
                        _add(lhs, (x, y, z, t), s * v)
        outer, rhs = mu[a, (b + c - 1) % r], {}
        for (y, z), images in mu[b, c].items():
            for u, s in images:
                for x in range(dims[a]):
                    for t, v in outer.get((x, u), ()):
                        _add(rhs, (x, y, z, t), s * v)
        entries.append(ReportEntry("associativity", (a, b, c), lhs == rhs))
        # on k: (Delta_{a,b} o id) o Delta_{a+b+1,c} and (id o Delta_{b,c}) o Delta_{a,b+c+1}
        inner, lhs = delta[a, b], {}
        for k, images in delta[(a + b + 1) % r, c].items():
            for (u, z), s in images:
                for (x, y), v in inner.get(u, ()):
                    _add(lhs, (k, x, y, z), s * v)
        inner, rhs = delta[b, c], {}
        for k, images in delta[a, (b + c + 1) % r].items():
            for (x, u), s in images:
                for (y, z), v in inner.get(u, ()):
                    _add(rhs, (k, x, y, z), s * v)
        entries.append(ReportEntry("coassociativity", (a, b, c), lhs == rhs))

    ids = {a: identity(alg.space(a)) for a in range(r)}
    # the factor list of C_a, for the identity whiskers around a structure map
    side = {a: (alg.space(a),) for a in range(r)}
    for a in range(r):
        left = whisker(alg.mu_map(1, a), (), alg.eta, side[a])
        right = whisker(alg.mu_map(a, 1), side[a], alg.eta, ())
        _entry(entries, "unitality", (a, "left"), left, ids[a])
        _entry(entries, "unitality", (a, "right"), right, ids[a])
        left = whisker(alg.delta_map(-1, a), (), alg.eps, side[a], g_first=True)
        right = whisker(alg.delta_map(a, -1), side[a], alg.eps, (), g_first=True)
        _entry(entries, "counitality", (a, "left"), left, ids[a])
        _entry(entries, "counitality", (a, "right"), right, ids[a])

    for a, b, c in itertools.product(range(r), repeat=3):
        # on x o y: Delta_{c,d} o mu_{a,b}, (id o mu_{a-c-1,b}) o (Delta_{c,a-c-1} o id)
        # and (mu_{a,c-a+1} o id) o (id o Delta_{c-a+1,d}), with d = a + b - c - 2
        d, e, f = (a + b - c - 2) % r, (a - c - 1) % r, (c - a + 1) % r
        split, middle = delta[c, d], {}
        for (x, y), images in mu[a, b].items():
            for t, s in images:
                for (u, w), v in split.get(t, ()):
                    _add(middle, (x, y, u, w), s * v)
        outer, lhs = mu[e, b], {}
        for x, images in delta[c, e].items():
            for (u, t), s in images:
                for y in range(dims[b]):
                    for w, v in outer.get((t, y), ()):
                        _add(lhs, (x, y, u, w), s * v)
        outer, rhs = mu[a, f], {}
        for y, images in delta[f, d].items():
            for (t, w), s in images:
                for x in range(dims[a]):
                    for u, v in outer.get((x, t), ()):
                        _add(rhs, (x, y, u, w), s * v)
        entries.append(ReportEntry("frobenius", (a, b, c, "left"), lhs == middle))
        entries.append(ReportEntry("frobenius", (a, b, c, "right"), rhs == middle))
    return entries


def validate(alg):
    """Check all six relation families of the structure, exactly.

    Families: (co)associativity, (co)unitality, Frobenius, twisted
    commutativity, twist relations, and the deck transformation relation
    N_a^r = 1.  Iteration order is fixed, so the report is deterministic.
    """
    r = alg.r
    entries = frobenius_entries(alg)
    ids = {a: identity(alg.space(a)) for a in range(r)}
    side = {a: (alg.space(a),) for a in range(r)}

    for a in range(r):
        for b in range(r):
            braided = compose(alg.mu_map(a, b), braiding(alg.space(b), alg.space(a)))
            lhs = whisker(alg.mu_map(b, a), (), alg.nakayama_power(b, 1 - a), side[a])
            rhs = whisker(alg.mu_map(b, a), side[b], alg.nakayama_power(a, b - 1), ())
            _entry(entries, "commutativity", (a, b, "left"), lhs, braided)
            _entry(entries, "commutativity", (a, b, "right"), rhs, braided)

    for a in range(r):
        # a < r, so this power is literal: reducing mod r would presuppose deck
        _entry(entries, "twist_power", (a,), alg.nakayama_power(a, a), ids[a])
    # the zig-zag mu_{a,-a} o (N_a^b o id) o c_a is K_{1,a,1-b} o eta; the
    # relation equates the zig-zags at (a, b) and (a + b - 1, b)
    zigzags = {(a, b): compose(alg.handle_operator(1, a, 1 - b), alg.eta)
               for a in range(r) for b in range(r)}
    for a in range(r):
        for b in range(r):
            _entry(entries, "twist_pairing", (a, b), zigzags[(a, b)],
                   zigzags[((a + b - 1) % r, b)])

    for a in range(r):
        # the literal r-th power, never read as N_a^(r mod r) = id
        deck = compose(alg.nakayama(a), alg.nakayama_power(a, r - 1))
        _entry(entries, "deck", (a,), deck, ids[a])

    return ValidationReport(entries)

