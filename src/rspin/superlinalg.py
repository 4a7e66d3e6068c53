"""Z2-graded linear algebra over Q(zeta_r) with the Koszul sign rule.

Bases are always ordered even part first, then odd part.  A tensor product
of spaces enumerates basis tuples lexicographically and regrades them into
(even, odd) blocks; every map records the factor list of its source and
target, and n-ary tensors of maps are always formed over the flat factor
lists so that no associator bookkeeping is ever needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .scalars import Cyc, as_cyc


class SuperLinAlgError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SuperSpace:
    even: int
    odd: int

    @property
    def dim(self):
        return self.even + self.odd

    def parity(self, index):
        return 0 if index < self.even else 1

    def __repr__(self):
        return "(%d|%d)" % (self.even, self.odd)


UNIT_SPACE = SuperSpace(1, 0)
_ZERO = Cyc.zero()
_ONE = Cyc.one()


@lru_cache(maxsize=256)
def _graded_rank(spaces):
    """Graded index of every basis tuple of a flat tensor product.

    Entry k belongs to the tuple whose mixed-radix code over the factor
    dimensions is k (the lexicographic position of the tuple); evens keep
    their lexicographic order ahead of the odds.
    """
    parities = [0]
    for s in spaces:
        parities = [p ^ (i >= s.even) for p in parities for i in range(s.dim)]
    rank = []
    even, odd = 0, len(parities) - sum(parities)
    for p in parities:
        if p:
            rank.append(odd)
            odd += 1
        else:
            rank.append(even)
            even += 1
    return tuple(rank)


def graded_tuples(spaces):
    """Basis tuples of a flat tensor product, evens (lex) then odds (lex): a new list."""
    return list(_graded_tuples(tuple(spaces)))


@lru_cache(maxsize=256)
def _graded_tuples(spaces):
    rank = _graded_rank(spaces)
    out = [None] * len(rank)
    for k, combo in zip(rank, itertools.product(*[range(s.dim) for s in spaces])):
        out[k] = combo
    return tuple(out)


def pair_index(space):
    """{(i, j): k}: the graded index k of the basis pair (i, j) of space o space."""
    return {t: k for k, t in enumerate(graded_tuples([space, space]))}


def _parity_split(spaces):
    """(dim, odd dim) of the tensor product of spaces in closed form:
    odd = (prod dim - prod (even - odd)) / 2."""
    total = signed = 1
    for s in spaces:
        total *= s.even + s.odd
        signed *= s.even - s.odd
    return total, (total - signed) // 2


def tensor_space(*spaces):
    """The tensor product of spaces, its parity split in closed form."""
    total, odd = _parity_split(spaces)
    return SuperSpace(total - odd, odd)


def _declared_factors(factors, space, side):
    """The declared factor list as a tuple, (space,) if none; refuses a list
    whose product is not space.  One factor multiplies out to itself, so it is
    compared with space; a longer list is checked by the closed form of its
    parity split, with no space built."""
    if factors is None:
        return (space,)
    factors = tuple(factors)
    if len(factors) == 1:
        product = factors[0]
        fits = product is space or product == space
    else:
        total, odd = _parity_split(factors)
        fits = odd == space.odd and total - odd == space.even
    if not fits:
        raise SuperLinAlgError("declared %s factors do not multiply out to the %s"
                               % (side, side))
    return factors


@lru_cache(maxsize=256)
def _tensor_layout(groups):
    """Flat graded index of each combination of per-group graded indices.

    groups is a tuple of factor lists; entry k of the result belongs to the
    combination (j_1, ..., j_n) whose mixed-radix code over the group
    dimensions is k, where j_m indexes the graded basis of group m.
    """
    flat = _graded_rank(tuple(s for group in groups for s in group))
    codes = [0]
    for group in groups:
        rank = _graded_rank(group)
        lex = [0] * len(rank)
        for code, k in enumerate(rank):
            lex[k] = code
        size = len(lex)
        codes = [c * size + x for c in codes for x in lex]
    return tuple(flat[c] for c in codes)


class SuperMap:
    """Parity-homogeneous linear map in the fixed graded bases.

    entries[i] maps a source index j to the coefficient of target basis
    vector i in the image of source basis vector j; only nonzero
    coefficients are stored, so equal maps store equal entries.  Give the
    matrix either as dense rows (zeros are dropped) or as entries, which
    must hold no zero and become the map's own.  rows is the dense matrix,
    rebuilt from the entries on each access.  Block structure is enforced:
    an entry may be nonzero only if parity(target i) = parity(source j) +
    parity(map).  The declared source and target factor lists must multiply
    out to the source and target: a one-factor list is compared with its
    space, and a longer one is checked by the closed form of its parity
    split, with no space built.
    """

    __slots__ = ("source", "target", "parity", "entries", "source_factors", "target_factors")

    def __init__(self, source, target, parity, rows=None, source_factors=None,
                 target_factors=None, *, entries=None):
        self.source = source
        self.target = target
        self.parity = parity % 2
        if (rows is None) == (entries is None):
            raise SuperLinAlgError("give the matrix as exactly one of rows and entries")
        sdim = source.dim
        if rows is not None:
            if len(rows) != target.dim or any(len(r) != sdim for r in rows):
                raise SuperLinAlgError("matrix shape does not match spaces")
            entries = []
            for row in rows:
                stored = {}
                for j, x in enumerate(row):
                    if x.__class__ is not Cyc:
                        x = as_cyc(x)
                    if x:
                        stored[j] = x
                entries.append(stored)
        elif len(entries) != target.dim:
            raise SuperLinAlgError("matrix shape does not match spaces")
        self.entries = entries
        # the entries of row i may only sit in source columns of parity
        # parity(i) + |f|: the evens [0, source.even) or the odds after them
        split, target_even = source.even, target.even
        for i, stored in enumerate(entries):
            if not stored:
                continue
            lo, hi = (split, sdim) if (i >= target_even) != self.parity else (0, split)
            if min(stored) < lo or max(stored) >= hi:
                j = min(k for k in stored if not lo <= k < hi)
                if not 0 <= j < sdim:
                    raise SuperLinAlgError("entry (%d,%d) lies outside the matrix" % (i, j))
                raise SuperLinAlgError(
                    "entry (%d,%d) violates the parity block structure" % (i, j))
        self.source_factors = _declared_factors(source_factors, source, "source")
        self.target_factors = _declared_factors(target_factors, target, "target")

    @property
    def rows(self):
        """The dense matrix: rows[i][j], zeros included (a fresh copy)."""
        dim = self.source.dim
        out = []
        for stored in self.entries:
            row = [_ZERO] * dim
            for j, x in stored.items():
                row[j] = x
            out.append(row)
        return out

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero(source, target):
        return SuperMap(source, target, 0, entries=[{} for _ in range(target.dim)])

    # -- algebra -------------------------------------------------------------

    def scale(self, scalar):
        scalar = as_cyc(scalar)
        if scalar:
            entries = [{j: scalar * x for j, x in stored.items()} for stored in self.entries]
        else:
            entries = [{} for _ in self.entries]
        return SuperMap(self.source, self.target, self.parity, None,
                        self.source_factors, self.target_factors, entries=entries)

    def __add__(self, other):
        if (self.source, self.target, self.parity) != (other.source, other.target, other.parity):
            raise SuperLinAlgError("cannot add maps of different shapes or parities")
        entries = []
        for mine, theirs in zip(self.entries, other.entries):
            total = dict(mine)
            for j, y in theirs.items():
                x = total.get(j)
                if x is None:
                    total[j] = y
                else:
                    x = x + y
                    if x:
                        total[j] = x
                    else:
                        del total[j]
            entries.append(total)
        return SuperMap(self.source, self.target, self.parity, None,
                        self.source_factors, self.target_factors, entries=entries)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, SuperMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.parity == other.parity and self.entries == other.entries)

    def is_zero(self):
        return not any(self.entries)

    def column(self, j):
        return [stored.get(j, _ZERO) for stored in self.entries]

    def __repr__(self):
        return "SuperMap(%r -> %r, parity %d)" % (self.source, self.target, self.parity)


def identity(space):
    return SuperMap(space, space, 0, None, entries=[{i: _ONE} for i in range(space.dim)])


def compose(g, f):
    if f.target is not g.source and f.target != g.source:
        raise SuperLinAlgError("composition shape mismatch: %r after %r" % (g, f))
    f_entries = f.entries
    return SuperMap(f.source, g.target, (f.parity + g.parity) % 2, None,
                    f.source_factors, g.target_factors,
                    entries=[pullback(g_row, f_entries) for g_row in g.entries])


def pullback(row, f_entries):
    """The row vector row . f = {j: nonzero} for a row {t: nonzero} on f's
    target and f's stored entries: one row of a composite, with no map built."""
    out = {}
    for t, gv in row.items():
        for j, fv in f_entries[t].items():
            value = fv if gv is _ONE else gv if fv is _ONE else gv * fv
            old = out.get(j)
            if old is None:
                out[j] = value
            else:
                # a sum may cancel; products of nonzeros never do
                value = old + value
                if value:
                    out[j] = value
                else:
                    del out[j]
    return out


def apply(f, space, vector):
    """f(v) = {index: nonzero} for a vector v = {index: nonzero} of the space
    `space`: one pass over the stored rows of f, which must start on that space.
    f is a SuperMap, or any object with a source and entries of that layout."""
    if f.source is not space and f.source != space:
        raise SuperLinAlgError("composition shape mismatch: %r after a vector in %r"
                               % (f, space))
    out = {}
    for i, row in enumerate(f.entries):
        total = None
        for j, fv in row.items():
            x = vector.get(j)
            if x is not None:
                value = x if fv is _ONE else fv if x is _ONE else fv * x
                total = value if total is None else total + value
        if total:
            out[i] = total
    return out


def tensor(*maps):
    """Flat graded tensor product of maps with Koszul signs.

    (f1 x ... x fn)(v1 x ... x vn) = sign * f1(v1) x ... x fn(vn) with
    sign = prod_m (-1)^(|f_m| * (|v_1| + ... + |v_{m-1}|)).

    Every map's matrix is indexed by the graded-tuple basis over its
    declared factor list, and the result is indexed over the concatenation
    of those lists; composites therefore never need associators.  It is
    (f1 x 1 x ... x 1) o ... o (1 x ... x 1 x fn) o id, each map whiskered
    onto the identity from the right, and whisker's sign (-1)^(|f_m||l|) is
    the Koszul sign.  An id x f or f x id alone is one whisker of an existing
    map, whisker(h, left, f, right), with no identity built here.
    """
    if not maps:
        return identity(UNIT_SPACE)
    src = tuple(s for m in maps for s in m.source_factors)
    space = tensor_space(*src)
    result = SuperMap(space, space, 0, None, src, src,
                      entries=[{i: _ONE} for i in range(space.dim)])
    # map m sits between the sources of the maps before it and the targets after it
    left, right = len(src), ()
    for m in reversed(maps):
        left -= len(m.source_factors)
        result = whisker(result, src[:left], m, right)
        right = m.target_factors + right
    return result


@lru_cache(maxsize=256)
def _whisker_plan(left, source, target, right):
    """Positions for id_left o f o id_right with f from source to target (factor lists).

    Returns (flat, split, odd_left, right dim, source space, target space).
    flat[(l * dim source + j) * dim right + w] is the graded index of the
    basis vector l o j o w over left + source + right, where l, j and w
    index the graded bases of the three groups; split[k] = (l, i, w) for
    the basis vector of graded index k over left + target + right;
    odd_left[l] is the parity of l.
    """
    n_right = tensor_space(*right).dim
    stride = tensor_space(*target).dim * n_right
    split = [None] * tensor_space(*left, *target, *right).dim
    for code, k in enumerate(_tensor_layout((left, target, right))):
        l, rest = divmod(code, stride)
        split[k] = (l, *divmod(rest, n_right))
    left_space = tensor_space(*left)
    odd_left = tuple(l >= left_space.even for l in range(left_space.dim))
    return (_tensor_layout((left, source, right)), tuple(split), odd_left, n_right,
            tensor_space(*left, *source, *right), tensor_space(*left, *target, *right))


def whisker(g, left, f, right):
    """W o g for the whiskered map W = id_left o f o id_right.

    left and right are factor lists, and W(l o v o w) = (-1)^(|f||l|) l o f(v) o w
    over the flat lists left + f's factors + right; g lands in
    left + f.source_factors + right.  W itself is never built: every entry of
    the composite is a sum over the stored entries of f and g.  Whiskering the
    identity gives id_left o f o id_right; tensor is built from it.
    """
    left, right = tuple(left), tuple(right)
    src_flat, tgt_split, odd_left, n_right, src_space, tgt_space = _whisker_plan(
        left, f.source_factors, f.target_factors, right)
    if g.target != src_space:
        raise SuperLinAlgError("composition shape mismatch: whiskered %r after %r" % (f, g))
    n_src, f_entries, odd_f, g_entries = f.source.dim, f.entries, f.parity, g.entries
    entries = []
    # row (l, i, w) of W o g is the sum over j of +-f[i][j] times row (l, j, w) of g
    for l, i, w in tgt_split:
        out = {}
        negate = odd_f and odd_left[l]
        base = l * n_src
        for j, fv in f_entries[i].items():
            if negate:
                fv = -fv
            for s, gv in g_entries[src_flat[(base + j) * n_right + w]].items():
                value = gv if fv is _ONE else fv if gv is _ONE else fv * gv
                old = out.get(s)
                if old is None:
                    out[s] = value
                else:
                    value = old + value
                    if value:
                        out[s] = value
                    else:
                        del out[s]
        entries.append(out)
    return SuperMap(g.source, tgt_space, f.parity + g.parity, None,
                    g.source_factors, left + f.target_factors + right, entries=entries)


def braiding(v, w):
    """b_{V,W}(x o y) = (-1)^{|x||y|} y o x."""
    src_rank = _graded_rank((v, w))
    tgt_rank = _graded_rank((w, v))
    minus = -_ONE
    entries = [{} for _ in tgt_rank]
    for a in range(v.dim):
        for b in range(w.dim):
            sign = minus if (a >= v.even and b >= w.even) else _ONE
            entries[tgt_rank[b * v.dim + a]][src_rank[a * w.dim + b]] = sign
    return SuperMap(tensor_space(v, w), tensor_space(w, v), 0, None,
                    (v, w), (w, v), entries=entries)


def quantum_dimension(space):
    """Supertrace of the identity with the Koszul braiding: even - odd."""
    return space.even - space.odd


def supertrace(f):
    if f.source != f.target:
        raise SuperLinAlgError("supertrace requires an endomorphism")
    total = Cyc.zero()
    for i, stored in enumerate(f.entries):
        term = stored.get(i)
        if term is not None:
            total = total - term if f.source.parity(i) else total + term
    return total


# -- exact elimination over Q(zeta_r) ----------------------------------------
#
# A matrix is given as sparse rows, the layout of SuperMap.entries: rows[i]
# maps a column index to the entry in row i.

class SparseEchelon:
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


def _columns(rows):
    """The nonzero entries of a sparse matrix by column: {j: {i: entry}}."""
    cols = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            if x:
                cols.setdefault(j, {})[i] = x
    return cols


def _column_echelon(rows, ncols):
    """(echelon, pivot columns, kernel rows) of the matrix, column by column.

    Column j is fed in order with tracking coordinate -1 - j.  It leaves a
    nonzero row exactly when it lies outside the span of the columns before
    it, so the pivot columns are those of the reduced row echelon form.  A
    column that reduces to tracking coordinates alone is a kernel vector
    with coefficient 1 at j, supported on j and the pivot columns before it:
    the kernel vector the reduced row echelon form gives for free column j.
    """
    cols = _columns(rows)
    echelon = SparseEchelon()
    pivots, kernel = [], []
    for j in range(ncols):
        col = cols.get(j, {})
        col[-1 - j] = _ONE
        key, reduced = echelon.add(col)
        if key is None:
            kernel.append(reduced)
        else:
            pivots.append(j)
    return echelon, pivots, kernel


def kernel_of_matrix(rows, ncols):
    """Basis of the kernel of the sparse matrix, as dense coordinate vectors."""
    _, _, kernel = _column_echelon(rows, ncols)
    return [[vec.get(-1 - j, _ZERO) for j in range(ncols)] for vec in kernel]


def solve_exact(a_rows, b_rows, ncols_a):
    """The unique X with A X = B, all three as sparse rows.

    Each column b of B is reduced against the column echelon of A; it
    leaves tracking coordinates t alone exactly when b + sum_j t_j a_j = 0,
    and then x_j = -t_j.  Raises SuperLinAlgError when the columns of A
    are dependent or the system is inconsistent.
    """
    echelon, _, kernel = _column_echelon(a_rows, ncols_a)
    if kernel:
        raise SuperLinAlgError("the columns of A are dependent; the solution is not unique")
    x = [{} for _ in range(ncols_a)]
    for k, col in _columns(b_rows).items():
        key, reduced = echelon.reduce(col)
        if key is not None:
            raise SuperLinAlgError("inconsistent linear system")
        for t, value in reduced.items():
            x[-1 - t][k] = -value
    return x


def kernel_basis(f):
    """Kernel basis; every vector is parity-homogeneous, evens first.

    The parity blocks of f keep even and odd source columns in disjoint
    target rows, so no elimination step mixes them.
    """
    return kernel_of_matrix(f.entries, f.source.dim)


def image_basis(f):
    """Parity-homogeneous image basis (pivot columns of the matrix), evens first."""
    _, pivots, _ = _column_echelon(f.entries, f.source.dim)
    pivots.sort(key=lambda j: (f.source.parity(j) + f.parity) % 2)
    return [f.column(j) for j in pivots]


def split_idempotent(p):
    """Split an even idempotent p = incl o proj with proj o incl = id; raise on
    any other p.  incl (an image basis) is injective and proj onto, so
    p o p = incl o (proj o incl) o proj is p iff proj o incl = id."""
    if p.parity != 0:
        raise SuperLinAlgError("idempotent must be even")
    cols = image_basis(p)
    even = sum(1 for col in cols
               if all(not x for i, x in enumerate(col) if p.target.parity(i) == 1))
    image = SuperSpace(even, len(cols) - even)
    incl_rows = [[col[i] for col in cols] for i in range(p.target.dim)]
    incl = SuperMap(image, p.target, 0, incl_rows)
    proj = SuperMap(p.source, image, 0, None,
                    entries=solve_exact(incl.entries, p.entries, len(cols)))
    # solve_exact gives incl o proj = p, so this is p o p = p
    if compose(proj, incl) != identity(image):
        raise SuperLinAlgError("map is not idempotent")
    return incl, proj, image
