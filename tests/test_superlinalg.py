import copy
import itertools
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rspin.scalars import Cyc, as_cyc
from rspin.superlinalg import (
    SuperLinAlgError,
    SuperMap,
    SuperSpace,
    braiding,
    compose,
    graded_tuples,
    identity,
    image_basis,
    kernel_basis,
    kernel_of_matrix,
    pair_index,
    quantum_dimension,
    solve_exact,
    split_idempotent,
    supertrace,
    tensor,
    tensor_space,
    whisker,
)
from rspin import superlinalg


def smap(se, so, te, to, parity, rows):
    return SuperMap(SuperSpace(se, so), SuperSpace(te, to), parity, rows)


def random_homogeneous(rng, source, target, parity):
    rows = []
    for i in range(target.dim):
        row = []
        for j in range(source.dim):
            if target.parity(i) == (source.parity(j) + parity) % 2:
                row.append(Cyc.rational(rng.randint(-3, 3)))
            else:
                row.append(Cyc.zero())
        rows.append(row)
    return SuperMap(source, target, parity, rows)


def test_compose_examples():
    f = smap(2, 0, 2, 0, 0, [[1, 2], [3, 4]])
    g = smap(2, 0, 2, 0, 0, [[0, 1], [1, 0]])
    assert compose(identity(f.target), f) == f
    # hand product: g*f swaps rows of f
    assert compose(g, f).rows == smap(2, 0, 2, 0, 0, [[3, 4], [1, 2]]).rows
    odd = smap(1, 1, 1, 1, 1, [[0, 1], [1, 0]])
    assert compose(odd, odd).parity == 0


def test_compose_shape_mismatch():
    f = smap(2, 0, 2, 0, 0, [[1, 0], [0, 1]])
    g = smap(3, 0, 3, 0, 0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(SuperLinAlgError):
        compose(g, f)


def test_compose_refuses_spaces_of_one_dimension():
    """(2|0) and (1|1) have one dimension but are different spaces: a map
    into one does not compose with a map out of the other."""
    even, mixed = SuperSpace(2, 0), SuperSpace(1, 1)
    for g, f in ((identity(even), SuperMap.zero(mixed, mixed)),
                 (identity(mixed), SuperMap.zero(even, even))):
        with pytest.raises(SuperLinAlgError, match="composition shape mismatch"):
            compose(g, f)
    assert compose(identity(mixed), SuperMap.zero(even, mixed)) == SuperMap.zero(even, mixed)


def test_parity_block_structure_enforced():
    with pytest.raises(SuperLinAlgError):
        smap(1, 1, 1, 1, 0, [[0, 1], [1, 0]])


def test_tensor_identity():
    v = SuperSpace(1, 1)
    w = SuperSpace(2, 1)
    assert tensor(identity(v), identity(w)) == identity(tensor_space(v, w))


def enumerate_tensor_by_hand(f, g):
    """Independent oracle: build (f x g) entrywise from the Koszul rule."""
    src = [f.source, g.source]
    tgt = [f.target, g.target]
    src_tuples = graded_tuples(src)
    tgt_tuples = graded_tuples(tgt)
    rows = [[Cyc.zero() for _ in src_tuples] for _ in tgt_tuples]
    for sj, (a, b) in enumerate(src_tuples):
        sign = -1 if (g.parity and f.source.parity(a)) else 1
        for ti, (c, d) in enumerate(tgt_tuples):
            rows[ti][sj] = Cyc.rational(sign) * f.rows[c][a] * g.rows[d][b]
    return rows


def test_tensor_koszul_sign_1_1_case():
    v = SuperSpace(1, 1)
    rng = random.Random(7)
    f = random_homogeneous(rng, v, v, 1)
    g = random_homogeneous(rng, v, v, 1)
    t = tensor(f, g)
    assert t.rows == enumerate_tensor_by_hand(f, g)
    # explicit sign flip: (f x g)(odd o even-part...) picks up -1 from |g||v|
    assert t.parity == 0


def test_tensor_functoriality_with_signs():
    rng = random.Random(3)
    v = SuperSpace(1, 1)
    w = SuperSpace(2, 1)
    for p1, p2, q1, q2 in itertools.product((0, 1), repeat=4):
        f1 = random_homogeneous(rng, v, w, p1)
        f2 = random_homogeneous(rng, w, v, p2)
        g1 = random_homogeneous(rng, w, v, q1)
        g2 = random_homogeneous(rng, v, w, q2)
        # super interchange law: a Koszul sign (-1)^{|g2||f1|} relates the two
        sign = -1 if (q2 and p1) else 1
        lhs = tensor(compose(f2, f1), compose(g2, g1)).scale(sign)
        rhs = compose(tensor(f2, g2), tensor(f1, g1))
        assert lhs == rhs, (p1, p2, q1, q2)


def test_braiding():
    v0 = SuperSpace(1, 0)
    assert braiding(v0, v0).rows == identity(tensor_space(v0, v0)).rows
    v1 = SuperSpace(0, 1)
    assert braiding(v1, v1).rows == [[Cyc.rational(-1)]]
    for ve, vo, we, wo in itertools.product(range(3), repeat=4):
        v, w = SuperSpace(ve, vo), SuperSpace(we, wo)
        roundtrip = compose(braiding(w, v), braiding(v, w))
        assert roundtrip == identity(tensor_space(v, w))


def test_quantum_dimension():
    assert quantum_dimension(SuperSpace(1, 0)) == 1
    assert quantum_dimension(SuperSpace(0, 1)) == -1
    assert quantum_dimension(SuperSpace(3, 1)) == 2


def test_supertrace_cyclicity():
    rng = random.Random(11)
    v = SuperSpace(2, 1)
    for pf, pg in itertools.product((0, 1), repeat=2):
        f = random_homogeneous(rng, v, v, pf)
        g = random_homogeneous(rng, v, v, pg)
        sign = -1 if (pf and pg) else 1
        assert supertrace(compose(f, g)) == Cyc.rational(sign) * supertrace(compose(g, f))


def test_supertrace_refuses_a_map_between_spaces_of_one_dimension():
    f = smap(2, 0, 1, 1, 0, [[1, 0], [0, 0]])
    with pytest.raises(SuperLinAlgError, match="requires an endomorphism"):
        supertrace(f)
    assert supertrace(smap(1, 1, 1, 1, 0, [[1, 0], [0, 1]])) == 0


def test_kernel_image():
    v = SuperSpace(2, 1)
    zero = SuperMap.zero(v, v)
    assert len(kernel_basis(zero)) == 3
    assert len(image_basis(zero)) == 0
    assert len(kernel_basis(identity(v))) == 0
    assert len(image_basis(identity(v))) == 3
    # rank-1 rational matrix: kernel dim 1 (row reduction by hand: (2, -1))
    f = smap(2, 0, 2, 0, 0, [[1, 2], [2, 4]])
    ker = kernel_basis(f)
    assert len(ker) == 1
    vec = ker[0]
    assert vec[0] + 2 * vec[1] == 0


def test_kernel_parity_homogeneous():
    v = SuperSpace(1, 1)
    f = SuperMap.zero(v, v)
    for vec in kernel_basis(f):
        supports = {v.parity(i) for i, x in enumerate(vec) if x}
        assert len(supports) <= 1


def test_split_idempotent():
    v = SuperSpace(2, 0)
    incl, proj, image = split_idempotent(identity(v))
    assert image == v
    incl, proj, image = split_idempotent(SuperMap.zero(v, v))
    assert image == SuperSpace(0, 0)
    p = smap(2, 0, 2, 0, 0, [[1, 0], [0, 0]])
    incl, proj, image = split_idempotent(p)
    assert image == SuperSpace(1, 0)
    assert compose(proj, incl) == identity(image)
    assert compose(incl, proj) == p


@pytest.mark.parametrize("p", [
    smap(2, 0, 2, 0, 0, [[2, 0], [0, 2]]),
    smap(2, 0, 2, 0, 0, [[1, 1], [1, 1]]),
    smap(2, 0, 2, 0, 0, [[0, 1], [0, 0]]),
    # even, with the odd-to-odd block [[0, 2], [2, 0]], whose square is 4 id
    smap(1, 2, 1, 2, 0, [[1, 0, 0], [0, 0, 2], [0, 2, 0]]),
], ids=["twice-id", "all-ones", "nilpotent", "odd-block"])
def test_split_idempotent_refuses_a_non_idempotent(p):
    # proj o incl = id is the only check: it fails exactly where p o p != p
    assert compose(p, p) != p
    with pytest.raises(SuperLinAlgError, match="not idempotent"):
        split_idempotent(p)


def test_split_idempotent_mixed_parity():
    v = SuperSpace(2, 2)
    rows = [
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
    ]
    p = SuperMap(v, v, 0, rows)
    incl, proj, image = split_idempotent(p)
    assert image == SuperSpace(1, 1)
    assert compose(proj, incl) == identity(image)
    assert compose(incl, proj) == p


# -- differential test of tensor against a literal enumeration ----------------

def reference_basis(spaces):
    """Basis tuples of a flat product, sorted by (parity, tuple) by brute force."""
    tuples = itertools.product(*[range(s.dim) for s in spaces])
    return sorted(tuples, key=lambda t: (sum(s.parity(i) for s, i in zip(spaces, t)) % 2, t))


def reference_tensor(maps):
    """(f1 x ... x fn) entry by entry: the product of the map entries on the
    split tuples, signed by (-1)^(|f_m| (|v_1| + ... + |v_{m-1}|)) per tuple."""
    src_groups = [m.source_factors for m in maps]
    tgt_groups = [m.target_factors for m in maps]
    src_index = [{t: k for k, t in enumerate(reference_basis(g))} for g in src_groups]
    tgt_index = [{t: k for k, t in enumerate(reference_basis(g))} for g in tgt_groups]

    def split(flat, groups):
        parts, start = [], 0
        for g in groups:
            parts.append(flat[start:start + len(g)])
            start += len(g)
        return parts

    src_basis = reference_basis([s for g in src_groups for s in g])
    tgt_basis = reference_basis([t for g in tgt_groups for t in g])
    rows = [[Cyc.zero() for _ in src_basis] for _ in tgt_basis]
    for sj, s in enumerate(src_basis):
        s_parts = split(s, src_groups)
        sign, passed = 1, 0
        for m, g, part in zip(maps, src_groups, s_parts):
            if m.parity and passed % 2:
                sign = -sign
            passed += sum(v.parity(i) for v, i in zip(g, part))
        for ti, t in enumerate(tgt_basis):
            value = Cyc.rational(sign)
            for m, idx_s, idx_t, part_s, part_t in zip(
                    maps, src_index, tgt_index, s_parts, split(t, tgt_groups)):
                value = value * m.rows[idx_t[part_t]][idx_s[part_s]]
            rows[ti][sj] = value
    return rows


SPACES = st.builds(SuperSpace, st.integers(0, 2), st.integers(0, 2)).filter(
    lambda s: 1 <= s.dim <= 3)


def full_map(source_factors, target_factors, parity):
    """A map with every entry of its parity block nonzero."""
    source, target = tensor_space(*source_factors), tensor_space(*target_factors)
    rows = [[1 + i + j if target.parity(i) == (source.parity(j) + parity) % 2 else 0
             for j in range(source.dim)] for i in range(target.dim)]
    return SuperMap(source, target, parity, rows, source_factors, target_factors)


# an odd map whiskered in after a factor with an odd basis vector: the Koszul
# sign reaches nonzero entries, so a dropped sign fails on every run
V11 = SuperSpace(1, 1)


@st.composite
def homogeneous_maps(draw, max_factors):
    source_factors = tuple(draw(st.lists(SPACES, max_size=max_factors)))
    target_factors = tuple(draw(st.lists(SPACES, max_size=max_factors)))
    source, target = tensor_space(*source_factors), tensor_space(*target_factors)
    parity = draw(st.integers(0, 1))
    rows = [[draw(st.integers(-2, 2)) if target.parity(i) == (source.parity(j) + parity) % 2
             else 0 for j in range(source.dim)] for i in range(target.dim)]
    return SuperMap(source, target, parity, rows, source_factors, target_factors)


@st.composite
def map_lists(draw):
    count = draw(st.integers(1, 3))
    return [draw(homogeneous_maps(max_factors=2 if count < 3 else 1)) for _ in range(count)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(map_lists())
@example([full_map((V11,), (V11,), 0), full_map((V11,), (V11,), 1)])
def test_tensor_matches_literal_enumeration(maps):
    result = tensor(*maps)
    assert result.rows == reference_tensor(maps)
    assert result.parity == sum(m.parity for m in maps) % 2
    assert result.source_factors == tuple(s for m in maps for s in m.source_factors)
    assert result.target_factors == tuple(t for m in maps for t in m.target_factors)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.builds(SuperSpace, st.integers(0, 3), st.integers(0, 3)), max_size=4))
def test_tensor_space_closed_form_matches_enumeration(spaces):
    basis = list(itertools.product(*[range(s.dim) for s in spaces]))
    odd = sum(1 for t in basis if sum(s.parity(i) for s, i in zip(spaces, t)) % 2)
    assert tensor_space(*spaces) == SuperSpace(len(basis) - odd, odd)
    assert graded_tuples(spaces) == reference_basis(spaces)


# every space of even and odd dimension <= 2, the empty one included
SMALL_SPACES = [SuperSpace(e, o) for e, o in itertools.product(range(3), repeat=2)]


def test_braiding_is_the_literal_signed_swap():
    """b_{V,W} has the single entry (-1)^{|x||y|} at (y o x, x o y) in each column."""
    for v, w in itertools.product(SMALL_SPACES, repeat=2):
        source = {t: k for k, t in enumerate(reference_basis([v, w]))}
        target = {t: k for k, t in enumerate(reference_basis([w, v]))}
        expected = [{} for _ in target]
        for (x, y), j in source.items():
            expected[target[y, x]][j] = Cyc.rational((-1) ** (v.parity(x) * w.parity(y)))
        b = braiding(v, w)
        assert b.entries == expected, (v, w)
        assert (b.source_factors, b.target_factors) == ((v, w), (w, v))


def test_pair_index_is_the_graded_position_of_each_pair():
    for s in SMALL_SPACES:
        expected = {t: k for k, t in enumerate(reference_basis([s, s]))}
        index = pair_index(s)
        assert index == expected, s
        # a new dict and a new list on each call: changing them leaves the table as it was
        index.clear()
        graded_tuples([s, s]).clear()
        assert pair_index(s) == expected and graded_tuples([s, s]) == reference_basis([s, s])


def test_a_new_pair_refuses_dimensions_that_are_not_nonnegative_ints():
    for even, odd in ((4111.0, 3), (4111, 3.0), (True, 4111), (4111, False), (-1, 4111)):
        assert (even, odd) not in superlinalg._SPACES
        with pytest.raises(SuperLinAlgError, match="nonnegative ints"):
            SuperSpace(even, odd)
        assert (even, odd) not in superlinalg._SPACES
    s = SuperSpace(4111, 3)
    assert (type(s.even), type(s.odd), s.dim) == (int, int, 4114)


def test_one_object_per_pair():
    s = SuperSpace(2, 1)
    assert SuperSpace(2, 1) is s and SuperSpace(1, 2) is not s
    assert tensor_space(s, SuperSpace(1, 0)) is s
    assert tensor_space(SuperSpace(1, 1), SuperSpace(1, 1)) is SuperSpace(2, 2)
    assert tensor_space() is SuperSpace(1, 0)
    assert (s.even, s.odd, s.dim, repr(s)) == (2, 1, 3, "(2|1)")
    # a space equals no tuple, and hashes as the object it is
    assert s != (2, 1) and (2, 1) != s
    assert {s: 1}.get(SuperSpace(2, 1)) == 1


def test_pickle_and_copies_give_back_the_same_space():
    s = SuperSpace(2, 1)
    assert pickle.loads(pickle.dumps(s)) is s
    assert copy.copy(s) is s and copy.deepcopy(s) is s
    assert copy.deepcopy([s, (s,)])[1][0] is s


def test_a_space_is_immutable():
    s = SuperSpace(2, 1)
    for name in ("even", "odd", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 5)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert (s.even, s.odd, s.dim) == (2, 1, 3)


def test_threads_building_a_new_pair_get_one_object():
    pair = (4099, 4097)
    assert pair not in superlinalg._SPACES
    barrier, built = threading.Barrier(4, timeout=10), []

    def build():
        barrier.wait()
        built.append(SuperSpace(*pair))

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 4 and all(s is built[0] for s in built)
    assert SuperSpace(*pair) is built[0]


def test_supermap_equals_itself_without_reading_its_entries():
    class Unreadable(list):
        def __eq__(self, other):
            raise AssertionError("entries compared")

    f, g = identity(SuperSpace(2, 1)), identity(SuperSpace(2, 1))
    f.entries = Unreadable(f.entries)
    assert f == f and not f != f
    # another map with the same spaces is compared entry by entry
    with pytest.raises(AssertionError, match="entries compared"):
        f == g


SOURCE_MISMATCH = "declared source factors do not multiply out to the source"
TARGET_MISMATCH = "declared target factors do not multiply out to the target"


def test_supermap_rejects_factors_that_do_not_multiply_out():
    v, w = SuperSpace(1, 1), SuperSpace(2, 1)
    square = tensor_space(v, v)   # (2|2)
    rows = [[1 if i == j else 0 for j in range(square.dim)] for i in range(square.dim)]
    SuperMap(square, square, 0, rows, (v, v), (v, v))
    with pytest.raises(SuperLinAlgError, match=SOURCE_MISMATCH):
        SuperMap(square, square, 0, rows, (v, w), (v, v))
    with pytest.raises(SuperLinAlgError, match=TARGET_MISMATCH):
        SuperMap(square, square, 0, rows, (v, v), (SuperSpace(4, 0),))
    with pytest.raises(SuperLinAlgError, match=SOURCE_MISMATCH):
        SuperMap(square, square, 0, rows, (), (v, v))
    # the factor tuple (v, v) that the first map declared, now on a space of the
    # same dimension and another parity split, on either side and as a list
    flat = SuperSpace(4, 0)
    with pytest.raises(SuperLinAlgError, match=SOURCE_MISMATCH):
        SuperMap(flat, square, 0, None, (v, v), (v, v), entries=[{} for _ in range(4)])
    with pytest.raises(SuperLinAlgError, match=TARGET_MISMATCH):
        SuperMap(square, flat, 0, None, (v, v), [v, v], entries=[{} for _ in range(4)])


def test_supermap_accepts_exactly_the_factor_lists_that_multiply_out():
    """Every factor list of up to three small spaces, declared twice on each side
    against its product and against spaces that differ from it by one dimension
    or a parity swap: SuperMap refuses it exactly when tensor_space disagrees."""
    small = [SuperSpace(e, o) for e in range(3) for o in range(3)]
    lists = [()] + [(s,) for s in small] + list(itertools.product(small[:4], repeat=2))
    lists += list(itertools.product((V11, SuperSpace(2, 1)), repeat=3))
    for factors in lists * 2:
        p = tensor_space(*factors)
        for space in {p, SuperSpace(p.odd, p.even), SuperSpace(p.even + 1, p.odd),
                      SuperSpace(p.even, p.odd + 1)}:
            empty = [{} for _ in range(space.dim)]
            for build, message in (
                    (lambda: SuperMap(space, space, 0, None, factors, None, entries=empty),
                     SOURCE_MISMATCH),
                    (lambda: SuperMap(space, space, 0, None, None, factors, entries=empty),
                     TARGET_MISMATCH)):
                if space == p:
                    build()
                else:
                    with pytest.raises(SuperLinAlgError, match=message):
                        build()


# -- differential tests of the sparse core against dense matrices -------------

# 1 + z + z^2 = 0 in Q(zeta_3), so irrational entries cancel as well as integers
NONZERO = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Cyc.zeta(3), -Cyc.zeta(3),
                           Cyc.zeta(3, 2), Cyc.rational(Fraction(1, 3))])
SCALARS = st.one_of(st.just(0), NONZERO)
# zeros reached through Q(zeta_3) and Q(zeta_5) are the zero of Q
ZEROS = st.sampled_from([0, Fraction(0), Cyc.zero(), Cyc.zeta(3) - Cyc.zeta(3),
                         Cyc.zeta(5) * 0])


def on_block(source, target, parity, i, j):
    return target.parity(i) == (source.parity(j) + parity) % 2


@st.composite
def dense_matrices(draw, source, target, parity, like=None):
    """A parity-homogeneous dense matrix; with like, about half its entries
    are the negated entries of like, so that sums with like cancel."""
    rows = []
    for i in range(target.dim):
        row = []
        for j in range(source.dim):
            if not on_block(source, target, parity, i, j):
                row.append(Cyc.zero())
            elif like is not None and draw(st.booleans()):
                row.append(-like[i][j])
            else:
                row.append(as_cyc(draw(SCALARS)))
        rows.append(row)
    return rows


def dense_compose(g_rows, f_rows, n, m):
    return [[sum((g_rows[i][t] * f_rows[t][j] for t in range(len(f_rows))), Cyc.zero())
             for j in range(m)] for i in range(n)]


def assert_sparse(m):
    """No stored zero, and every stored index inside the matrix."""
    assert len(m.entries) == m.target.dim
    for stored in m.entries:
        assert all(stored.values())
        assert all(0 <= j < m.source.dim for j in stored)


@st.composite
def composable(draw):
    """(f, its rows), (g, its rows) with g o f defined.  Where v allows it,
    row i of g keeps only two nonzero entries a, b at s, t and row t of f is
    -a/b times row s, so that every sum in row i of g o f cancels."""
    u, v, w = draw(SPACES), draw(SPACES), draw(SPACES)
    pf, pg = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    f_rows = draw(dense_matrices(u, v, pf))
    g_rows = draw(dense_matrices(v, w, pg))
    triples = [(i, s, t) for i in range(w.dim) for s in range(v.dim) for t in range(v.dim)
               if s != t and on_block(v, w, pg, i, s) and on_block(v, w, pg, i, t)]
    if triples:
        i, s, t = draw(st.sampled_from(triples))
        a, b = as_cyc(draw(NONZERO)), as_cyc(draw(NONZERO))
        g_rows[i] = [a if k == s else b if k == t else Cyc.zero() for k in range(v.dim)]
        on = [j for j in range(u.dim) if on_block(u, v, pf, s, j)]
        if on and not any(f_rows[s]):
            f_rows[s][draw(st.sampled_from(on))] = as_cyc(draw(NONZERO))
        f_rows[t] = [-(a / b) * x for x in f_rows[s]]
    return (SuperMap(u, v, pf, f_rows), f_rows), (SuperMap(v, w, pg, g_rows), g_rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(composable())
def test_compose_and_tensor_match_dense_reference(maps):
    (f, f_rows), (g, g_rows) = maps
    gf = compose(g, f)
    assert_sparse(gf)
    assert gf.rows == dense_compose(g_rows, f_rows, g.target.dim, f.source.dim)
    assert gf == SuperMap(f.source, g.target, f.parity + g.parity,
                          dense_compose(g_rows, f_rows, g.target.dim, f.source.dim))
    assert gf.is_zero() == (not any(x for row in gf.rows for x in row))
    fg = tensor(f, g)
    assert_sparse(fg)
    assert fg.rows == reference_tensor([f, g])


@st.composite
def same_shape(draw):
    source, target = draw(SPACES), draw(SPACES)
    parity = draw(st.integers(0, 1))
    a_rows = draw(dense_matrices(source, target, parity))
    b_rows = draw(dense_matrices(source, target, parity, like=a_rows))
    scalar = as_cyc(draw(SCALARS))
    return source, target, parity, a_rows, b_rows, scalar


@settings(max_examples=150, deadline=None, derandomize=True)
@given(same_shape())
def test_scale_matches_dense_reference(case):
    source, target, parity, a_rows, _, scalar = case
    result = SuperMap(source, target, parity, a_rows).scale(scalar)
    expected = [[scalar * x for x in r] for r in a_rows]
    assert_sparse(result)
    assert result.rows == expected
    assert result == SuperMap(source, target, parity, expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(composable(), st.data())
def test_dense_rows_with_any_zeros_equal_the_stored_entries(maps, data):
    (f, _), (g, _) = maps
    gf = compose(g, f)
    rows = [[stored[j] if j in stored else data.draw(ZEROS) for j in range(gf.source.dim)]
            for stored in gf.entries]
    rebuilt = SuperMap(gf.source, gf.target, gf.parity, rows)
    assert rebuilt == gf
    assert rebuilt.entries == gf.entries
    assert rebuilt == SuperMap(gf.source, gf.target, gf.parity, None,
                               entries=[dict(stored) for stored in gf.entries])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(same_shape(), st.data())
def test_entries_off_the_parity_block_are_rejected(case, data):
    source, target, parity, a_rows, _, _ = case
    off = [(i, j) for i in range(target.dim) for j in range(source.dim)
           if not on_block(source, target, parity, i, j)]
    assume(off)
    i, j = data.draw(st.sampled_from(off))
    entries = [dict(stored) for stored in SuperMap(source, target, parity, a_rows).entries]
    entries[i][j] = Cyc.one()
    with pytest.raises(SuperLinAlgError, match="parity block"):
        SuperMap(source, target, parity, None, entries=entries)
    rows = [list(row) for row in a_rows]
    rows[i][j] = Cyc.one()
    with pytest.raises(SuperLinAlgError, match="parity block"):
        SuperMap(source, target, parity, rows)


def test_cancelled_entries_are_not_stored():
    g = smap(2, 0, 1, 0, 0, [[1, 1]])
    f = smap(1, 0, 2, 0, 0, [[1], [-1]])
    assert compose(g, f).entries == [{}]
    assert compose(g, f) == SuperMap.zero(SuperSpace(1, 0), SuperSpace(1, 0))
    z = Cyc.zeta(3)
    row = smap(3, 0, 1, 0, 0, [[1, z, z * z]])
    ones = smap(1, 0, 3, 0, 0, [[1], [1], [1]])
    assert compose(row, ones).entries == [{}]


# -- whiskered composition against compose o the literal enumeration ----------
#
# tensor is built from whisker, so W = id_left o f o id_right comes from
# reference_tensor here, which shares no code with either.  whisker computes
# W o g only; every caller reads its chain of maps bottom-up.

def reference_whiskered(left, f, right):
    """W = id_left o f o id_right over left + f's factors + right, entry by entry."""
    maps = [identity(s) for s in left] + [f] + [identity(s) for s in right]
    source_factors = tuple(left) + f.source_factors + tuple(right)
    target_factors = tuple(left) + f.target_factors + tuple(right)
    return SuperMap(tensor_space(*source_factors), tensor_space(*target_factors), f.parity,
                    reference_tensor(maps), source_factors, target_factors)


# zero-dimensional and purely odd factors included
FACTORS = st.lists(st.builds(SuperSpace, st.integers(0, 2), st.integers(0, 2)), max_size=2)


@st.composite
def factored_maps(draw, source_factors, target_factors):
    source, target = tensor_space(*source_factors), tensor_space(*target_factors)
    parity = draw(st.integers(0, 1))
    return SuperMap(source, target, parity, draw(dense_matrices(source, target, parity)),
                    source_factors, target_factors)


@st.composite
def whiskerings(draw):
    """(g, left, f, right) with g landing in the source of id_left o f o id_right."""
    left, right = tuple(draw(FACTORS)), tuple(draw(FACTORS))
    f_source, f_target = tuple(draw(FACTORS)), tuple(draw(FACTORS))
    w_source, w_target = left + f_source + right, left + f_target + right
    assume(tensor_space(*w_source).dim <= 24 and tensor_space(*w_target).dim <= 24)
    f = draw(factored_maps(f_source, f_target))
    other = tuple(draw(FACTORS.filter(lambda fs: tensor_space(*fs).dim <= 6)))
    return draw(factored_maps(other, w_source)), left, f, right


@settings(max_examples=200, deadline=None, derandomize=True)
@given(whiskerings())
@example((full_map((V11,), (V11, V11), 0), (V11,), full_map((V11,), (V11,), 1), ()))
def test_whisker_matches_compose_of_reference_tensor(case):
    g, left, f, right = case
    expected = compose(reference_whiskered(left, f, right), g)
    result = whisker(g, left, f, right)
    assert_sparse(result)
    assert result == expected
    assert result.parity == (f.parity + g.parity) % 2
    assert result.source_factors == expected.source_factors
    assert result.target_factors == expected.target_factors


def test_whisker_signs_on_odd_left_factors():
    rng = random.Random(5)
    v, w = SuperSpace(1, 1), SuperSpace(2, 1)
    for pf, pg in itertools.product((0, 1), (0, 1)):
        f = random_homogeneous(rng, v, w, pf)
        g = random_homogeneous(rng, w, tensor_space(v, v, w), pg)
        g = SuperMap(g.source, g.target, pg, g.rows, None, (v, v, w))
        expected = compose(reference_whiskered((v,), f, (w,)), g)
        assert whisker(g, (v,), f, (w,)) == expected, (pf, pg)


@st.composite
def whiskered_identities(draw):
    """(V, c) with c: 1 -> its factors, of either parity."""
    return draw(SPACES), draw(factored_maps((), tuple(draw(FACTORS))))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(whiskered_identities())
@example((V11, full_map((), (V11, V11), 0)))
@example((V11, full_map((), (V11, V11), 1)))
def test_whiskered_identity_is_the_tensor_with_the_identity(case):
    """id_V o c and c o id_V are one whisker of 1_V each, with no tensor built."""
    v, c = case
    one = identity(v)
    for bare, maps in ((whisker(one, (v,), c, ()), [one, c]),
                       (whisker(one, (), c, (v,)), [c, one])):
        product = tensor(*maps)
        assert bare == product
        assert bare.rows == reference_tensor(maps)
        assert bare.source_factors == product.source_factors == (v,)
        assert bare.target_factors == product.target_factors


def test_whisker_shape_mismatch():
    v, w = SuperSpace(1, 1), SuperSpace(3, 0)
    f = identity(v)
    with pytest.raises(SuperLinAlgError):
        whisker(identity(tensor_space(v, v)), (w,), f, ())
    with pytest.raises(SuperLinAlgError):
        whisker(identity(tensor_space(v, v)), (), f, (w,))


# -- the elimination engine against sympy -------------------------------------

@st.composite
def rational_systems(draw):
    """(A, b, n): a small m x n integer matrix A and a right-hand side b."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(entries, min_size=m, max_size=m))
    return a, b, n


def sparse_rows(matrix):
    return [{j: Cyc.rational(x) for j, x in enumerate(row) if x} for row in matrix]


def as_map(rows, ncols):
    """The sparse rows as an even map between purely even spaces."""
    return SuperMap(SuperSpace(ncols, 0), SuperSpace(len(rows), 0), 0, None, entries=rows)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rational_systems())
def test_elimination_matches_sympy(system):
    sympy = pytest.importorskip("sympy")
    a, b, n = system
    m = len(a)
    ref = sympy.Matrix(m, n, [x for row in a for x in row])
    rows = sparse_rows(a)

    ker = kernel_of_matrix(rows, n)
    assert len(ker) == n - ref.rank()
    for vec in ker:
        assert all(sum((row.get(j, 0) * vec[j] for j in range(n)), Cyc.zero()) == 0
                   for row in rows)

    f = as_map(rows, n)
    _, pivots = ref.rref()
    assert image_basis(f) == [f.column(j) for j in pivots]

    if m == n:
        if ref.det() == 0:
            with pytest.raises(SuperLinAlgError):
                solve_exact(rows, identity(SuperSpace(n, 0)).entries, n)
        else:
            inverse = solve_exact(rows, identity(SuperSpace(n, 0)).entries, n)
            expected = ref.inv()
            assert [[inverse[i].get(j, Cyc.zero()) for j in range(n)] for i in range(n)] == [
                [Fraction(int(expected[i, j].p), int(expected[i, j].q)) for j in range(n)]
                for i in range(n)]

    rhs = [{0: Cyc.rational(x)} if x else {} for x in b]
    augmented = ref.row_join(sympy.Matrix(m, 1, b))
    if ref.rank() < n or augmented.rank() > ref.rank():
        with pytest.raises(SuperLinAlgError):
            solve_exact(rows, rhs, n)
    else:
        x = solve_exact(rows, rhs, n)
        assert compose(f, as_map(x, 1)) == as_map(rhs, 1)


def test_elimination_over_q_zeta3():
    z = Cyc.zeta(3)
    # det = 2 - z^3 = 1
    a = [{0: Cyc.one(), 1: z}, {0: z * z, 1: Cyc.rational(2)}]
    b = [{0: 1 + z, 1: Cyc.rational(-1)}, {1: z}]
    x = solve_exact(a, b, 2)
    assert compose(as_map(a, 2), as_map(x, 2)) == as_map(b, 2)
    # det = 1 - z^3 = 0: one kernel vector and one pivot column
    singular = [{0: Cyc.one(), 1: z}, {0: z * z, 1: Cyc.one()}]
    (vec,) = kernel_of_matrix(singular, 2)
    assert vec == [-z, Cyc.one()]
    assert image_basis(as_map(singular, 2)) == [[Cyc.one(), z * z]]
    with pytest.raises(SuperLinAlgError):
        solve_exact(singular, b, 2)
