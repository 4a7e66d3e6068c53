"""evaluate_surface against the composed map of reference.surface_by_compose,
on fresh algebras (cold) and after full sweeps (warm), and the work that the
states K_{1,a,b}(eta) and caps eps o K_{c,a,b} kept with an algebra save."""

import itertools
import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from rspin.cli import main
from rspin.constructors import builtin, graded_center
from rspin.lambda_frobenius import LambdaFrobenius
from rspin.scalars import Cyc
from rspin.superlinalg import SuperMap
from rspin.surface_eval import RSpinClosedSurface, evaluate_surface

from reference import rescaled, structures, surface_by_compose

# every built-in; clifford1's gamma has order 2, so its centre exists at even r only
BUILTINS = [("trivial", 1), ("group_algebra_Zn", 2), ("group_algebra_Zn", 3),
            ("matrix_algebra_n", 2), ("clifford1", 1)]


def scale(a):
    return Fraction(a % 4 + 1)


def centres(r):
    out = [("%s n=%d" % (name, n), graded_center(builtin(name, n=n), r))
           for name, n in BUILTINS if name != "clifford1" or r % 2 == 0]
    if r % 2 == 0:
        out.append(("rescaled clifford1", rescaled(dict(out)["clifford1 n=1"], scale)))
    return out


def fresh(alg):
    """The same structure maps with no derived table filled."""
    return LambdaFrobenius(alg.r, alg.spaces, alg.mu, alg.delta, alg.eta, alg.eps)


def drawn(r, genus, count, seed):
    """count structures of the genus-g surface drawn at random, with repeats."""
    rng = random.Random(seed)
    return [tuple((rng.randrange(r), rng.randrange(r)) for _ in range(genus))
            for _ in range(count)]


def surfaces(r, seed):
    """The admissible surfaces of genus <= 4 at r: every structure up to genus
    2, and 24 drawn structures of genus 3 and 4 (all of them when fewer)."""
    out = []
    for genus in range(5):
        if (2 * genus - 2) % r:
            continue
        every = structures(r, genus) if genus < 3 or r ** (2 * genus) <= 24 else \
            drawn(r, genus, 24, seed + genus)
        out += [RSpinClosedSurface(r, genus, handles) for handles in every]
    return out


def mismatches(alg, expected):
    return [s for s, z in expected.items() if evaluate_surface(alg, s) != z]


@pytest.mark.parametrize("r", range(1, 9))
def test_every_centre_matches_the_composed_map_cold_and_warm(r):
    """Each surface once on a fresh algebra, then all of them on one algebra
    that a full sweep has filled: every value is that of the composed map."""
    for name, alg in centres(r):
        expected = {s: surface_by_compose(alg, s) for s in surfaces(r, seed=r)}
        for s in random.Random(r).sample(list(expected), min(len(expected), 12)):
            assert evaluate_surface(fresh(alg), s) == expected[s], (name, s)
        warm = fresh(alg)
        for s in expected:
            evaluate_surface(warm, s)
        assert not mismatches(warm, expected), name


@pytest.mark.parametrize("r", [2, 4])
def test_swapping_two_cached_states_or_caps_is_caught(r):
    """Exchanging the values of two keys of the state or the cap table, where
    the values differ, moves some surface of genus <= 4 away from the map
    (on clifford1: the states of group_algebra_Z3 at r = 2, for one, all agree)."""
    alg = graded_center(builtin("clifford1"), r)
    expected = {s: surface_by_compose(alg, s) for s in surfaces(r, seed=0)}
    assert not mismatches(alg, expected)
    swaps = 0
    for table in (alg._handle_states, alg._handle_caps):
        keys = list(table)
        for i, first in enumerate(keys):
            for second in keys[i + 1:]:
                if table[first] == table[second]:
                    continue
                table[first], table[second] = table[second], table[first]
                assert mismatches(alg, expected), (first, second)
                table[first], table[second] = table[second], table[first]
                swaps += 1
    assert swaps and not mismatches(alg, expected)


def test_states_and_caps_scale_with_eta_and_eps():
    """On the copy of clifford1 rescaled by scale(a) on each C_a, eta gains
    scale(1), eps 1/scale(-1) and K_{c,a,b} scale(c-2)/scale(c): every state
    K_{1,a,b}(eta), on C_{-1}, gains scale(-1) and every cap eps o K_{c,a,b},
    whose K ends on C_{-1}, gains 1/scale(c).  The tables are compared through
    the accessors at every a, b < r: the copy has period 4 and clifford1 period 2,
    so their keys differ."""
    alg = graded_center(builtin("clifford1"), 4)
    copy = rescaled(alg, scale)
    assert (alg.period, copy.period) == (2, 4)
    for s in surfaces(4, seed=4):
        assert evaluate_surface(copy, s) == evaluate_surface(alg, s), s
    for a, b in itertools.product(range(4), repeat=2):
        space, vector = alg.handle_state(a, b)
        assert copy.handle_state(a, b) == (space, {i: x * scale(-1)
                                                   for i, x in vector.items()}), (a, b)
        cap = alg.handle_cap(1, a, b)
        scaled = {j: x / scale(1) for j, x in cap.entries[0].items()}
        assert copy.handle_cap(1, a, b) == cap._replace(entries=[scaled]), (a, b)


def count_products(monkeypatch):
    made, mul = [], Cyc.__mul__

    def counted(a, b):
        made.append(None)
        return mul(a, b)

    monkeypatch.setattr(Cyc, "__mul__", counted)
    return made


def one_dimensional_products(alg, s):
    """The products a warm evaluation of s makes when every circle space is
    one-dimensional: the running entry times the one entry of each step (eps at
    genus 1, each middle handle and the cap from genus 2 on), except where
    either factor is the shared one, which apply skips."""
    handles, g, one = s.handles, s.genus, Cyc.one()
    x = alg.handle_state(*handles[0])[1][0]
    steps = [alg.eps] if g == 1 else [
        alg.handle_operator(1 - 2 * k, *handles[k]) for k in range(1, g - 1)] + [
        alg.handle_cap(3 - 2 * g, *handles[-1])]
    count = 0
    for step in steps:
        y = step.entries[0][0]
        count += x is not one and y is not one
        x = y if x is one else x if y is one else x * y
    return count


# (r, genus, products): the pairing with eps alone at genus 1, one product per
# middle handle and one for the cap from genus 2 on; the composed handles of
# the parent made genus + 1 (2, 3, 4 and 6)
@pytest.mark.parametrize("r, genus, products", [(4, 1, 1), (2, 2, 1), (4, 3, 2), (4, 5, 4)])
def test_warm_evaluation_makes_one_product_per_middle_handle_and_cap(
        monkeypatch, r, genus, products):
    """clifford1's circle spaces are one-dimensional, so each handle operator
    and cap has one entry: a warm call multiplies once per step it takes,
    and not at all where a factor is the shared one."""
    alg = graded_center(builtin("clifford1"), r)
    sample = [RSpinClosedSurface(r, genus, handles) for handles in drawn(r, genus, 16, genus)]
    values = [evaluate_surface(alg, s) for s in sample]
    expected = [one_dimensional_products(alg, s) for s in sample]
    made = count_products(monkeypatch)
    for s, z, count in zip(sample, values, expected):
        made.clear()
        assert evaluate_surface(alg, s) == z
        assert len(made) == count <= products, s.handles


def test_an_algebra_keeps_at_most_r2_states_and_r3_caps():
    """The tables are keyed mod the period m, so at most m^2 states and m^3 caps
    are kept: clifford1 at r = 4 has period 2, and keeps 4 states, not 16."""
    alg = graded_center(builtin("clifford1"), 4)
    for genus in (1, 3):
        for handles in structures(4, genus):
            evaluate_surface(alg, RSpinClosedSurface(4, genus, handles))
    for handles in drawn(4, 5, 200, 5):
        evaluate_surface(alg, RSpinClosedSurface(4, 5, handles))
    assert alg.period == 2
    assert len(alg._handle_states) == 4 and len(alg._handle_caps) <= 8
    assert all(0 <= i < 2 for key in list(alg._handle_states) + list(alg._handle_caps)
               for i in key)
    # the last handle starts on C_{3-2g} = C_1, as r | 2g - 2: m^2 caps are used
    assert {c for c, _, _ in alg._handle_caps} == {1}


# SuperMaps built and Cyc products made by one cold command, in process, in a
# fresh interpreter (2026-10).  Each row built 10 maps more while the graded
# centre checked gamma_A to be an automorphism and the unit to lie in C_1, and
# 110, 74, 130, 94 maps and 134, 294, 153, 229 products before the states and caps
@pytest.mark.parametrize("args, maps, products", [
    (["surface", "--builtin", "clifford1", "r=2", "genus=2", "holonomies=[(0,1),(1,1)]"],
     86, 75),
    (["surface", "--builtin", "group_algebra_Zn", "--n", "3", "r=2", "genus=2",
      "holonomies=[(0,1),(1,1)]"], 49, 162),
    (["torus", "--builtin", "clifford1", "r=8", "--all-divisors"], 88, 80),
    (["torus", "--builtin", "matrix_algebra_n", "--n", "2", "r=6", "--all-divisors"], 49, 141),
    # the tables keyed mod the period 2, not mod r (168 maps and 114 products before)
    (["torus", "--builtin", "clifford1", "r=48", "--all-divisors"], 88, 86),
])
def test_a_cold_command_does_no_more_work(monkeypatch, args, maps, products):
    """A one-shot command builds each state and cap without a SuperMap, so it
    builds no more maps and makes no more products than the composed handles."""
    built, init = [], SuperMap.__init__

    def counted_init(self, *a, **k):
        built.append(None)
        init(self, *a, **k)

    monkeypatch.setattr(SuperMap, "__init__", counted_init)
    made = count_products(monkeypatch)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(built) <= maps and len(made) <= products, (len(built), len(made))
