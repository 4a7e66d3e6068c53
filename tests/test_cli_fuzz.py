"""The CLI's error contract under generated input: every command exits 0, 1 or
2, and none ends in a traceback.

Hypothesis drives the commands in process through click's CliRunner.  The
runner catches an exception that escapes a command instead of printing its
traceback, so an escaped exception other than SystemExit counts as one.
The inputs stay small (r <= 6, genus <= 3, two variables, exponents <= 5)
and the example budget is fixed, so the module runs in a few seconds.
"""

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from rspin.cli import main
from rspin.constructors import BUILTIN_NAMES

CONTRACT = settings(max_examples=40, deadline=None, derandomize=True)

# small integers, and now and then a non-ASCII spelling or text that is no integer
BAD_NUMBERS = st.sampled_from(["", "x", "1.5", "+3", "٣", "３", "²", "-0", " 2 ", "-1"])
NUMBERS = st.one_of(st.integers(0, 6).map(str), st.integers(0, 6).map(str), BAD_NUMBERS)
HOLONOMY = st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map("(%d,%d)".__mod__)
HOLONOMIES = st.one_of(
    st.lists(HOLONOMY, max_size=3).map(lambda pairs: "[%s]" % ",".join(pairs)),
    st.sampled_from(["", "[", "[(0,1)", "(0,1)", "[(0,1),]", "[(0,1)(1,1)]", "[(a,b)]",
                     "[(٠,1)]", "[(0,1,2)]", "[()]", "[[0,1]]"]))
VALUES = {"r": NUMBERS, "a": NUMBERS, "b": NUMBERS,
          "genus": st.one_of(st.integers(0, 3).map(str), BAD_NUMBERS), "holonomies": HOLONOMIES}
KEYS = {"check": ("r",), "torus": ("r", "a", "b"), "surface": ("r", "genus", "holonomies")}
NOISE = st.sampled_from(["r=2", "genus=1", "a=1", "R=1", "holonomy=[]", "=", "r", "r=2=3",
                         "ｒ=2"])


def key_values(command):
    """key=value arguments: some of the command's keys, given once each (genus
    always, for surface), then at most one repeated, foreign, unknown or bare
    argument."""
    keys = KEYS[command]
    required = ("genus",) if command == "surface" else ()
    known = st.fixed_dictionaries({k: VALUES[k] for k in required},
                                  optional={k: VALUES[k] for k in keys if k not in required})
    return st.tuples(known.map(lambda kv: ["%s=%s" % item for item in kv.items()]),
                     st.lists(NOISE, max_size=1)).map(lambda parts: parts[0] + parts[1])


EXPONENT = st.integers(2, 5)
TERM = st.tuples(st.integers(-3, 3).filter(bool), st.integers(0, 5), st.integers(0, 5))
POTENTIALS = st.one_of(
    st.tuples(st.sampled_from(["x^%d", "x^%d + y^%d", "x^%d*y + y^%d", "x^%d + x*y^%d",
                               "x^%d*y^%d"]), EXPONENT, EXPONENT).map(
        lambda form: form[0] % form[1:][:form[0].count("%")]),
    st.lists(TERM, min_size=1, max_size=3).map(
        lambda terms: " + ".join("%d*x^%d*y^%d" % term for term in terms)),
    st.sampled_from(["", "0", "1", "x", "x^", "x^-1", "x*^2", "x^2+", "2x", "x^٣", "x^2 y",
                     "(x+y)^5", "x^5 - y^5", "-x^2", "x''^2", "x^2 + 1"]))
GROUPS = st.one_of(st.integers(1, 6).map("Z%d".__mod__), st.integers(1, 6).map("Z%d".__mod__),
                   st.sampled_from(["", "Z0", "Z", "z3", "Z-3", "Z٣", "Z3x", "3", "Z 3"]))
WEIGHTS = st.one_of(st.lists(st.integers(-1, 6), min_size=1, max_size=2).map(
    lambda ws: ",".join(map(str, ws))), st.sampled_from(["", ",", "a", "1,,1", "٣", "1;1"]))


def option(name, values):
    """[name, value], or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


# --group with its optional --weights and --g, or those two without it
SECTORS = st.one_of(
    st.just([]),
    st.tuples(GROUPS, option("--weights", WEIGHTS), option("--g", NUMBERS)).map(
        lambda parts: ["--group", parts[0], *parts[1], *parts[2]]),
    st.tuples(option("--weights", WEIGHTS), option("--g", NUMBERS)).map(
        lambda parts: parts[0] + parts[1]))


def check_contract(args):
    result = CliRunner().invoke(main, args)
    escaped = result.exception is not None and not isinstance(result.exception, SystemExit)
    assert result.exit_code in (0, 1, 2) and not escaped, (args, result.exception)
    assert "Traceback" not in result.output, (args, result.output)


@CONTRACT
@given(command=st.sampled_from(sorted(KEYS)), name=st.sampled_from(BUILTIN_NAMES),
       data=st.data())
def test_algebra_commands_keep_the_error_contract(command, name, data):
    extra = ["--all-divisors"] if command == "torus" and data.draw(st.booleans()) else []
    check_contract([command, "--builtin", name, *extra, *data.draw(key_values(command))])


@CONTRACT
@given(potential=POTENTIALS)
def test_lg_jacobi_keeps_the_error_contract(potential):
    check_contract(["lg-jacobi", "--", potential])


@CONTRACT
@given(potential=POTENTIALS, sector=SECTORS, shift=st.sampled_from([[], ["--shift"]]))
def test_lg_hom_keeps_the_error_contract(potential, sector, shift):
    check_contract(["lg-hom", *sector, *shift, "--", potential])
