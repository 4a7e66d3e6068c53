import contextlib
import gc
import io
import json
import pathlib
import shlex
import subprocess
import sys
import weakref

import pytest
from click.testing import CliRunner

from rspin import constructors
from rspin.cli import main
from rspin.constructors import builtin, graded_center
from rspin.scalars import format_scalar
from rspin.superlinalg import SparseEchelon
from rspin.surface_eval import RSpinTorus, evaluate_torus


@pytest.fixture
def runner():
    return CliRunner()


def test_torus_all_divisors_clifford(runner):
    result = runner.invoke(main, ["torus", "--builtin", "clifford1", "--all-divisors",
                                  "r=2"])
    assert result.exit_code == 0, result.output
    assert "1: 1" in result.output
    assert "2: -1" in result.output


def test_torus_all_divisors_default_r(runner):
    # r defaults to the order of gamma: 2 for the Clifford algebra
    result = runner.invoke(main, ["torus", "--builtin", "clifford1", "--all-divisors"])
    assert result.exit_code == 0, result.output
    table_lines = [l for l in result.output.splitlines() if ":" in l and l.startswith("  ")]
    assert len(table_lines) == 2


def test_torus_matches_library(runner):
    result = runner.invoke(main, ["torus", "--builtin", "clifford1", "--json",
                                  "r=4", "a=2", "b=1"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    alg = graded_center(builtin("clifford1"), 4)
    lib = evaluate_torus(alg, RSpinTorus(4, 2, 1))
    assert payload["results"]["T(2,1)"] == format_scalar(lib)


def test_lg_jacobi_output(runner):
    result = runner.invoke(main, ["lg-jacobi", "x^4"])
    assert result.exit_code == 0
    assert "dim: 3" in result.output
    for mono in ("1", "x", "x^2"):
        assert mono in result.output


def test_check_builtin_ok(runner):
    result = runner.invoke(main, ["check", "--builtin", "group_algebra_Zn",
                                  "--n", "2", "r=2"])
    assert result.exit_code == 0, result.output
    assert "ok: True" in result.output


def test_check_infers_r_with_one_gamma(runner, monkeypatch):
    """Without r=, r is the order of N_0 = gamma^-1, so gamma is solved for
    once, by the graded centre: the inference reads the powers of N_0."""
    checked = []
    solve = constructors.nakayama_gamma

    def counted(algebra):
        checked.append(None)
        return solve(algebra)

    monkeypatch.setattr(constructors, "nakayama_gamma", counted)
    result = runner.invoke(main, ["check", "--builtin", "clifford1", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert (payload["inputs"]["r"], payload["results"]["checks"]) == (2, 56)
    assert len(checked) == 1


def test_check_bad_file_exit_1(runner, tmp_path):
    alg = graded_center(builtin("group_algebra_Zn", n=2), 1)
    data = alg.to_dict()
    # corrupt one structure constant
    data["mu"]["0,0"][0][0] = "7"
    bad = tmp_path / "bad_algebra.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["check", "--file", str(bad)])
    assert result.exit_code == 1
    assert "relation" in result.output or "failures" in result.output
    payload_lines = [l for l in result.output.splitlines() if "relation" in l]
    assert payload_lines, result.output


def test_usage_error_exit_2(runner):
    result = runner.invoke(main, ["torus", "--builtin", "clifford1"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["lg-jacobi", "x^"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["check"])
    assert result.exit_code == 2


def test_json_deterministic(runner):
    args = ["lg-circle-spaces", "x^3", "--group", "Z3", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    payload = json.loads(first.output)
    assert set(payload) == {"command", "inputs", "results", "convention_flags"}


def test_surface_command(runner):
    result = runner.invoke(main, ["surface", "--builtin", "clifford1", "--json",
                                  "r=2", "genus=2", "holonomies=[(0,1),(1,1)]"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["results"]["value"] in ("1/2", "-1/2")


def test_lg_hom_command(runner):
    result = runner.invoke(main, ["lg-hom", "x^3", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["results"]["even_dim"] == 2
    assert payload["results"]["odd_dim"] == 0
    twisted = runner.invoke(main, ["lg-hom", "x^3", "--group", "Z3", "--g", "1",
                                   "--json"])
    assert json.loads(twisted.output)["results"] == {
        "even_dim": 0, "odd_dim": 1,
        "stabilized_at": json.loads(twisted.output)["results"]["stabilized_at"]}


@pytest.mark.parametrize("potential", ["x^2+y^2+z^3", "x^2*y+y^3", "x^3+y^4", "x^3+x*y^3"],
                         ids=["A_2_three_variables", "D_4", "E_6", "E_7"])
def test_lg_hom_end_identity_is_milnor_number(runner, potential):
    jac = runner.invoke(main, ["lg-jacobi", potential, "--json"])
    hom = runner.invoke(main, ["lg-hom", potential, "--json"])
    assert jac.exit_code == 0 and hom.exit_code == 0, (jac.output, hom.output)
    mu = json.loads(jac.output)["results"]["dim"]
    results = json.loads(hom.output)["results"]
    assert (results["even_dim"], results["odd_dim"]) == (mu, 0)


def test_lg_hom_three_variables_within_a_work_bound(runner, monkeypatch):
    """End(I_W) of x^2+y^2+z^3 on the restricted complex: 8 slots over (x, y, z),
    one echelon per weighted degree in the window [-2, 2] (weights 3, 3, 2,
    degree 6).  The echelon over (x, y, z, x', y', z') on 64 slots fed 31,618
    rows; the window top is stabilized_at."""
    rows = []
    add = SparseEchelon.add

    def counted_add(self, row):
        rows.append(None)
        return add(self, row)

    monkeypatch.setattr(SparseEchelon, "add", counted_add)
    result = runner.invoke(main, ["lg-hom", "x^2+y^2+z^3", "--json"])
    assert result.exit_code == 0, result.output
    results = json.loads(result.output)["results"]
    assert (results["even_dim"], results["odd_dim"]) == (2, 0)
    assert results["stabilized_at"] == 2
    assert len(rows) <= 1000


def error_lines(result):
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    return [l for l in result.output.splitlines() if l.startswith("Error:")]


def test_lg_hom_names_a_non_isolated_singularity(runner):
    """x^2*y^2 has no isolated singularity, so End(I_W) is infinite-dimensional:
    the Jacobi algebra is computed before any Hom work, and the error says why."""
    assert error_lines(runner.invoke(main, ["lg-hom", "x^2*y^2"])) == [
        "Error: W = x^2*y^2 has a non-isolated singularity (no pure power of 'x' leads its "
        "Jacobian ideal), so Hom(I_W, Y) can be infinite-dimensional"]


def test_lg_hom_refuses_a_potential_that_is_not_quasi_homogeneous(runner):
    """x^3+x^2 has isolated critical points, but no weights make it homogeneous,
    so no degree window holds its Hom: one error line, exit 2."""
    assert error_lines(runner.invoke(main, ["lg-hom", "x^3+x^2"])) == [
        "Error: W = x^3 + x^2 is not quasi-homogeneous: no weights give all its monomials "
        "one degree"]


def test_lg_orbifold_command(runner):
    result = runner.invoke(main, ["lg-orbifold", "x^3", "--group", "Z3", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["results"]["even_dim"] == 2
    assert payload["results"]["odd_dim"] == 2
    assert payload["results"]["delta_separable"] is False


def test_nakayama_command(runner):
    result = runner.invoke(main, ["nakayama", "--builtin", "clifford1", "--json",
                                  "r=2"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["results"]["nakayama"]["0"] == [["-1"]]
    assert payload["results"]["nakayama"]["1"] == [["1"]]


@pytest.mark.parametrize("args", [
    ["check", "--builtin", "trivial", "r=0"],
    ["check", "--builtin", "trivial", "r=-3"],
    ["torus", "--builtin", "trivial", "r=0", "a=1", "b=1"],
    ["torus", "--builtin", "trivial", "r=-3", "a=1", "b=1"],
    ["surface", "--builtin", "trivial", "r=0", "genus=1", "holonomies=[(0,0)]"],
    ["lg-hom", "x^3", "--group", "Z0", "--g", "1"],
])
def test_bad_order_exit_2_without_traceback(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert "must be a positive integer" in result.output


def _lambda_file_without_spaces(data):
    del data["spaces"]
    return data


def _lambda_file_dividing_by_zero(data):
    data["mu"]["0,0"][0][0] = "1/0"
    return data


def _lambda_file(**changes):
    def corrupt(data):
        data.update(changes)
        return data
    return corrupt


def _lambda_file_with_number_entry(data):
    data["mu"]["0,0"][0][0] = 1
    return data


def _renamed_key(table, old, new):
    def corrupt(data):
        data[table][new] = data[table].pop(old)
        return data
    return corrupt


def _frobenius_file(name, **changes):
    def corrupt(data):
        return dict(builtin(name).to_config(), **changes)
    return corrupt


@pytest.mark.parametrize("corrupt,args,message", [
    (lambda data: [data], [], "JSON object"),
    (_lambda_file_without_spaces, [], "lacks spaces"),
    (_lambda_file_dividing_by_zero, [], "division by zero"),
    (_lambda_file_with_number_entry, [], "mu 0,0 must be a list of rows of scalar strings"),
    (_frobenius_file("clifford1", unit=[[1], ["0"]]), ["r=2"],
     "unit must be a list of rows of scalar strings"),
    (_lambda_file(spaces={"0": 5}), [], "dimensions must be a pair [even, odd], got 5"),
    (_lambda_file(r=2), [], "missing circle space C_1"),
    (_lambda_file(r=0), [], "r must be an integer >= 1, got 0"),
    (_lambda_file(r=1.5), [], "r must be an integer >= 1, got 1.5"),
    (_lambda_file(eta="10"), [], "eta must be a list of rows of scalar strings"),
    (_frobenius_file("clifford1", unit="10"), ["r=2"],
     "unit must be a list of rows of scalar strings"),
    (_frobenius_file("group_algebra_Zn", counit=[["1", "0"]]), ["r=2"], "Delta-separable"),
    # 1 * theta = 2 theta, so (1 * 1) * theta != 1 * (1 * theta)
    (_frobenius_file("clifford1", mult=[["1", "1", "0", "0"], ["0", "0", "2", "1"]]), ["r=2"],
     "the associativity axiom fails"),
    (_renamed_key("mu", "0,0", "٠,٠"), [], "mu key '٠,٠' must match [0-9]+,[0-9]+"),
    (_renamed_key("spaces", "0", "٠"), [], "spaces key '٠' must match [0-9]+"),
    (_renamed_key("mu", "0,0", "0"), [], "mu key '0' must match [0-9]+,[0-9]+"),
], ids=["top_level_list", "no_spaces_key", "scalar_1_over_0", "number_entry",
        "frobenius_number_entry", "space_not_a_pair", "r_without_spaces", "r_0", "r_not_integer",
        "string_as_rows", "frobenius_string_as_rows", "frobenius_not_separable",
        "frobenius_not_associative",
        "non_ascii_pair_key", "non_ascii_index_key", "pair_key_without_comma"])
def test_bad_file_exit_2_without_traceback(runner, tmp_path, corrupt, args, message):
    data = graded_center(builtin("group_algebra_Zn", n=2), 1).to_dict()
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(corrupt(data)))
    result = runner.invoke(main, ["check", "--file", str(path)] + args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert message in result.output


def _zero_mu_at_2_0(first):
    """A zero mu matrix under the key "2,0", which lies outside 0..r-1 for r = 2,
    placed before or after "0,0"; read mod r it would alias (0, 0)."""
    def corrupt(data):
        zero = [["0"] * len(row) for row in data["mu"]["0,0"]]
        extra = {"2,0": zero}
        data["mu"] = {**extra, **data["mu"]} if first else {**data["mu"], **extra}
        return data
    return corrupt


def _spaces_with_00(data):
    data["spaces"]["00"] = data["spaces"]["0"]
    return data


@pytest.mark.parametrize("corrupt,message", [
    (_zero_mu_at_2_0(True), "mu key '2,0' has an index outside 0..1"),
    (_zero_mu_at_2_0(False), "mu key '2,0' has an index outside 0..1"),
    (_spaces_with_00, "spaces key '00' repeats the index of another key"),
], ids=["outside_key_first", "outside_key_last", "leading_zero_alias"])
def test_aliasing_file_keys_exit_2_with_one_error_line(runner, tmp_path, corrupt, message):
    data = graded_center(builtin("group_algebra_Zn", n=2), 2).to_dict()
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(corrupt(data)))
    result = runner.invoke(main, ["check", "--file", str(path)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        ["Error: " + message], result.output


@pytest.mark.parametrize("args", [
    ["lg-orbifold", "0", "--group", "Z2"],
    ["lg-orbifold", "0", "--group", "Z3", "--json"],
    ["lg-circle-spaces", "0", "--group", "Z2"],
    ["lg-hom", "0", "--group", "Z2", "--g", "1"],
])
def test_potential_without_variables_exits_without_traceback(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 2), (result.output, result.exception)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args", [
    ["lg-jacobi", "x^2/0"],
    ["lg-jacobi", "x^2/(1-1)"],
    ["lg-hom", "x^2/0"],
    ["lg-orbifold", "x^2/(1-1)", "--group", "Z2"],
    ["lg-circle-spaces", "x^2/0", "--group", "Z2"],
])
def test_potential_dividing_by_zero_exit_2_without_traceback(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert "division by zero in polynomial" in result.output


@pytest.mark.parametrize("args,message", [
    (["lg-jacobi", "x²"], "unexpected character '²' in polynomial"),
    (["lg-jacobi", "x^²"], "unexpected character '²' in polynomial"),
    (["lg-jacobi", "x^2+y^٣"], "unexpected character '٣' in polynomial"),
    (["lg-orbifold", "x^2+y^2", "--group", "Z2", "--weights", "a"],
     "weights must be comma-separated integers, got 'a'"),
    (["lg-orbifold", "x^2+y^2", "--group", "Z2", "--weights", "1,,"],
     "weights must be comma-separated integers, got '1,,'"),
    (["lg-circle-spaces", "x^2+y^2", "--group", "Z2", "--weights", "1,٣"],
     "weights must be comma-separated integers, got '1,٣'"),
    (["lg-orbifold", "x^2", "--group", "Z²"], "--group must look like Z5"),
    (["lg-hom", "x^3", "--group", "Z٣", "--g", "1"], "--group must look like Z5"),
    (["check", "--builtin", "trivial", "r=٣"], "r must be an integer, got '٣'"),
    (["check", "--builtin", "trivial", "r=1", "--r", "2"], "No such option '--r'"),
    (["torus", "--builtin", "group_algebra_Zn", "--n", "٢", "--all-divisors"],
     "'٢' is not a valid integer"),
    (["lg-hom", "x^3", "--group", "Z3", "--g", "١"], "'١' is not a valid integer"),
    (["surface", "--builtin", "trivial", "r=2", "genus=a"],
     "genus must be an integer, got 'a'"),
    (["surface", "--builtin", "trivial", "r=2", "genus=1", "holonomies=[(٣,1)]"],
     "holonomies must look like"),
])
def test_malformed_or_non_ascii_numbers_exit_2_without_traceback(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert message in result.output


@pytest.mark.parametrize("command", ["lg-orbifold", "lg-circle-spaces", "lg-hom"])
@pytest.mark.parametrize("potential", ["x^2", "0"])
def test_empty_weights_exit_2_not_every_weight_1(runner, command, potential):
    result = runner.invoke(main, [command, potential, "--group", "Z2", "--weights="])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        ["Error: weights must be comma-separated integers, got ''"], result.output


@pytest.mark.parametrize("args,message", [
    (["lg-hom", "x^3", "--group", "banana", "--weights", "7,7,7"], "--group must look like Z5"),
    (["lg-hom", "x^3", "--group", "Z3", "--weights", "7,7,7"],
     "need one weight per variable (1)"),
    (["lg-hom", "x^3", "--weights", "1"], "--group Zr is required for orbifold commands"),
])
def test_lg_hom_checks_group_and_weights_without_g(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        ["Error: " + message], result.output


HUGE = "Z99999999999"


@pytest.mark.parametrize("args,message", [
    (["lg-orbifold", "x^2", "--group", HUGE],
     "potential x^2 is not invariant under %s: its monomial x^2 has weight 2, not 0 mod %s"
     % (HUGE, HUGE[1:])),
    (["lg-circle-spaces", "x^2", "--group", HUGE],
     "potential x^2 is not invariant under %s: its monomial x^2 has weight 2, not 0 mod %s"
     % (HUGE, HUGE[1:])),
    (["lg-hom", "x^2", "--group", HUGE, "--g", "1"],
     "potential x^2 is not invariant under %s: its monomial x^2 has weight 2, not 0 mod %s"
     % (HUGE, HUGE[1:])),
    (["lg-hom", "x^3", "--group", "Z2", "--g", "1"],
     "potential x^3 is not invariant under Z2: its monomial x^3 has weight 3, not 0 mod 2"),
    (["lg-hom", "x^3", "--group", "Z2"],
     "potential x^3 is not invariant under Z2: its monomial x^3 has weight 3, not 0 mod 2"),
    (["lg-orbifold", "x^3+y^3", "--group", "Z3", "--weights", "1,2"], None),
    (["lg-orbifold", "x^2+y^3", "--group", "Z3", "--weights", "1,0"],
     "potential y^3 + x^2 is not invariant under Z3: its monomial x^2 has weight 2, not 0 mod 3"),
])
def test_invariance_is_checked_on_integer_exponents(runner, args, message):
    """The weights of every monomial must sum to 0 mod r: no field of order r
    is built, so a huge r exits at once, and lg-hom names the potential."""
    result = runner.invoke(main, args)
    if message is None:
        assert result.exit_code == 0, result.output
        return
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        ["Error: " + message], result.output


@pytest.mark.parametrize("args,message", [
    (["check", "--builtin", "clifford1", "R=4"], "unknown key 'R'; check takes r"),
    (["check", "--builtin", "trivial", "r=1", "r=2"], "key 'r' is given more than once"),
    (["nakayama", "--builtin", "clifford1", "r=2", "a=1"], "unknown key 'a'; nakayama takes r"),
    (["nakayama", "--builtin", "clifford1", "r=2", "r=2"], "key 'r' is given more than once"),
    (["torus", "--builtin", "clifford1", "r=2", "a=1", "b=1", "a=0"],
     "key 'a' is given more than once"),
    (["torus", "--builtin", "clifford1", "r=2", "a=1", "B=1"],
     "unknown key 'B'; torus takes r, a, b"),
    (["surface", "--builtin", "clifford1", "r=2", "genus=1", "genus=2"],
     "key 'genus' is given more than once"),
    (["surface", "--builtin", "clifford1", "r=2", "genus=1", "holonomy=[(0,1)]"],
     "unknown key 'holonomy'; surface takes r, genus, holonomies"),
])
def test_unknown_or_repeated_key_exits_2_with_one_error_line(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        ["Error: " + message], result.output


def _algebra_file(tmp_path, data):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("data,args,message", [
    (lambda: graded_center(builtin("clifford1"), 2).to_dict(), ["check", "r=3"],
     "file has r=2, got r=3"),
    (lambda: builtin("clifford1").to_config(), ["check"],
     "a Frobenius algebra file needs r=<order>"),
    (lambda: {"format": "tensor_category"}, ["check", "r=2"], "unrecognised input file format"),
    (None, ["surface", "--builtin", "clifford1", "r=2"], "missing option 'genus'"),
    (None, ["surface", "--builtin", "clifford1", "r=2", "genus=1", "holonomies=[(0,1)"],
     "holonomies must look like [(0,1),(1,1)]"),
    (None, ["check", "--builtin", "trivial", "r2"], "expected key=value, got 'r2'"),
], ids=["file_r_differs", "frobenius_file_without_r", "unknown_format", "no_genus",
        "unclosed_holonomies", "bare_argument"])
def test_input_errors_exit_2_with_one_error_line(runner, tmp_path, data, args, message):
    if data is not None:
        args = args[:1] + ["--file", _algebra_file(tmp_path, data())] + args[1:]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert [l for l in result.output.splitlines() if l.startswith("Error:")] == \
        ["Error: " + message], result.output


def test_frobenius_file_answers_as_its_builtin(runner, tmp_path):
    path = _algebra_file(tmp_path, builtin("clifford1").to_config())
    result = runner.invoke(main, ["check", "--file", path, "r=2", "--json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["results"]
    assert (payload["ok"], payload["checks"]) == (True, 56)
    tables = []
    for source in (["--file", path], ["--builtin", "clifford1"]):
        result = runner.invoke(main, ["torus", *source, "--all-divisors", "r=4", "--json"])
        assert result.exit_code == 0, result.output
        tables.append(json.loads(result.output)["results"]["divisor_table"])
    assert tables == [{"1": "1", "2": "-1", "4": "-1"}] * 2


@pytest.mark.parametrize("args,value", [
    (["--builtin", "trivial", "r=2", "genus=0", "holonomies=[]"], "1"),
    (["--builtin", "clifford1", "r=2", "genus=0"], "2"),
])
def test_sphere_value(runner, args, value):
    result = runner.invoke(main, ["surface", "--json"] + args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["value"] == value


def test_in_process_command_releases_its_redirected_stdout():
    # click.echo's default stdout is cached per stream and never released
    out = io.StringIO()
    released = weakref.ref(out)
    with contextlib.redirect_stdout(out):
        main.main(args=["check", "--builtin", "trivial", "r=1", "--json"],
                  prog_name="rspin", standalone_mode=False)
    assert json.loads(out.getvalue())["results"]["ok"] is True
    del out
    gc.collect()
    assert released() is None


def test_check_clifford1_at_r_48(runner):
    result = runner.invoke(main, ["check", "--builtin", "clifford1", "r=48", "--json"])
    assert result.exit_code == 0, result.output[-300:]
    payload = json.loads(result.output)["results"]
    assert payload["ok"] is True
    assert payload["checks"] == 4 * 48 ** 3 + 3 * 48 ** 2 + 6 * 48 == 449568
    assert payload["failures"] == []


@pytest.mark.parametrize("potential", ["(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
                         ids=["parentheses", "unary_minus"])
def test_deep_nesting_exit_2_without_traceback(runner, potential):
    result = runner.invoke(main, ["lg-jacobi", "--", potential])
    assert result.exit_code == 2, (result.output[-300:], result.exception)
    assert "Traceback" not in result.output
    assert "polynomial nests parentheses and unary minus deeper than 100 levels" in result.output


@pytest.mark.parametrize("command", [
    ["check"], ["nakayama"], ["torus", "--all-divisors"], ["surface", "genus=1"],
])
def test_frobenius_file_missing_keys_exit_2_without_traceback(runner, tmp_path, command):
    data = builtin("clifford1").to_config()
    del data["even_dim"], data["counit"]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, command + ["--file", str(path), "r=2"])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert "frobenius_algebra data lacks even_dim, counit" in result.output


@pytest.mark.parametrize("command", [["check"], ["torus", "--all-divisors"]])
def test_deeply_nested_file_exit_2_without_traceback(runner, tmp_path, command):
    # json.dumps cannot build input this deep, so the text is written directly
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    result = runner.invoke(main, command + ["--file", str(path), "r=2"])
    assert result.exit_code == 2, (result.output[-300:], result.exception)
    assert "Traceback" not in result.output
    assert "input file nests JSON arrays or objects too deeply" in result.output


def test_readme_cli_commands_run(runner):
    text = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("rspin ") and "my_algebra.json" not in line]
    assert commands
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output[-300:], result.exception)
        assert "Traceback" not in result.output, args


# run in a fresh interpreter, since this process has long since loaded the LG stack
COLD_START = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rspin.cli

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rspin.cli.main.main(list(args), prog_name="rspin", standalone_mode=False)
    return code, out.getvalue()

help_code, help_text = run("--help")
check = json.loads(run("check", "--builtin", "clifford1", "r=2", "--json")[1])
torus = json.loads(run("torus", "--builtin", "clifford1", "--all-divisors", "r=4", "--json")[1])
loaded = sorted(name for name in sys.modules if name.startswith("rspin.landau_ginzburg"))

import rspin
try:
    rspin.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "help": [help_code, help_text], "check_ok": check["results"]["ok"],
    "torus": torus["results"]["divisor_table"], "loaded": loaded,
    "missing": missing, "dir": dir(rspin),
}))
"""

# each LG name rspin offers, with the module that defines it
LG_NAMES = {"Poly": "poly", "parse_poly": "poly", "jacobi": "groebner",
            "GroupAction": "mf", "MatrixFactorization": "mf", "identity_hom": "mf",
            "identity_mf": "mf", "mf_tensor": "mf", "twisted_identity": "mf",
            "lg_circle_spaces": "orbifold", "lg_torus_invariants": "orbifold",
            "orbifold_algebra": "orbifold"}


def test_commands_on_an_algebra_never_load_the_lg_stack():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", COLD_START, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    cold = json.loads(done.stdout)
    assert cold["loaded"] == []
    help_code, help_text = cold["help"]
    assert help_code == 0
    for command in ("lg-jacobi", "lg-hom", "lg-orbifold", "lg-circle-spaces"):
        assert command in help_text
    assert cold["check_ok"] is True
    assert cold["torus"] == {"1": "1", "2": "-1", "4": "-1"}
    # any name but the LG ones still raises
    assert cold["missing"] == "module 'rspin' has no attribute 'no_such_name'"
    assert set(LG_NAMES) <= set(cold["dir"])


# run in a fresh interpreter: the lg-* commands each load only the LG modules
# they run, and each LG name read from rspin loads only the module defining it
LG_COLD_START = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rspin.cli

def loaded():
    return sorted(name.rpartition(".")[2] for name in sys.modules
                  if name.startswith("rspin.landau_ginzburg"))

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rspin.cli.main.main(list(args), prog_name="rspin", standalone_mode=False)
    return json.loads(out.getvalue())["results"], loaded()

if sys.argv[2] == "commands":
    print(json.dumps([run("lg-jacobi", "x^4", "--json"),
                      run("lg-hom", "x^5", "--group", "Z5", "--g", "2", "--json")]))
else:
    names = []
    for name, module in json.loads(sys.argv[2]):
        value = getattr(rspin, name)
        own = getattr(importlib.import_module("rspin.landau_ginzburg." + module), name)
        names.append([name, value is own, loaded()])
    print(json.dumps(names))
"""


def lg_cold_start(mode):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", LG_COLD_START, str(src), mode],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


def test_each_lg_command_loads_only_the_modules_it_runs():
    jacobi, hom = lg_cold_start("commands")
    assert jacobi == [{"basis": ["1", "x", "x^2"], "dim": 3},
                      ["groebner", "landau_ginzburg", "poly"]]
    assert hom == [{"even_dim": 0, "odd_dim": 1, "stabilized_at": 3},
                   ["groebner", "landau_ginzburg", "mf", "poly"]]


def test_each_lg_name_loads_only_the_module_that_defines_it():
    # read in dependency order, poly < groebner < mf < orbifold, so each
    # module appears in sys.modules with the first name that it defines
    order = ("poly", "groebner", "mf", "orbifold")
    names = sorted(LG_NAMES.items(), key=lambda item: order.index(item[1]))
    expected, seen = [], ["landau_ginzburg"]
    for name, module in names:
        seen = sorted(set(seen) | {module})
        expected.append([name, True, seen])
    assert lg_cold_start(json.dumps(names)) == expected
