import json

import pytest
from click.testing import CliRunner

from rspin.cli import main
from rspin.constructors import builtin, graded_center
from rspin.scalars import format_scalar
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


@pytest.mark.parametrize("corrupt,message", [
    (lambda data: [data], "JSON object"),
    (_lambda_file_without_spaces, "lacks spaces"),
    (_lambda_file_dividing_by_zero, "division by zero"),
], ids=["top_level_list", "no_spaces_key", "scalar_1_over_0"])
def test_bad_file_exit_2_without_traceback(runner, tmp_path, corrupt, message):
    data = graded_center(builtin("group_algebra_Zn", n=2), 1).to_dict()
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(corrupt(data)))
    result = runner.invoke(main, ["check", "--file", str(path)])
    assert result.exit_code == 2, (result.output, result.exception)
    assert "Traceback" not in result.output
    assert message in result.output


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
    (["check", "--builtin", "trivial", "--r", "٣"], "'٣' is not a valid integer"),
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
