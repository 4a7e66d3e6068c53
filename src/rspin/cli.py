"""Batch command-line interface: validations, invariants, LG computations.

Exit codes: 0 success, 1 validation failure, 2 usage or parse errors.
`--json` emits a stable schema {command, inputs, results, convention_flags};
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import re
import sys

import click

from . import conventions
from .constructors import (
    BUILTIN_NAMES,
    FrobeniusAlgebraData,
    FrobeniusError,
    builtin,
    graded_center_data,
    nakayama_gamma,
)
from .lambda_frobenius import LambdaFrobenius, validate
from .landau_ginzburg.groebner import GroebnerError, jacobi
from .landau_ginzburg.mf import (
    GroupAction,
    MFError,
    hom_cohomology,
    identity_mf,
    twisted_identity,
)
from .landau_ginzburg.orbifold import OrbifoldError, lg_circle_spaces, orbifold_algebra
from .landau_ginzburg.poly import PolyError, format_poly, parse_poly
from .scalars import ScalarError, format_scalar
from .surface_eval import (
    RSpinClosedSurface,
    RSpinTorus,
    SurfaceError,
    all_torus_invariants,
    evaluate_surface,
    evaluate_torus,
    torus_normal_form,
)

INPUT_ERRORS = (ScalarError, PolyError, GroebnerError, MFError, OrbifoldError,
                SurfaceError, FrobeniusError, ValueError, OSError)


def emit(payload, as_json):
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))
        return
    for line in _human_lines(payload):
        click.echo(line)


def _human_lines(payload):
    results = payload.get("results", {})
    lines = []
    for key in sorted(results):
        value = results[key]
        if isinstance(value, dict):
            lines.append("%s:" % key)
            for k in sorted(value, key=str):
                lines.append("  %s: %s" % (k, value[k]))
        elif isinstance(value, list):
            lines.append("%s:" % key)
            for item in value:
                lines.append("  %s" % (item,))
        else:
            lines.append("%s: %s" % (key, value))
    return lines


def _parse_kv(args):
    options = {}
    for arg in args:
        if "=" not in arg:
            raise click.UsageError("expected key=value, got %r" % arg)
        key, value = arg.split("=", 1)
        options[key.strip()] = value.strip()
    return options


def _ascii_int(text):
    """The integer text spells in ASCII digits with an optional sign, or None."""
    return int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else None


class _AsciiInt(click.ParamType):
    """click's integer type, ASCII digits only (int() also reads other scripts' digits)."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        number = _ascii_int(value)
        if number is None:
            self.fail("%r is not a valid integer." % value, param, ctx)
        return number


_ASCII_INT = _AsciiInt()


def _int_option(options, key, default):
    text = options.get(key)
    if text is None:
        return default
    value = _ascii_int(text)
    if value is None:
        raise click.UsageError("%s must be an integer, got %r" % (key, text))
    return value


def _load_lambda(builtin_name, file_path, r, n):
    """Resolve the input source into a LambdaFrobenius (building if needed)."""
    if (builtin_name is None) == (file_path is None):
        raise click.UsageError("exactly one of --builtin or --file is required")
    if builtin_name is not None:
        algebra = builtin(builtin_name, n=n)
        if r is None:
            # default to the minimal admissible order, the order of gamma_A
            powers = nakayama_gamma(algebra).powers(24)
            if powers is None:
                raise click.UsageError("could not infer r: gamma has order > 24")
            r = len(powers)
        return graded_center_data(algebra, r).algebra, {
            "builtin": builtin_name, "r": r}
    with open(file_path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise click.UsageError("input file must hold a JSON object, not a %s"
                               % type(data).__name__)
    if data.get("format") == "lambda_frobenius":
        alg = LambdaFrobenius.from_dict(data)
        if r is not None and alg.r != r:
            raise click.UsageError("file has r=%d, got r=%d" % (alg.r, r))
        return alg, {"file": file_path, "r": alg.r}
    if data.get("format") == "frobenius_algebra":
        if r is None:
            raise click.UsageError("a Frobenius algebra file needs r=<order>")
        algebra = FrobeniusAlgebraData.from_config(data)
        return graded_center_data(algebra, r).algebra, {"file": file_path, "r": r}
    raise click.UsageError("unrecognised input file format")


def _action_from_options(w, group, weights):
    if group is None:
        raise click.UsageError("--group Zr is required for orbifold commands")
    match = re.fullmatch(r"Z([0-9]+)", group)
    if match is None:
        raise click.UsageError("--group must look like Z5")
    r = int(match.group(1))
    names = tuple(sorted(w.vars))
    if weights:
        parts = [_ascii_int(x.strip()) for x in weights.split(",")]
        if None in parts:
            raise click.UsageError("weights must be comma-separated integers, got %r"
                                   % weights)
        if len(parts) != len(names):
            raise click.UsageError("need one weight per variable (%d)" % len(names))
    else:
        parts = [1] * len(names)
    return GroupAction(r, tuple(zip(names, parts)))


@click.group()
def main():
    """Exact r-spin invariants from closed Lambda_r-Frobenius algebras."""


def common_options(fn):
    fn = click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_NAMES),
                      default=None, help="built-in Frobenius algebra")(fn)
    fn = click.option("--file", "file_path", default=None,
                      help="algebra file (Lambda_r or Frobenius JSON)")(fn)
    fn = click.option("--r", "r_opt", type=_ASCII_INT, default=None, help="spin order r")(fn)
    fn = click.option("--n", type=_ASCII_INT, default=2,
                      help="size parameter for parametrised builtins")(fn)
    fn = click.option("--json", "as_json", is_flag=True, help="machine-readable output")(fn)
    return fn


@main.command()
@common_options
@click.argument("kv", nargs=-1)
def check(builtin_name, file_path, r_opt, n, as_json, kv):
    """Validate all closed Lambda_r-Frobenius relations; exit 1 on failure."""
    options = _parse_kv(kv)
    r = _int_option(options, "r", r_opt)
    try:
        alg, inputs = _load_lambda(builtin_name, file_path, r, n)
        report = validate(alg)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    failures = [
        {"relation": e.family, "indices": list(map(str, e.indices))}
        for e in report.failures()
    ]
    payload = {
        "command": "check",
        "inputs": inputs,
        "results": {
            "ok": report.ok,
            "checks": len(report.entries),
            "failures": failures,
            "summary": report.summary().splitlines(),
        },
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)
    if not report.ok:
        sys.exit(1)


@main.command()
@common_options
@click.argument("kv", nargs=-1)
def nakayama(builtin_name, file_path, r_opt, n, as_json, kv):
    """Print the Nakayama automorphisms N_a of the algebra."""
    options = _parse_kv(kv)
    r = _int_option(options, "r", r_opt)
    try:
        alg, inputs = _load_lambda(builtin_name, file_path, r, n)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    tables = {}
    for a in range(alg.r):
        nmap = alg.nakayama(a)
        tables[str(a)] = [[format_scalar(x) for x in row] for row in nmap.rows]
    payload = {
        "command": "nakayama",
        "inputs": inputs,
        "results": {"nakayama": tables},
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


@main.command()
@common_options
@click.option("--all-divisors", is_flag=True, help="tabulate Z(T(d)) per divisor d|r")
@click.argument("kv", nargs=-1)
def torus(builtin_name, file_path, r_opt, n, as_json, all_divisors, kv):
    """Evaluate r-spin torus invariants: torus r=8 a=4 b=6, or --all-divisors."""
    options = _parse_kv(kv)
    r = _int_option(options, "r", r_opt)
    try:
        alg, inputs = _load_lambda(builtin_name, file_path, r, n)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    results = {}
    if all_divisors:
        table = all_torus_invariants(alg)
        results["divisor_table"] = {str(d): format_scalar(v) for d, v in table.items()}
    if "a" in options or "b" in options:
        a = _int_option(options, "a", 0)
        b = _int_option(options, "b", 0)
        t = RSpinTorus(alg.r, a, b)
        try:
            value = evaluate_torus(alg, t)
        except SurfaceError as exc:
            raise click.UsageError(str(exc))
        results["T(%d,%d)" % (a, b)] = format_scalar(value)
        results["normal_form_divisor"] = torus_normal_form(t)
    if not results:
        raise click.UsageError("give a=.. b=.. or --all-divisors")
    payload = {
        "command": "torus",
        "inputs": dict(inputs, **{k: options[k] for k in ("a", "b") if k in options}),
        "results": results,
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


@main.command()
@common_options
@click.argument("kv", nargs=-1)
def surface(builtin_name, file_path, r_opt, n, as_json, kv):
    """Evaluate a closed surface: surface r=2 genus=2 holonomies=[(0,1),(1,1)]."""
    options = _parse_kv(kv)
    r = _int_option(options, "r", r_opt)
    try:
        alg, inputs = _load_lambda(builtin_name, file_path, r, n)
        if "genus" not in options:
            raise click.UsageError("missing option 'genus'")
        genus = _int_option(options, "genus", None)
        holonomies = _parse_holonomies(options.get("holonomies", "[]"))
        surf = RSpinClosedSurface(alg.r, genus, tuple(holonomies))
        value = evaluate_surface(alg, surf)
    except KeyError as exc:
        raise click.UsageError("missing option %s" % exc)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    payload = {
        "command": "surface",
        "inputs": dict(inputs, genus=genus,
                       holonomies=[list(h) for h in surf.handles]),
        "results": {"value": format_scalar(value)},
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


def _parse_holonomies(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise click.UsageError("holonomies must look like [(0,1),(1,1)]")
    body = text[1:-1].strip()
    if not body:
        return []
    pairs = re.findall(r"\(\s*(-?[0-9]+)\s*,\s*(-?[0-9]+)\s*\)", body)
    rebuilt = ",".join("(%s,%s)" % p for p in pairs)
    if rebuilt.replace(" ", "") != body.replace(" ", ""):
        raise click.UsageError("holonomies must look like [(0,1),(1,1)]")
    return [(int(a), int(b)) for a, b in pairs]


@main.command("lg-jacobi")
@click.argument("potential")
@click.option("--json", "as_json", is_flag=True)
def lg_jacobi(potential, as_json):
    """Jacobi algebra of a potential: dimension and monomial basis."""
    try:
        w = parse_poly(potential)
        jac = jacobi(w)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    basis = []
    for exp in jac.monomial_basis:
        mono = "*".join(("%s" % v if e == 1 else "%s^%d" % (v, e))
                        for v, e in zip(jac.vars, exp) if e)
        basis.append(mono if mono else "1")
    payload = {
        "command": "lg-jacobi",
        "inputs": {"potential": format_poly(w)},
        "results": {"dim": jac.dimension, "basis": basis},
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


@main.command("lg-hom")
@click.argument("potential")
@click.option("--group", default=None, help="cyclic group Zr for twists")
@click.option("--weights", default=None, help="comma-separated action weights")
@click.option("--g", "g_twist", type=_ASCII_INT, default=None, help="twisted sector")
@click.option("--shift", is_flag=True, help="shift the target by [1]")
@click.option("--json", "as_json", is_flag=True)
def lg_hom(potential, group, weights, g_twist, shift, as_json):
    """Hom cohomology dimensions between (twisted/shifted) identity defects."""
    try:
        w = parse_poly(potential)
        source = identity_mf(w)
        if g_twist is not None:
            action = _action_from_options(w, group, weights)
            target = twisted_identity(w, action, g_twist)
        else:
            target = identity_mf(w)
        if shift:
            target = target.shift()
        h = hom_cohomology(source, target)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    payload = {
        "command": "lg-hom",
        "inputs": {"potential": format_poly(w), "g": g_twist, "shift": shift},
        "results": {"even_dim": h.even_dim, "odd_dim": h.odd_dim,
                    "stabilized_at": h.stabilized_at},
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


@main.command("lg-orbifold")
@click.argument("potential")
@click.option("--group", required=False, default=None)
@click.option("--weights", default=None)
@click.option("--json", "as_json", is_flag=True)
def lg_orbifold(potential, group, weights, as_json):
    """Orbifold algebra of a Fermat potential under a diagonal cyclic action."""
    try:
        w = parse_poly(potential)
        action = _action_from_options(w, group, weights)
        orb = orbifold_algebra(w, action)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    gamma_rows = orb.gamma.map.rows
    gamma_diag = [format_scalar(gamma_rows[k][k]) for k in range(orb.algebra.dim)]
    payload = {
        "command": "lg-orbifold",
        "inputs": {"potential": format_poly(w), "r": action.r,
                   "weights": [list(wv) for wv in action.weights]},
        "results": {
            "even_dim": orb.algebra.space.even,
            "odd_dim": orb.algebra.space.odd,
            "sector_dims": {str(g): d for g, d in orb.sector_dims().items()},
            "gamma_diagonal": gamma_diag,
            "delta_separable": orb.delta_separable,
            "counit_scale": format_scalar(orb.counit_scale),
        },
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


@main.command("lg-circle-spaces")
@click.argument("potential")
@click.option("--group", required=False, default=None)
@click.option("--weights", default=None)
@click.option("--json", "as_json", is_flag=True)
def lg_circle_spaces_cmd(potential, group, weights, as_json):
    """Circle spaces, quantum dimensions and torus invariants of an LG orbifold."""
    try:
        w = parse_poly(potential)
        action = _action_from_options(w, group, weights)
        cs = lg_circle_spaces(w, action)
    except INPUT_ERRORS as exc:
        raise click.UsageError(str(exc))
    payload = {
        "command": "lg-circle-spaces",
        "inputs": {"potential": format_poly(w), "r": action.r,
                   "weights": [list(wv) for wv in action.weights]},
        "results": {
            "circle_spaces": {str(a): [s.even, s.odd] for a, s in cs.spaces.items()},
            "quantum_dimensions": {str(a): q for a, q in cs.qdims.items()},
            "torus_invariants_signed": {str(d): v for d, v in cs.torus_invariants.items()},
            "torus_invariants_abs": {str(d): abs(v) for d, v in cs.torus_invariants.items()},
            "distinguishable_classes": len({abs(v) for v in cs.torus_invariants.values()}),
            "graded_center_crosscheck": cs.crosscheck,
        },
        "convention_flags": conventions.FLAGS,
    }
    emit(payload, as_json)


if __name__ == "__main__":
    main()
