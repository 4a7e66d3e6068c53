"""Batch command-line interface: validations, invariants, LG computations.

Exit codes: 0 success, 1 validation failure, 2 usage or parse errors.
Every command runs through one command class that turns a library error
(ValueError, which every rspin error class derives from, or OSError) into
a usage error, exit 2.  `--json` emits a stable schema {command, inputs,
results, convention_flags}; identical inputs produce byte-identical output.

The lg-* commands and their helpers import the Landau-Ginzburg modules they
use in their bodies, so a command on an algebra never loads the stack, and
lg-jacobi, for one, loads no mf or orbifold.
"""

from __future__ import annotations

import json
import re
import sys

import click

from . import conventions
from .constructors import (
    BUILTIN_NAMES,
    AlgebraAutomorphism,
    FrobeniusAlgebraData,
    builtin,
    graded_center_data,
)
from .lambda_frobenius import LambdaFrobenius, validate, write_map
from .scalars import format_scalar
from .surface_eval import (
    RSpinClosedSurface,
    RSpinTorus,
    all_torus_invariants,
    evaluate_surface,
    evaluate_torus,
    torus_normal_form,
)


class _Command(click.Command):
    """A command whose library errors are usage errors: exit 2, one line, no traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            raise click.UsageError(str(exc), ctx) from exc


def emit(command, inputs, results, as_json):
    # write to the current sys.stdout by name: click.echo's default stream is
    # cached per stdout object and never released, so every stdout an
    # in-process caller redirects per command would stay in memory
    out = sys.stdout
    if as_json:
        payload = {"command": command, "inputs": inputs, "results": results,
                   "convention_flags": conventions.FLAGS}
        click.echo(json.dumps(payload, sort_keys=True, indent=2), file=out)
        return
    for key in sorted(results):
        value = results[key]
        if isinstance(value, dict):
            click.echo("%s:" % key, file=out)
            for k in sorted(value, key=str):
                click.echo("  %s: %s" % (k, value[k]), file=out)
        elif isinstance(value, list):
            click.echo("%s:" % key, file=out)
            for item in value:
                click.echo("  %s" % (item,), file=out)
        else:
            click.echo("%s: %s" % (key, value), file=out)


def _ascii_int(text):
    """The integer text spells in ASCII digits with an optional sign, or None
    (int() also reads other scripts' digits)."""
    return int(text) if re.fullmatch(r"[+-]?[0-9]+", text) else None


class _AsciiInt(click.ParamType):
    """click's integer type, ASCII digits only."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        number = _ascii_int(value)
        if number is None:
            self.fail("%r is not a valid integer." % value, param, ctx)
        return number


def _int_option(options, key, default):
    text = options.get(key)
    if text is None:
        return default
    value = _ascii_int(text)
    if value is None:
        raise click.UsageError("%s must be an integer, got %r" % (key, text))
    return value


def _key_values(keys):
    """The callback turning the key=value arguments into {key: value}: each key
    one of the command's keys, given at most once."""
    def parse(ctx, param, kv):
        options = {}
        for arg in kv:
            if "=" not in arg:
                raise click.UsageError("expected key=value, got %r" % arg, ctx)
            key, value = (part.strip() for part in arg.split("=", 1))
            if key not in keys:
                raise click.UsageError("unknown key %r; %s takes %s"
                                       % (key, ctx.info_name, ", ".join(keys)), ctx)
            if key in options:
                raise click.UsageError("key %r is given more than once" % key, ctx)
            options[key] = value
        return options
    return parse


def _algebra(builtin_name, file_path, n, options):
    """The algebra the options name (built if needed) and its inputs record;
    r= is the spin order."""
    r = _int_option(options, "r", None)
    if (builtin_name is None) == (file_path is None):
        raise click.UsageError("exactly one of --builtin or --file is required")
    if builtin_name is not None:
        algebra = builtin(builtin_name, n=n)
        if r is None:
            # default to the minimal admissible order, ord(gamma_A) = ord(N_0)
            powers = AlgebraAutomorphism(algebra.nakayama(0)).powers(24)
            if powers is None:
                raise click.UsageError("could not infer r: gamma has order > 24")
            r = len(powers)
        return graded_center_data(algebra, r).algebra, {"builtin": builtin_name, "r": r}
    with open(file_path) as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise click.UsageError("input file nests JSON arrays or objects too deeply") from None
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
    from .landau_ginzburg.mf import GroupAction

    if group is None:
        raise click.UsageError("--group Zr is required for orbifold commands")
    match = re.fullmatch(r"Z([0-9]+)", group)
    if match is None:
        raise click.UsageError("--group must look like Z5")
    r = int(match.group(1))
    names = tuple(sorted(w.vars))
    if weights is not None:
        parts = [_ascii_int(x.strip()) for x in weights.split(",")]
        if None in parts:
            raise click.UsageError("weights must be comma-separated integers, got %r"
                                   % weights)
        if len(parts) != len(names):
            raise click.UsageError("need one weight per variable (%d)" % len(names))
    else:
        parts = [1] * len(names)
    return GroupAction(r, tuple(zip(names, parts)))


def _lg_inputs(w, action):
    from .landau_ginzburg.poly import format_poly

    return {"potential": format_poly(w), "r": action.r,
            "weights": [list(wv) for wv in action.weights]}


@click.group()
def main():
    """Exact r-spin invariants from closed Lambda_r-Frobenius algebras."""


main.command_class = _Command


def _options(*decorators):
    """One decorator applying the given ones in the order they are listed."""
    def apply(fn):
        for decorator in reversed(decorators):
            fn = decorator(fn)
        return fn
    return apply


def algebra_command(*extra, keys=("r",)):
    """A command on one algebra: --builtin or --file, --n, --json, extra options, and
    key=value arguments for the given keys."""
    return _options(
        main.command(),
        click.option("--json", "as_json", is_flag=True, help="machine-readable output"),
        click.option("--n", type=_AsciiInt(), default=2,
                     help="size parameter for parametrised builtins"),
        click.option("--file", "file_path", default=None,
                     help="algebra file (Lambda_r or Frobenius JSON)"),
        click.option("--builtin", "builtin_name", type=click.Choice(BUILTIN_NAMES),
                     default=None, help="built-in Frobenius algebra"),
        *extra,
        click.argument("options", nargs=-1, metavar="[KEY=VALUE]...", callback=_key_values(keys)))


def lg_command(name, *extra, group=False):
    """A command on one potential: POTENTIAL, --json, optionally --group/--weights, extras."""
    orbifold = (click.option("--group", default=None, help="cyclic group Zr"),
                click.option("--weights", default=None, help="comma-separated action weights"))
    return _options(
        main.command(name),
        click.argument("potential"),
        *(orbifold if group else ()),
        *extra,
        click.option("--json", "as_json", is_flag=True, help="machine-readable output"))


@algebra_command()
def check(builtin_name, file_path, n, as_json, options):
    """Validate all closed Lambda_r-Frobenius relations; exit 1 on failure."""
    alg, inputs = _algebra(builtin_name, file_path, n, options)
    report = validate(alg)
    failures = [
        {"relation": e.family, "indices": list(map(str, e.indices))}
        for e in report.failures()
    ]
    emit("check", inputs, {
        "ok": report.ok,
        "checks": len(report.entries),
        "failures": failures,
        "summary": report.summary().splitlines(),
    }, as_json)
    if not report.ok:
        sys.exit(1)


@algebra_command()
def nakayama(builtin_name, file_path, n, as_json, options):
    """Print the Nakayama automorphisms N_a of the algebra."""
    alg, inputs = _algebra(builtin_name, file_path, n, options)
    tables = {str(a): write_map(alg.nakayama(a)) for a in range(alg.r)}
    emit("nakayama", inputs, {"nakayama": tables}, as_json)


@algebra_command(click.option("--all-divisors", is_flag=True,
                              help="tabulate Z(T(d)) per divisor d|r"), keys=("r", "a", "b"))
def torus(builtin_name, file_path, n, as_json, all_divisors, options):
    """Evaluate r-spin torus invariants: torus r=8 a=4 b=6, or --all-divisors."""
    alg, inputs = _algebra(builtin_name, file_path, n, options)
    results = {}
    if all_divisors:
        table = all_torus_invariants(alg)
        results["divisor_table"] = {str(d): format_scalar(v) for d, v in table.items()}
    if "a" in options or "b" in options:
        a = _int_option(options, "a", 0)
        b = _int_option(options, "b", 0)
        t = RSpinTorus(alg.r, a, b)
        results["T(%d,%d)" % (a, b)] = format_scalar(evaluate_torus(alg, t))
        results["normal_form_divisor"] = torus_normal_form(t)
    if not results:
        raise click.UsageError("give a=.. b=.. or --all-divisors")
    inputs.update((k, options[k]) for k in ("a", "b") if k in options)
    emit("torus", inputs, results, as_json)


@algebra_command(keys=("r", "genus", "holonomies"))
def surface(builtin_name, file_path, n, as_json, options):
    """Evaluate a closed surface: surface r=2 genus=2 holonomies=[(0,1),(1,1)]."""
    alg, inputs = _algebra(builtin_name, file_path, n, options)
    if "genus" not in options:
        raise click.UsageError("missing option 'genus'")
    genus = _int_option(options, "genus", None)
    holonomies = _parse_holonomies(options.get("holonomies", "[]"))
    surf = RSpinClosedSurface(alg.r, genus, tuple(holonomies))
    value = evaluate_surface(alg, surf)
    inputs.update(genus=genus, holonomies=[list(h) for h in surf.handles])
    emit("surface", inputs, {"value": format_scalar(value)}, as_json)


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


@lg_command("lg-jacobi")
def lg_jacobi(potential, as_json):
    """Jacobi algebra of a potential: dimension and monomial basis."""
    from .landau_ginzburg.groebner import jacobi
    from .landau_ginzburg.poly import format_monomial, format_poly, parse_poly

    w = parse_poly(potential)
    jac = jacobi(w)
    basis = [format_monomial(jac.vars, exp) or "1" for exp in jac.monomial_basis]
    emit("lg-jacobi", {"potential": format_poly(w)},
         {"dim": jac.dimension, "basis": basis}, as_json)


@lg_command("lg-hom",
            click.option("--g", "g_twist", type=_AsciiInt(), default=None, help="twisted sector"),
            click.option("--shift", is_flag=True, help="shift the target by [1]"),
            group=True)
def lg_hom(potential, group, weights, g_twist, shift, as_json):
    """Hom cohomology dimensions between (twisted/shifted) identity defects."""
    from .landau_ginzburg.mf import identity_hom
    from .landau_ginzburg.poly import format_poly, parse_poly

    w = parse_poly(potential)
    # a given --group or --weights is checked even when no --g uses it
    action = None
    if group is not None or weights is not None or g_twist is not None:
        action = _action_from_options(w, group, weights)
        action.check_invariance(w)
    h = identity_hom(w, action, g_twist, shift)
    emit("lg-hom", {"potential": format_poly(w), "g": g_twist, "shift": shift},
         {"even_dim": h.even_dim, "odd_dim": h.odd_dim, "stabilized_at": h.stabilized_at},
         as_json)


@lg_command("lg-orbifold", group=True)
def lg_orbifold(potential, group, weights, as_json):
    """Orbifold algebra of a Fermat potential under a diagonal cyclic action."""
    from .landau_ginzburg.orbifold import orbifold_algebra
    from .landau_ginzburg.poly import parse_poly

    w = parse_poly(potential)
    action = _action_from_options(w, group, weights)
    orb = orbifold_algebra(w, action)
    # gamma is diagonal: entry k of row k is the weight of basis vector k
    gamma_diag = [format_scalar(row[k]) for k, row in enumerate(orb.gamma.map.entries)]
    emit("lg-orbifold", _lg_inputs(w, action), {
        "even_dim": orb.algebra.space(0).even,
        "odd_dim": orb.algebra.space(0).odd,
        "sector_dims": {str(g): d for g, d in orb.sector_dims().items()},
        "gamma_diagonal": gamma_diag,
        "delta_separable": orb.delta_separable,
        "counit_scale": format_scalar(orb.counit_scale),
    }, as_json)


@lg_command("lg-circle-spaces", group=True)
def lg_circle_spaces_cmd(potential, group, weights, as_json):
    """Circle spaces, quantum dimensions and torus invariants of an LG orbifold."""
    from .landau_ginzburg.orbifold import lg_circle_spaces
    from .landau_ginzburg.poly import parse_poly

    w = parse_poly(potential)
    action = _action_from_options(w, group, weights)
    cs = lg_circle_spaces(w, action)
    emit("lg-circle-spaces", _lg_inputs(w, action), {
        "circle_spaces": {str(a): [s.even, s.odd] for a, s in cs.spaces.items()},
        "quantum_dimensions": {str(a): q for a, q in cs.qdims.items()},
        "torus_invariants_signed": {str(d): v for d, v in cs.torus_invariants.items()},
        "torus_invariants_abs": {str(d): abs(v) for d, v in cs.torus_invariants.items()},
        "distinguishable_classes": len({abs(v) for v in cs.torus_invariants.values()}),
        "graded_center_crosscheck": cs.crosscheck,
    }, as_json)


if __name__ == "__main__":
    main()
