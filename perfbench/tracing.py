"""Spans and counters for the traced run, installed from outside the package.

`install` wraps the public functions of each rspin module.  A name bound
by `from .superlinalg import tensor` is a separate binding in every
importing module, so every binding of a wrapped function is found by
identity in every loaded rspin module and class and replaced; a scan
afterwards proves none was missed.

Each wrapped call pushes a frame, so self time (duration minus the time
of wrapped children) is exact for every group.  Functions called many
times per job (scalar and polynomial arithmetic, SuperMap construction,
compose, tensor and small helpers) are only aggregated; the coarse ones
marked in spec() also keep a span record (name, start, end, parent) in
memory, written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# group -> workloads where the layer map says the group's metrics should move;
# a traced run on one of them fails if the group never fired
REQUIRED = {
    "scalars.mul": ("centre_check", "lg_orbifold", "lg_hom"),
    "scalars.add": ("centre_check", "lg_orbifold", "lg_hom"),
    "scalars.inverse": ("centre_check", "lg_orbifold", "lg_hom"),
    "superlinalg.tensor": ("centre_check",),
    "superlinalg.supermap": ("centre_check", "surface_sweep"),
    "superlinalg.compose": ("surface_sweep",),
    "superlinalg.solve": ("lg_orbifold",),
    "lambda_frobenius.validate": ("centre_check",),
    "lambda_frobenius.nakayama": ("centre_check",),
    "constructors.assemble": ("lg_orbifold",),
    "constructors.nakayama_gamma": ("surface_sweep",),
    "constructors.averaging_projector": ("surface_sweep",),
    "constructors.graded_center_data": ("surface_sweep",),
    "surface_eval.evaluate_surface": ("surface_sweep",),
    "surface_eval.evaluate_torus": ("surface_sweep",),
    "landau_ginzburg.poly.mul": ("lg_orbifold", "lg_hom"),
    "landau_ginzburg.groebner": ("lg_hom",),
    "landau_ginzburg.mf.hom_cohomology": ("lg_hom",),
    "landau_ginzburg.orbifold.orbifold_algebra": ("lg_orbifold",),
    "landau_ginzburg.orbifold.lg_circle_spaces": ("lg_orbifold",),
    "cli": ("centre_check", "lg_orbifold", "lg_hom"),
}


class Tracer:
    def __init__(self):
        self.stack = [[0.0]]      # frames: [time covered by wrapped children]
        self.open_records = [None]
        self.agg = {}             # group -> [calls, self seconds]
        self.counters = Counter()
        self.records = []         # [name, start, end, parent index, detail]
        self.bindings = []        # "module.attr" of every replaced binding

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, group, record, post):
        stack, agg = self.stack, self.agg
        entry = agg.setdefault(group, [0, 0.0])
        clock = time.perf_counter
        tracer = self

        if not record and post is None:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    entry[0] += 1
                    entry[1] += dur - frame[0]
                    stack[-1][0] += dur
        else:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                index = tracer._open(group, None) if record else None
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    dur = end - start
                    stack.pop()
                    entry[0] += 1
                    entry[1] += dur - frame[0]
                    stack[-1][0] += dur
                    if record:
                        tracer._close(index, start, end)
                if post is not None:
                    post(tracer.counters, args, kwargs, result)
                    # counting is tracing work: keep it out of the caller's self time
                    stack[-1][0] += clock() - end
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def _open(self, name, detail):
        index = len(self.records)
        self.records.append([name, None, None, self.open_records[-1], detail])
        self.open_records.append(index)
        return index

    def _close(self, index, start, end):
        self.open_records.pop()
        self.records[index][1] = start
        self.records[index][2] = end

    @contextmanager
    def span(self, group, detail=None):
        """A recorded span opened by the benchmark itself (jobs, set-up)."""
        entry = self.agg.setdefault(group, [0, 0.0])
        frame = [0.0]
        index = self._open(group, detail)
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            dur = end - start
            self.stack.pop()
            entry[0] += 1
            entry[1] += dur - frame[0]
            self.stack[-1][0] += dur
            self._close(index, start, end)

    # -- installation -------------------------------------------------------

    def install(self, spec):
        """Replace every binding of each spec'd function in loaded rspin modules."""
        targets = {}
        for owner, attr, group, record, post in spec:
            raw = owner.__dict__.get(attr)
            if raw is None:  # a required group that loses its functions fails assert_fired
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            targets[id(fn)] = (fn, group, record, post)
        for owner in _namespaces():
            for name, value in list(vars(owner).items()):
                fn = value.__func__ if isinstance(value, staticmethod) else value
                target = targets.get(id(fn))
                if target is None or target[0] is not fn:
                    continue
                fn, group, record, post = target
                label = "%s.%s" % (_owner_name(owner), name)
                wrapper = self._wrap(fn, group, record, post)
                if isinstance(value, staticmethod):
                    wrapper = staticmethod(wrapper)
                setattr(owner, name, wrapper)
                self.bindings.append(label)
        missed = [
            "%s.%s" % (_owner_name(owner), name)
            for owner in _namespaces()
            for name, value in vars(owner).items()
            if id(getattr(value, "__func__", value)) in targets
        ]
        if missed:
            raise RuntimeError("unwrapped bindings remain: %s" % ", ".join(missed))

    def assert_fired(self, workload):
        silent = [g for g, loads in REQUIRED.items()
                  if workload in loads and self.agg.get(g, [0])[0] == 0]
        if silent:
            raise RuntimeError("wrappers never fired on %s: %s" % (workload, ", ".join(silent)))

    # -- results ------------------------------------------------------------

    def calls(self, group):
        return self.agg.get(group, [0, 0.0])[0]

    def self_s(self, prefix):
        return sum(v[1] for g, v in self.agg.items() if g == prefix or g.startswith(prefix + "."))

    def dump(self, path, extra):
        with open(path, "w") as handle:
            json.dump({
                "spans": [{"name": n, "start": s, "end": e, "parent": p, "detail": d}
                          for n, s, e, p, d in self.records],
                "groups": {g: {"calls": c, "self_s": s} for g, (c, s) in sorted(self.agg.items())},
                "counters": dict(sorted(self.counters.items())),
                "bindings": sorted(self.bindings),
                **extra,
            }, handle)


def _owner_name(owner):
    if isinstance(owner, type):
        return "%s.%s" % (owner.__module__, owner.__qualname__)
    return owner.__name__


def _namespaces():
    """Every loaded rspin module and every class defined in one, once each."""
    seen = set()
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "rspin" or name.startswith("rspin."))]
    out = []
    for module in modules:
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            if id(owner) in seen:
                continue
            if isinstance(owner, type) and not owner.__module__.startswith("rspin"):
                continue
            seen.add(id(owner))
            out.append(owner)
    return out


# -- what to wrap ---------------------------------------------------------------

def _count_tensor(counters, args, kwargs, result):
    rows = result.rows
    counters["superlinalg.tensor.entries"] += result.source.dim * result.target.dim
    counters["superlinalg.tensor.nonzero"] += sum(1 for row in rows for x in row if x)


def _count_supermap(counters, args, kwargs, result):
    source = args[1] if len(args) > 1 else kwargs["source"]
    target = args[2] if len(args) > 2 else kwargs["target"]
    counters["superlinalg.supermap.entries"] += source.dim * target.dim


def _count_checks(counters, args, kwargs, result):
    counters["lambda_frobenius.validate.checks"] += len(result.entries)


def _count_cutoffs(counters, args, kwargs, result):
    counters["landau_ginzburg.mf.hom_cohomology.cutoffs"] += result.stabilized_at


def spec():
    """(owner, attribute, group, keep span records, counter hook) per function."""
    from rspin import constructors, lambda_frobenius, scalars, superlinalg, surface_eval
    from rspin.landau_ginzburg import mf, orbifold, poly

    # the package re-exports the function groebner under the module's name
    groebner = importlib.import_module("rspin.landau_ginzburg.groebner")

    cyc, smap, lam = scalars.Cyc, superlinalg.SuperMap, lambda_frobenius.LambdaFrobenius
    frob, pol, jac = constructors.FrobeniusAlgebraData, poly.Poly, groebner.JacobiAlgebra
    out = []

    def add(owner, names, group, record=False, post=None):
        out.extend((owner, n, group, record, post) for n in names)

    add(cyc, ["__mul__"], "scalars.mul")
    add(cyc, ["__add__", "__sub__", "__rsub__"], "scalars.add")
    add(cyc, ["inverse"], "scalars.inverse")
    add(cyc, ["__neg__", "__truediv__", "__rtruediv__", "__pow__"], "scalars.other")
    add(scalars, ["parse_scalar", "format_scalar", "cyclotomic_polynomial"], "scalars.other")

    add(smap, ["__init__"], "superlinalg.supermap", post=_count_supermap)
    add(superlinalg, ["compose"], "superlinalg.compose")
    add(superlinalg, ["tensor"], "superlinalg.tensor", post=_count_tensor)
    add(superlinalg, ["solve_exact", "kernel_basis", "image_basis", "split_idempotent"],
        "superlinalg.solve", record=True)
    add(superlinalg, ["identity", "braiding", "supertrace", "kernel_of_matrix",
                      "tensor_space", "graded_tuples"], "superlinalg.other")

    add(lambda_frobenius, ["validate"], "lambda_frobenius.validate", True, _count_checks)
    add(lam, ["nakayama"], "lambda_frobenius.nakayama")
    add(lam, ["nakayama_power", "pairing", "copairing", "to_dict", "from_dict"],
        "lambda_frobenius.other")

    add(frob, ["assemble"], "constructors.assemble", record=True)
    add(constructors, ["nakayama_gamma"], "constructors.nakayama_gamma", record=True)
    add(constructors, ["averaging_projector"], "constructors.averaging_projector", record=True)
    add(constructors, ["graded_center_data"], "constructors.graded_center_data", record=True)
    add(constructors, ["graded_center", "builtin", "center_basis"], "constructors.other", True)
    add(constructors.AlgebraAutomorphism, ["power"], "constructors.other")

    add(surface_eval, ["evaluate_surface"], "surface_eval.evaluate_surface", record=True)
    add(surface_eval, ["evaluate_torus"], "surface_eval.evaluate_torus", record=True)
    add(surface_eval, ["handle_operator", "all_torus_invariants", "torus_normal_form",
                       "divisors"], "surface_eval.other")

    add(pol, ["__mul__"], "landau_ginzburg.poly.mul")
    add(pol, ["__add__", "__sub__", "__rsub__", "__neg__", "__rmul__", "scale", "__pow__",
              "derivative", "substitute", "rename", "align", "divide_exact"],
        "landau_ginzburg.poly.other")
    add(poly, ["parse_poly", "format_poly"], "landau_ginzburg.poly.other")
    add(groebner, ["groebner", "jacobi"], "landau_ginzburg.groebner", record=True)
    add(groebner, ["normal_form", "staircase"], "landau_ginzburg.groebner")
    add(jac, ["normal_form", "reduce_to_coeffs"], "landau_ginzburg.groebner")
    add(mf, ["hom_cohomology"], "landau_ginzburg.mf.hom_cohomology", True, _count_cutoffs)
    add(mf, ["identity_mf", "twisted_identity", "mf_tensor", "koszul_factorization",
             "difference_quotient", "partial_derivative"], "landau_ginzburg.mf.other", True)
    add(orbifold, ["orbifold_algebra"], "landau_ginzburg.orbifold.orbifold_algebra", True)
    add(orbifold, ["lg_circle_spaces"], "landau_ginzburg.orbifold.lg_circle_spaces", True)
    add(orbifold, ["lg_torus_invariants"], "landau_ginzburg.orbifold.other", True)
    add(orbifold.SectorModel, ["product"], "landau_ginzburg.orbifold.other")
    return out


def per_layer(tracer):
    """The per-layer metrics of BENCHMARK.json, as (value, unit)."""
    t, c = tracer, tracer.counters
    entries = c["superlinalg.tensor.entries"]
    out = {
        "scalars.mul.calls": (t.calls("scalars.mul"), "count"),
        "scalars.add.calls": (t.calls("scalars.add"), "count"),
        "scalars.inverse.calls": (t.calls("scalars.inverse"), "count"),
        "scalars.self_s": (t.self_s("scalars"), "s"),
        "superlinalg.tensor.calls": (t.calls("superlinalg.tensor"), "count"),
        "superlinalg.tensor.self_s": (t.self_s("superlinalg.tensor"), "s"),
        "superlinalg.tensor.entries": (entries, "count"),
        "superlinalg.tensor.nonzero_ratio":
            (c["superlinalg.tensor.nonzero"] / entries if entries else 0.0, "ratio"),
        "superlinalg.supermap.built": (t.calls("superlinalg.supermap"), "count"),
        "superlinalg.supermap.entries": (c["superlinalg.supermap.entries"], "count"),
        "superlinalg.supermap.self_s": (t.self_s("superlinalg.supermap"), "s"),
        "superlinalg.compose.calls": (t.calls("superlinalg.compose"), "count"),
        "superlinalg.compose.self_s": (t.self_s("superlinalg.compose"), "s"),
        "superlinalg.solve.calls": (t.calls("superlinalg.solve"), "count"),
        "superlinalg.solve.self_s": (t.self_s("superlinalg.solve"), "s"),
        "lambda_frobenius.validate.self_s": (t.self_s("lambda_frobenius.validate"), "s"),
        "lambda_frobenius.validate.checks": (c["lambda_frobenius.validate.checks"], "count"),
        "lambda_frobenius.nakayama.calls": (t.calls("lambda_frobenius.nakayama"), "count"),
        "constructors.assemble.calls": (t.calls("constructors.assemble"), "count"),
        "constructors.assemble.self_s": (t.self_s("constructors.assemble"), "s"),
        "constructors.nakayama_gamma.self_s": (t.self_s("constructors.nakayama_gamma"), "s"),
        "constructors.averaging_projector.self_s":
            (t.self_s("constructors.averaging_projector"), "s"),
        "constructors.graded_center_data.self_s":
            (t.self_s("constructors.graded_center_data"), "s"),
        "surface_eval.evaluate_surface.calls": (t.calls("surface_eval.evaluate_surface"), "count"),
        "surface_eval.evaluate_surface.self_s": (t.self_s("surface_eval.evaluate_surface"), "s"),
        "surface_eval.evaluate_torus.calls": (t.calls("surface_eval.evaluate_torus"), "count"),
        "surface_eval.evaluate_torus.self_s": (t.self_s("surface_eval.evaluate_torus"), "s"),
        "landau_ginzburg.poly.mul.calls": (t.calls("landau_ginzburg.poly.mul"), "count"),
        "landau_ginzburg.poly.self_s": (t.self_s("landau_ginzburg.poly"), "s"),
        "landau_ginzburg.groebner.self_s": (t.self_s("landau_ginzburg.groebner"), "s"),
        "landau_ginzburg.mf.hom_cohomology.calls":
            (t.calls("landau_ginzburg.mf.hom_cohomology"), "count"),
        "landau_ginzburg.mf.hom_cohomology.self_s":
            (t.self_s("landau_ginzburg.mf.hom_cohomology"), "s"),
        "landau_ginzburg.mf.hom_cohomology.cutoffs":
            (c["landau_ginzburg.mf.hom_cohomology.cutoffs"], "count"),
        "landau_ginzburg.orbifold.orbifold_algebra.calls":
            (t.calls("landau_ginzburg.orbifold.orbifold_algebra"), "count"),
        "landau_ginzburg.orbifold.orbifold_algebra.self_s":
            (t.self_s("landau_ginzburg.orbifold.orbifold_algebra"), "s"),
        "landau_ginzburg.orbifold.lg_circle_spaces.self_s":
            (t.self_s("landau_ginzburg.orbifold.lg_circle_spaces"), "s"),
        "cli.self_s": (t.self_s("cli"), "s"),
    }
    return out
