"""The four benchmark workloads: fixed job lists and their set-up.

A job is one unit a client waits for.  CLI jobs run a documented `rspin`
command in process through `rspin.cli.main`; library jobs call
`evaluate_surface` or `evaluate_torus` on a graded centre built during
set-up.  Every pass runs the whole job list once, in an order drawn from
the seed, so the work of a pass does not depend on the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    id: str       # stable name; CLI jobs are keyed by it in golden.json
    kind: str     # "cli", "surface" or "torus"
    args: tuple   # CLI argv, or (algebra key, r, genus, holonomies) / (key, r, a, b)


def _cli(command):
    return Job(command, "cli", tuple(command.split()) + ("--json",))


# Job counts are 5 mod 10 so that job_s.p50 and job_s.p90 fall mid-way
# through one job's block of samples, not on the step between two jobs.

# check counts 4r^3+3r^2+6r relations, so r sets the cost; the sizes keep one
# pass near four seconds while covering every built-in and both job kinds.
CENTRE_CHECK = [_cli(c) for c in (
    "check --builtin trivial r=1",
    "check --builtin trivial r=3",
    "check --builtin group_algebra_Zn --n 2 r=2",
    "check --builtin group_algebra_Zn --n 2 r=3",
    "check --builtin group_algebra_Zn --n 2 r=4",
    "check --builtin group_algebra_Zn --n 3 r=3",
    "check --builtin group_algebra_Zn --n 3 r=4",
    "check --builtin clifford1 r=2",
    "check --builtin clifford1 r=4",
    "check --builtin clifford1 r=6",
    "check --builtin clifford1 r=8",
    "check --builtin matrix_algebra_n --n 2 r=1",
    "check --builtin matrix_algebra_n --n 2 r=2",
    "check --builtin matrix_algebra_n --n 2 r=3",
    "torus --builtin trivial --all-divisors r=1",
    "torus --builtin trivial --all-divisors r=6",
    "torus --builtin group_algebra_Zn --n 2 --all-divisors r=4",
    "torus --builtin group_algebra_Zn --n 2 --all-divisors r=8",
    "torus --builtin group_algebra_Zn --n 3 --all-divisors r=6",
    "torus --builtin clifford1 --all-divisors r=2",
    "torus --builtin clifford1 --all-divisors r=4",
    "torus --builtin clifford1 --all-divisors r=12",
    "torus --builtin matrix_algebra_n --n 2 --all-divisors r=1",
    "torus --builtin matrix_algebra_n --n 2 --all-divisors r=2",
    "torus --builtin matrix_algebra_n --n 2 --all-divisors r=4",
)]

LG_ORBIFOLD = [_cli(c) for c in (
    "lg-orbifold x^2 --group Z2",
    "lg-circle-spaces x^2 --group Z2",
    "lg-orbifold x^3 --group Z3",
    "lg-orbifold x^4 --group Z4",
    "lg-orbifold x^5 --group Z5",
    "lg-circle-spaces x^3 --group Z3",
    "lg-circle-spaces x^4 --group Z4",
    "lg-circle-spaces x^5 --group Z5",
    "lg-orbifold x^2+y^2 --group Z2 --weights 1,1",
    "lg-circle-spaces x^2+y^2 --group Z2 --weights 1,1",
    "lg-orbifold x^3+y^3 --group Z3 --weights 1,1",
    "lg-circle-spaces x^3+y^3 --group Z3 --weights 1,1",
    "lg-orbifold x^2+y^4 --group Z4 --weights 2,1",
    "lg-circle-spaces x^2+y^4 --group Z4 --weights 2,1",
    "lg-orbifold x^4 --group Z2",
    "lg-orbifold x^3 --group Z3 --weights 2",
    "lg-circle-spaces x^3 --group Z3 --weights 2",
    "lg-orbifold x^2+y^2 --group Z2 --weights 1,0",
    "lg-circle-spaces x^2+y^2 --group Z2 --weights 1,0",
    "lg-orbifold x^2+y^3 --group Z2 --weights 1,0",
    "lg-circle-spaces x^2+y^3 --group Z2 --weights 1,0",
    "lg-orbifold x^2+y^4 --group Z2 --weights 1,1",
    "lg-circle-spaces x^2+y^4 --group Z2 --weights 1,1",
    "lg-orbifold x^2+y^2+z^2 --group Z2 --weights 1,1,1",
    "lg-circle-spaces x^2+y^2+z^2 --group Z2 --weights 1,1,1",
)]


def _hom_jobs(r, twisted=True):
    jobs = ["lg-jacobi x^%d" % r, "lg-hom x^%d" % r, "lg-hom x^%d --shift" % r]
    if twisted:
        jobs += ["lg-hom x^%d --group Z%d --g %d" % (r, r, g) for g in range(1, r)]
    return jobs


# x^7's six twisted sectors (about 1 s each) and End(I_W) of x^3+y^3 (6-8 s,
# the second known defect) are left out: either alone would stretch a pass
# past the length that lets wall_s repeat within one run.
LG_HOM = [_cli(c) for c in (
    _hom_jobs(3) + _hom_jobs(4) + _hom_jobs(5) + _hom_jobs(7, twisted=False) + [
        "lg-jacobi x^2+y^2",
        "lg-jacobi x^2+y^3",
        "lg-jacobi x^3+y^3",
        "lg-hom x^2+y^3",
    ])]

# surface_sweep algebras: (builtin, n) at each spin order r
SURFACE_ALGEBRAS = {
    4: [("clifford1", 2), ("group_algebra_Zn", 3), ("matrix_algebra_n", 2)],
    2: [("group_algebra_Zn", 3), ("matrix_algebra_n", 2)],
}


# every 7th of group_algebra_Z3's 4096 genus-3 4-spin structures, 586 in all;
# 7 is prime to 4, so every holonomy of the subset takes every value.  With
# the 64 2-spin ones these slowest calls are 13% of the list, so job_s.p90
# falls inside their block rather than on the step below it.
Z3_STRIDE = 7


def _surface_jobs():
    jobs = []
    for r, algebras in sorted(SURFACE_ALGEBRAS.items()):
        for key in algebras:
            for a, b in itertools.product(range(r), repeat=2):
                jobs.append(Job("torus %s n=%d r=%d a=%d b=%d" % (key + (r, a, b)),
                                "torus", (key, r, a, b)))
    # every genus-3 4-spin structure of clifford1 (4096, the Arf split); the
    # fixed Z3_STRIDE subset of group_algebra_Z3's, whose larger tensors make
    # a call about three times slower; every genus-3 2-spin structure of the
    # larger algebras
    sweeps = [(("clifford1", 2), 4, 1), (("group_algebra_Zn", 3), 4, Z3_STRIDE)]
    sweeps += [(key, 2, 1) for key in SURFACE_ALGEBRAS[2]]
    for key, r, stride in sweeps:
        for hol in itertools.islice(itertools.product(range(r), repeat=6), 0, None, stride):
            handles = (hol[0:2], hol[2:4], hol[4:6])
            jobs.append(Job("surface %s n=%d r=%d g=3 %s" % (key + (r, handles)),
                            "surface", (key, r, 3, handles)))
    return jobs


WORKLOADS = {
    "centre_check": lambda: list(CENTRE_CHECK),
    "surface_sweep": _surface_jobs,
    "lg_orbifold": lambda: list(LG_ORBIFOLD),
    "lg_hom": lambda: list(LG_HOM),
}


def build_inputs(workload):
    """The job list and, for library jobs, the graded centres they evaluate."""
    jobs = WORKLOADS[workload]()
    algebras = {}
    if workload == "surface_sweep":
        from rspin.constructors import builtin, graded_center

        for r, keys in sorted(SURFACE_ALGEBRAS.items()):
            for name, n in keys:
                algebras[(name, n, r)] = graded_center(builtin(name, n=n), r)
    else:
        import rspin.cli  # noqa: F401  (a CLI client pays this import)
    return jobs, algebras
