"""rspin benchmark: one closed-loop client runs a workload's job list.

    python3 perfbench/run.py --workload centre_check --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the code under test is the checkout's
`src/rspin`.  With --trace 0 the run repeats whole passes over the job
list for --seconds and prints the end-to-end metrics; with --trace 1 it
runs one untraced pass, then set-up and one pass again with every public
rspin function wrapped, and prints the per-layer metrics.  `--workload
all` runs every workload in turn.  Every job's output is checked against
its oracle (see oracles.py).  The last line of stdout is one JSON object.

End-to-end times are reported in reference seconds: each measured time is
scaled by REF_S over the time of a fixed calibration loop sampled while it
ran, which takes out the speed of a shared host (see README.md, "Noise").
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracles
import tracing
from workloads import WORKLOADS, build_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
REF_S = 0.25e-3  # reference seconds per calibration unit
TICK_S = 0.01    # wall seconds between two speed samples


def _load_rspin():
    """Import the checkout's rspin, refusing any other installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rspin
    except ImportError as exc:
        raise SystemExit("error: cannot import rspin from %s: %s" % (ROOT / "src", exc))
    if Path(rspin.__file__).resolve().parent != ROOT / "src" / "rspin":
        raise SystemExit("error: imported rspin from %s, not this checkout" % rspin.__file__)


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
    }


# -- calibration ----------------------------------------------------------------

def _calibration_unit():
    """Fixed pure-Python work in the style of rspin's own, written without it:
    rational arithmetic, integer-list convolution with gcd reduction, tuples
    and a dict.  A mix, so that no single kind of work sets the speed."""
    third, total = Fraction(1, 3), 0
    for i in range(12):
        total += third * i - Fraction(i, 7)
    table = {}
    for i in range(24):
        coeffs = [(i * k + 3) % 7 - 3 for k in range(4)]
        conv = [0] * 7
        for p, x in enumerate(coeffs):
            if x:
                for q, y in enumerate(coeffs):
                    if y:
                        conv[p + q] += x * y
        g = gcd(*conv) or 1
        key = tuple(c // g for c in conv)
        table[key] = table.get(key, 0) + 1
    return total, table


class Speedometer:
    """Samples the speed of the host every TICK_S seconds while it is open.

    A SIGALRM handler times one calibration unit in this thread, between two
    bytecodes of whatever runs, so a job's speed is sampled while the job
    runs.  `stolen` is the time spent in the handler; it is taken back out
    of the latencies it fell into.
    """

    def __init__(self):
        self.samples = array("d")
        self.stolen = 0.0

    def _tick(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        _calibration_unit()
        self.samples.append(clock() - t0)
        self.stolen += clock() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.samples), self.stolen

    def scale(self, start, end):
        """REF_S over the mean sample from the one just before `start` to the
        one just after `end` (marks), so short jobs get their neighbours'."""
        window = self.samples[max(start[0] - 1, 0):end[0] + 1]
        return REF_S * len(window) / sum(window)


# -- running jobs ---------------------------------------------------------------

def run_cli(argv):
    """Run `rspin <argv>` in process; (exit code, stdout)."""
    import click

    from rspin.cli import main

    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out):
        try:
            main.main(args=list(argv), prog_name="rspin", standalone_mode=False)
        except click.ClickException as exc:
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def run_library(job, algebras):
    from rspin.surface_eval import (RSpinClosedSurface, RSpinTorus, evaluate_surface,
                                    evaluate_torus)

    if job.kind == "torus":
        (name, n), r, a, b = job.args
        return evaluate_torus(algebras[(name, n, r)], RSpinTorus(r, a, b))
    (name, n), r, genus, handles = job.args
    return evaluate_surface(algebras[(name, n, r)], RSpinClosedSurface(r, genus, handles))


def run_pass(jobs, algebras, rng, tracer=None, speed=None):
    """One pass in a seeded order: (wall seconds, [(job, latency, output)]).

    With a Speedometer `speed`, each latency is in reference seconds: the
    measured latency, less the sampler's own time, scaled by speed.scale.
    """
    order = list(jobs)
    rng.shuffle(order)
    clock = time.perf_counter
    done = []
    start = clock()
    for job in order:
        span = (tracer.span("cli" if job.kind == "cli" else "bench.job", job.id)
                if tracer else contextlib.nullcontext())
        m0 = speed.mark() if speed else None
        t0 = clock()
        with span:
            try:
                output = run_cli(job.args) if job.kind == "cli" else run_library(job, algebras)
            except Exception as exc:  # a job that raises is a failed job
                output = exc
        done.append((job, clock() - t0, output, m0, speed.mark() if speed else None))
    wall = clock() - start
    if speed:
        return wall, [(job, (lat - m1[1] + m0[1]) * speed.scale(m0, m1), out)
                      for job, lat, out, m0, m1 in done]
    return wall, [(job, lat, out) for job, lat, out, _, _ in done]


def check_pass(done, golden):
    """Oracle verdicts for one pass: [(job id, status, reason)]."""
    verdicts = []
    for job, _, output in done:
        if isinstance(output, Exception):
            verdicts.append((job.id, oracles.FAIL, "raised %r" % output))
        elif job.kind == "cli":
            verdicts.append((job.id,) + oracles.check_cli(job, output[0], output[1], golden))
        else:
            verdicts.append((job.id,) + oracles.check_library(job, output))
    return verdicts


def measure_setup(workload, seed):
    """Median time, in reference seconds, of a fresh interpreter importing rspin
    and building inputs.  The child samples its own speed, since it may run
    on another CPU than this process, and reports it with its sampler time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        # wait() with a timeout polls in sleeps of up to 50 ms, which would
        # quantise a 0.2 s measurement; block instead, and kill a stuck child
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - t0
        report = child.stdout.read()
        child.stdout.close()
        if code != 0:
            raise RuntimeError("set-up of %s exited %d" % (workload, code))
        mean_sample, stolen = json.loads(report)
        times.append((elapsed - stolen) * REF_S / mean_sample)
    return statistics.median(times), times


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- the two run modes ----------------------------------------------------------

def untraced(workload, seed, seconds, golden):
    jobs, algebras = build_inputs(workload)
    setup_s, setup_samples = measure_setup(workload, seed)
    rng = random.Random(seed)
    # bookkeeping stays flat across passes, so peak_rss_mb does not grow
    # with the number of passes a run happens to fit
    passes, raw_passes, latencies, per_job = [], [], array("d"), {}
    attempted, bad = 0, []
    deadline = time.perf_counter() + seconds
    with Speedometer() as speed:
        while True:
            wall, done = run_pass(jobs, algebras, rng, speed=speed)
            raw_passes.append(wall)
            passes.append(sum(lat for _, lat, _ in done))
            latencies.extend(lat for _, lat, _ in done)
            for job, lat, _ in done:
                if job.kind == "cli":
                    per_job.setdefault(job.id, []).append(lat)
            verdicts = check_pass(done, golden)
            attempted += len(verdicts)
            bad += [v for v in verdicts if v[1] != oracles.OK]
            del done, verdicts
            if time.perf_counter() + wall > deadline:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(passes), "s"),
        "job_s.p50": (percentile(latencies, 50), "s"),
        "job_s.p90": (percentile(latencies, 90), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "passes": passes,
        "raw_pass_s": raw_passes,
        "job_samples": len(latencies),
        "setup_samples": setup_samples,
        "cli_job_median_s": {k: statistics.median(v) for k, v in sorted(per_job.items())},
    }
    return metrics, attempted, bad, notes


def traced(workload, seed, golden):
    jobs, algebras = build_inputs(workload)
    untraced_wall, done = run_pass(jobs, algebras, random.Random(seed))
    verdicts = check_pass(done, golden)
    tracer = tracing.Tracer()
    tracer.install(tracing.spec())
    with tracer.span("bench.setup", workload):
        jobs, algebras = build_inputs(workload)
    traced_wall, done = run_pass(jobs, algebras, random.Random(seed), tracer)
    verdicts += check_pass(done, golden)
    tracer.assert_fired(workload)
    metrics = tracing.per_layer(tracer)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    notes = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "job_samples": len(done)}
    bad = [v for v in verdicts if v[1] != oracles.OK]
    return metrics, len(verdicts), bad, notes, tracer


def run_one(args):
    if args.setup_only:
        with Speedometer() as speed:
            _load_rspin()
            build_inputs(args.workload)
        if not speed.samples:  # set-up shorter than one tick: sample once now
            speed._tick(None, None)
        print(json.dumps([sum(speed.samples) / len(speed.samples), speed.stolen]))
        return 0
    _load_rspin()
    golden = json.loads((HERE / "golden.json").read_text())
    env_start = environment()
    tracer = None
    if args.trace:
        metrics, attempted, bad, notes, tracer = traced(args.workload, args.seed, golden)
    else:
        metrics, attempted, bad, notes = untraced(args.workload, args.seed, args.seconds, golden)
    env_end = environment()

    failures = [v for v in bad if v[1] == oracles.FAIL]
    known = [v for v in bad if v[1] == oracles.KNOWN]
    print("workload %s  seed %d  trace %d  closed loop, 1 client" % (
        args.workload, args.seed, args.trace))
    print("env  nproc=%d  python=%s  loadavg start=%s end=%s" % (
        env_start["nproc"], env_start["python"], env_start["loadavg"], env_end["loadavg"]))
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6f %s" % (name, value, unit))
    if not args.trace:
        print("%-48s %14d %s" % ("job_s.samples", notes["job_samples"], "count"))
        print("%-48s %14d %s" % ("passes", len(notes["passes"]), "count"))
    print("%-48s %14.6f %s  (%d of %d jobs miss their oracle; %d are known defects)" % (
        "failed_frac", (len(failures) + len(known)) / attempted, "ratio",
        len(failures) + len(known), attempted, len(known)))
    for job_id, status, reason in sorted(set(failures + known)):
        print("  %s  %s: %s" % (status, job_id, reason))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env_start": env_start, "env_end": env_end,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": (len(failures) + len(known)) / attempted,
        "known_defects": sorted({v[0] for v in known}),
        "failures": sorted({"%s: %s" % (v[0], v[2]) for v in failures}),
        **notes,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (out_dir / (stem + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.dump(out_dir / (stem + "-spans.json"), {"workload": args.workload})

    # a known defect reproduces the seed's output exactly, so it is not a new
    # failure: `failed` counts only outputs that are wrong in a new way
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, timeout=600).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import rspin and build the inputs, then exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
