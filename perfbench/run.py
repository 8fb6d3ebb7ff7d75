"""Benchmark harness for the extremal_lie package.

    python3 perfbench/run.py --workload present-qq --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this interpreter against the
package under ``src/`` of the checkout that holds this file.  Jobs run
one at a time, pass after pass over the job list, for about
``--seconds`` seconds and at least two passes.  Every job's output is
checked.

``--trace 0`` prints the end-to-end metrics: pass time, per-job
times, set-up time, peak memory and the share of jobs that passed
their check.  Set-up is timed in SETUP_REPEATS fresh interpreters
(``--setup-once``), started one after another, so every import the
package makes beyond those of the harness itself is cold.  ``--trace 1`` alternates plain and traced passes, then
runs one pass that counts field operations and a field-arithmetic
microbenchmark, and prints the per-layer metrics (see
``tracing.py``); its spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give quartiles, sample counts and machine metadata.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
MIN_PASSES = 2

END_TO_END = {"wall_s": "s", "job_s.p50": "s", "job_s.max": "s",
              "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class PackageMissing(Exception):
    """The checkout has no importable package under src/."""


def import_package():
    """Import extremal_lie afresh from this checkout's src/."""
    if not (SRC / "extremal_lie" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'extremal_lie'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "extremal_lie" or m.startswith("extremal_lie.")]:
        del sys.modules[name]
    lib = importlib.import_module("extremal_lie")
    if Path(lib.__file__).resolve().parent.parent != SRC:
        raise PackageMissing(f"imported {lib.__file__}, not from {SRC}")
    return lib


def setup(workload, seed, tiny=False):
    """Import the package, build the prime field and generate the job
    list.  Returns (package, jobs)."""
    lib = import_package()
    field = lib.PrimeField(lib.DEFAULT_PRIME)
    return lib, workloads.make_jobs(workload, seed, lib, field, tiny)


def _plain_timed(fn):
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        t1 = time.perf_counter()
    return result, (t0, t1, 0.0)


class Runner:
    """Runs passes over one job list and keeps the tally of checks."""

    def __init__(self, workload, seed, jobs):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.reference = workloads.load_reference()
        self.attempted = 0
        self.failed = 0

    def run_pass(self, timed=_plain_timed, tracer=None):
        """One pass over the job list.  `timed(fn)` returns (result,
        (start, end, seconds to leave out)).  Returns [(job id,
        interval)], with interval None for a failed job."""
        intervals = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.id
            self.attempted += 1
            try:
                output, interval = timed(job.run)
                workloads.check_output(self.workload, job, output, self.seed,
                                       self.reference)
            except Exception:  # a failed job is counted, not fatal
                interval = None
                self.failed += 1
                print(f"job {job.id} failed:", file=sys.stderr)
                traceback.print_exc()
            intervals.append((job.id, interval))
        return intervals


def _report_row(name, values, raw, unit, what):
    """Print the median and quartiles of `values` (and the median of
    the `raw` seconds); return the median.  A run whose every job
    failed has no times and reports 0."""
    padded = values if len(values) > 1 else (values or [0.0]) * 2
    q1, q2, q3 = statistics.quantiles(padded, n=4, method="inclusive")
    print(f"  {name:<11} median {q2:9.4f} {unit}  q1 {q1:9.4f}  q3 {q3:9.4f}"
          f"  raw median {statistics.median(raw or [0.0]):9.4f}"
          f"  n={len(values)} {what}")
    return q2


def measure(runner, seconds, probe):
    """End-to-end times from plain passes, in reference seconds (see
    speed.py); raw seconds are printed alongside."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(probe.timed))
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + elapsed / len(passes) > seconds):
            break
    rows = {}
    for label, scale in (("", probe.seconds), ("raw", probe.raw_seconds)):
        per_pass = [[scale(iv) for _, iv in p if iv is not None]
                    for p in passes]
        rows[label] = {
            "wall_s": [sum(p) for p in per_pass],
            "job_s.p50": [dt for p in per_pass for dt in p],
            "job_s.max": [max(p, default=0.0) for p in per_pass],
        }
    what = {"wall_s": "passes", "job_s.p50": "jobs", "job_s.max": "passes"}
    return {name: _report_row(name, values, rows["raw"][name], "s",
                              what[name])
            for name, values in rows[""].items()}


def trace(runner, seconds, lib, spans_path):
    """Per-layer metrics: plain and traced passes alternate until
    `seconds` are used (at least once each), then one pass counts field
    operations and the microbenchmark runs.  The speed probe runs during
    the alternating passes, so the tracing overhead is in reference
    seconds; span times are raw and include the probe's ~3%."""
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            plain.append(sum(probe.seconds(iv) for _, iv in
                             runner.run_pass(probe.timed) if iv))
            tracer = tracing.Tracer()
            with tracer.installed():
                traced.append(sum(probe.seconds(iv) for _, iv in
                                  runner.run_pass(probe.timed, tracer) if iv))
            tracers.append(tracer)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                break
    for name in tracers[0].missing:
        print(f"trace: entry point {name} not found; its metrics read 0",
              file=sys.stderr)
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {k: statistics.median(m[k] for m in per_pass)
               for k in per_pass[0]}
    counter = tracing.OpCounter()
    with counter.installed():
        runner.run_pass()
    metrics.update(counter.metrics())
    metrics.update(tracing.microbench(lib))
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    print(f"traced passes: {len(traced)}; wall_s plain "
          f"{statistics.median(plain):.4f} s, traced "
          f"{statistics.median(traced):.4f} s")
    tracing.write_spans(spans_path, tracers)
    print(f"spans written to {spans_path}")
    return {name: metrics[name] for name in tracing.PER_LAYER}


def metadata(lib):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rat = lib.fields._RAT
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "rational": f"{rat.__module__}.{rat.__qualname__}",
            "package": getattr(lib, "__version__", None)}


def _runner(args, lib, jobs):
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"jobs={[job.id for job in jobs]}")
    print("meta " + json.dumps(metadata(lib), sort_keys=True))
    return Runner(args.workload, args.seed, jobs)


def setup_once(args):
    """Time one set-up in this interpreter; print (reference seconds,
    raw seconds) as JSON."""
    with speed.SpeedProbe() as probe:
        _, interval = probe.timed(lambda: setup(args.workload, args.seed))
    print(json.dumps([probe.seconds(interval), probe.raw_seconds(interval)]))


def fresh_setups(args):
    """(reference, raw) seconds of SETUP_REPEATS set-ups, each in a new
    interpreter started when the previous one has ended."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-once",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(child.stdout.splitlines()[-1]))
    return times


def end_to_end(args):
    """Plain passes under the speed probe, and fresh-interpreter
    set-ups."""
    lib, jobs = setup(args.workload, args.seed)
    runner = _runner(args, lib, jobs)
    setups = fresh_setups(args)
    with speed.SpeedProbe() as probe:
        print("end-to-end (reference seconds, see speed.py):")
        values = measure(runner, args.seconds, probe)
    values["setup_s"] = _report_row(
        "setup_s", [ref for ref, _ in setups], [raw for _, raw in setups],
        "s", "set-ups, each in a fresh interpreter")
    values["peak_rss_mb"] = (resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024)
    values["ok_ratio"] = 1 - runner.failed / runner.attempted
    print(f"  peak_rss_mb {values['peak_rss_mb']:.1f} MB")
    print(f"  ok_ratio    {values['ok_ratio']} "
          f"({runner.attempted - runner.failed}/{runner.attempted} jobs)")
    print(f"  speed probe: {len(probe.kernel)} samples, kernel best "
          f"{min(probe.kernel) * 1e3:.3f} ms, median "
          f"{statistics.median(probe.kernel) * 1e3:.3f} ms")
    return runner, values


def per_layer(args):
    lib, jobs = setup(args.workload, args.seed)
    runner = _runner(args, lib, jobs)
    return runner, trace(
        runner, args.seconds, lib,
        OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-once", action="store_true",
                        help="time one set-up and print it (for setup_s)")
    args = parser.parse_args(argv)

    try:
        if args.setup_once:
            setup_once(args)
            return 0
        runner, values = (per_layer if args.trace else end_to_end)(args)
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    unit = tracing.unit if args.trace else END_TO_END.get
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
