"""Benchmark of the malcev library: four closed-loop workloads with an exact
output gate and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload hull-ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload's inputs several times, then runs its job
list again and again for ``--seconds`` seconds (at least once), gates every
result exactly and prints the end-to-end metrics.  Their times are corrected
for the machine's speed while they ran (clock.py); the raw wall times are
printed too.  ``--trace 1`` runs the job list once untraced and once traced,
and prints the per-layer metrics and the tracing overhead; its counts depend
only on the seed.  ``all`` runs each workload in its own process, one after
another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
start with ``#`` and give the run metadata, the failed jobs and every metric
with its unit.  A JSON record of the run, with every job's times, goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("hull-ladder", "congruence", "fiber-levels", "element-arith")
# Run only when asked for: its rungs show a known defect of lattice_hull, so
# every one of its jobs fails the gate and its result reads correct: false.
DEFECTS = "hull-defects"
SETUP_REPEATS, SETUP_WINDOW_S = 5, 2.0


def commit():
    """The checked-out commit read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg()}


class Raised:
    """Stands in for the result of a job that raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def run_pass(jobs, tracer=None):
    """Run the job list once; results are kept and checked afterwards.

    Returns the results and each job's (start, end) in perf_counter time.
    """
    results, windows = [], []
    for job in jobs:
        if tracer is not None:
            tracer.start_job(job.name)
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = Raised(exc)
        windows.append((t0, time.perf_counter()))
        results.append(out)
    return results, windows


def check(jobs, results):
    """(failed operations, problem lines) for one pass."""
    failed, lines = 0, []
    for job, out in zip(jobs, results):
        if isinstance(out, Raised):
            problems = [out.text]
            failed += job.ops
        else:
            problems = job.problems(out)
            failed += min(job.ops, len(problems))
        if problems:
            lines.append(f"{job.name}: " + "; ".join(map(str, problems)))
    return failed, lines


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def import_and_setup(args):
    """Import the library and the workloads afresh, then build the inputs.

    Returns ((start, end), workloads module, inputs).
    """
    for name in [m for m in sys.modules if m in ("gate", "workloads")
                 or m == "malcev" or m.startswith("malcev.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    inputs = workloads.WORKLOADS[args.workload].setup(args.seed)
    return (t0, time.perf_counter()), workloads, inputs


def measure(args):
    """Untraced run: repeated set-up, passes until the time is used.

    Times are reported corrected for machine speed (see clock.py), with the
    raw wall times next to them.
    """
    from clock import SpeedClock

    setups, passes = [], []
    with SpeedClock() as clock:
        while len(setups) < SETUP_REPEATS or \
                sum(t1 - t0 for t0, t1 in setups) < SETUP_WINDOW_S:
            gc.collect()
            window, workloads, inputs = import_and_setup(args)
            setups.append(window)
        wl = workloads.WORKLOADS[args.workload]
        jobs = wl.jobs(inputs)
        start = time.perf_counter()
        while True:
            gc.collect()
            results, windows = run_pass(jobs)
            passes.append((windows, results))
            elapsed = time.perf_counter() - start
            typical = elapsed / len(passes)
            if elapsed + typical > args.seconds:
                break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = 0, []
    for _, results in passes:
        f, lines = check(jobs, results)
        failed += f
        problems += lines
    raw = [[t1 - t0 for t0, t1 in windows] for windows, _ in passes]
    fixed = [[clock.corrected(*w) for w in windows] for windows, _ in passes]
    metrics = {
        "setup_s": (statistics.median(clock.corrected(*w) for w in setups), "s"),
        "wall_s": (statistics.median(map(sum, fixed)), "s"),
        "job_max_s": (statistics.median(map(max, fixed)), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    extra = {"why": wl.why, "passes": len(passes),
             "raw_setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
             "raw_wall_s": statistics.median(map(sum, raw)),
             "raw_job_max_s": statistics.median(map(max, raw)),
             "probe_median_us": statistics.median(clock.durations) * 1e6,
             "setup_runs_s": [t1 - t0 for t0, t1 in setups],
             "job_s": {j.name: [p[i] for p in raw] for i, j in enumerate(jobs)},
             "job_corrected_s": {j.name: [p[i] for p in fixed]
                                 for i, j in enumerate(jobs)}}
    mul = getattr(inputs, "mul_ns", None)
    if mul:
        extra["mul_samples"] = len(mul)
        extra["mul_p50_us"] = percentile(mul, 50) / 1e3
        extra["mul_p99_us"] = percentile(mul, 99) / 1e3
    attempted = len(passes) * sum(j.ops for j in jobs)
    return attempted, failed, problems, metrics, extra


def measure_traced(args):
    """One untraced pass, then set-up and one pass under the tracer."""
    _, workloads, inputs = import_and_setup(args)
    import gate
    from spans import Tracer, unit

    wl = workloads.WORKLOADS[args.workload]
    jobs = wl.jobs(inputs)
    gc.collect()
    plain_results, windows = run_pass(jobs)
    plain_s = windows[-1][1] - windows[0][0]
    tracer = Tracer((workloads, gate))
    tracer.install()
    try:
        traced_jobs = wl.jobs(wl.setup(args.seed))
        gc.collect()
        traced_results, windows = run_pass(traced_jobs, tracer)
        traced_s = windows[-1][1] - windows[0][0]
    finally:
        tracer.uninstall()
    failed, problems = check(jobs, plain_results)
    f, lines = check(traced_jobs, traced_results)
    failed += f
    problems += lines
    layer = tracer.layer_metrics()
    layer["trace.wall_s"] = traced_s
    layer["trace.untraced_wall_s"] = plain_s
    layer["trace.overhead_s"] = traced_s - plain_s
    metrics = {k: (v, unit(k)) for k, v in layer.items()}
    per_job = {name: {k: v for k, v in tracer.counts(job).items() if v}
               for job, name in enumerate(tracer.jobs)}
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{args.workload}.spans",
                       {"workload": args.workload, "seed": args.seed})
    extra = {"why": wl.why,
             "traced_job_s": {j.name: t1 - t0
                              for j, (t0, t1) in zip(traced_jobs, windows)},
             "calls_per_job": per_job, "spans": len(tracer.span_name)}
    attempted = 2 * sum(j.ops for j in jobs)
    return attempted, failed, problems, metrics, extra


def run_one(args):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    meta = metadata(args)
    measured = measure_traced(args) if args.trace else measure(args)
    attempted, failed, problems, metrics, extra = measured
    meta["loadavg_after"] = os.getloadavg()
    print(f"# {json.dumps(meta)}")
    print(f"# why: {extra['why']}")
    for line in problems:
        print(f"# FAILED {line}")
    print(f"# fail_frac {failed / attempted} ratio ({failed} of {attempted}"
          f" operations)")
    for key in ("mul_p50_us", "mul_p99_us"):
        if key in extra:
            print(f"# {key} {extra[key]} us ({extra['mul_samples']} products)")
    for key in ("raw_setup_s", "raw_wall_s", "raw_job_max_s"):
        if key in extra:
            print(f"# {key} {extra[key]} s (uncorrected wall time)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value} {unit}")
    record = dict(meta, attempted=attempted, failed=failed, problems=problems,
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}, **extra)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + (DEFECTS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
