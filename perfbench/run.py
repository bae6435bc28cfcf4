"""tokenmedia benchmark: one workload, one process, one client in a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload media-decide --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the loop once untraced and once traced and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness  # imports no tokenmedia; workloads and tracer need src/ on the path first

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["media-decide", "arrangement-build", "small-census"])
    p.add_argument("--seed", type=int, required=True, help="makes every generated input")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "seed": seed}


def set_up(build, seed, directory, cli):
    """Generate and write the inputs, then warm up one job of each kind."""
    directory.mkdir()
    jobs = build(seed, directory)
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            harness.run_job(job, cli)
    return jobs


def import_seconds(src: Path) -> float:
    """Wall seconds to import tokenmedia.cli in a fresh interpreter."""
    code = ("import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import tokenmedia.cli; print(time.perf_counter() - start)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def plain_run(args, work, cli, workloads):
    build = workloads.WORKLOADS[args.workload]
    speed = harness.SpeedLog(work)
    speed.sample()
    speed.sample()
    setups = []
    for i in range(SETUP_REPEATS):
        # one set-up: the import, timed in a fresh interpreter since this one
        # has imported already, then input generation, files and warm-up
        imported = import_seconds(ROOT / "src")
        start = time.perf_counter()
        jobs = set_up(build, args.seed, work / f"setup{i}", cli)
        end = time.perf_counter()
        speed.sample()
        speed.sample()
        setups.append(speed.reference(start, imported + end - start))
    setup_s = statistics.median(setups)

    ledger = harness.Ledger()
    runs = loop(args, jobs, lambda j: harness.run_job(j, cli), ledger, speed, workloads)
    ledger.apply_oracles(harness.oracle_failures(jobs, ledger.first_output), runs)
    run_known_defects(args, work, cli, workloads)
    ref, wall = harness.loop_summary(ledger, speed), harness.loop_summary(ledger)
    print(f"job_p90_ms {ref['p90_ms']:.4f} ms  ({ref['beyond_p90']} of {ref['samples']} samples beyond it)")
    print(f"error_rate {ledger.failed_runs / ledger.attempted:.6f}  "
          f"({ledger.failed_runs} of {ledger.attempted} jobs failed)")
    print(f"wall clock: jobs_per_s {wall['jobs_per_s']:.4f} 1/s, job_p50_ms {wall['p50_ms']:.4f} ms, "
          f"job_p90_ms {wall['p90_ms']:.4f} ms; calibration compute part {min(speed.compute) * 1e3:.3f}-"
          f"{max(speed.compute) * 1e3:.3f} ms")
    print(f"set-ups (reference s): {', '.join(f'{t:.4f}' for t in setups)}")
    metrics = {
        "jobs_per_s": (ref["jobs_per_s"], "1/s"),
        "job_p50_ms": (ref["p50_ms"], "ms"),
        "job_p90_ms": (ref["p90_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return ledger, metrics, True


def loop(args, jobs, runner, ledger, speed, workloads):
    """The timed loop: as many whole rounds as fit in --seconds at the
    reference speed, and enough for MIN_JOBS jobs."""
    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]),
                 math.ceil(harness.MIN_JOBS / len(jobs)))
    start = time.perf_counter()
    runs = harness.closed_loop(jobs, rounds, runner, ledger, speed,
                               time_cap=harness.TIME_CAP_FACTOR * max(args.seconds, 1.0))
    print(f"loop: {sum(runs.values())} jobs ({rounds} round(s) of {len(jobs)} planned) "
          f"in {time.perf_counter() - start:.2f} s wall")
    return runs


def run_known_defects(args, work, cli, workloads) -> int:
    """Run the known-defect jobs once, outside the counted jobs; how many still fail."""
    still = 0
    for job, deadline, what in workloads.known_defects(args.workload, args.seed, work):
        outcome = harness.run_job(job, cli, deadline=deadline)
        reason = outcome.error or job.check(outcome.rc, outcome.text)
        still += reason is not None
        state = f"still fails: {reason}" if reason else "no longer fails"
        print(f"known defect, {job.name} ({what}): {state}")
    return still


def traced_run(args, work, cli, workloads):
    """Untraced loop, then the same loop traced, then the canary pass."""
    from tracer import SPAN_NAMES, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        jobs = set_up(workloads.WORKLOADS[args.workload], args.seed, work / "setup", cli)
    finally:
        tracer.uninstall()

    speed = harness.SpeedLog(work)
    plain = harness.Ledger()
    runs0 = loop(args, jobs, lambda j: harness.run_job(j, cli), plain, speed, workloads)
    # shared digests: output that differs between the two loops fails the job
    traced = harness.Ledger(digests=plain.digests, first_output=plain.first_output)
    latencies: dict = {}
    ids = itertools.count()
    collecting = [0.0, 0.0]  # seconds spent in garbage collection, start of the current one

    def on_collect(phase, info):
        if phase == "start":
            collecting[1] = time.perf_counter()
        else:
            collecting[0] += time.perf_counter() - collecting[1]

    def run_traced(job):
        tracer.job = next(ids)
        collected = collecting[0]
        outcome = harness.run_job(job, cli)
        if outcome.error is None:
            latencies[tracer.job] = (outcome.latency, collecting[0] - collected)
        return outcome

    canary_errors = []
    gc.callbacks.append(on_collect)
    tracer.install()
    try:
        runs1 = loop(args, jobs, run_traced, traced, speed, workloads)
        tracer.job = "canary:inputs"
        (work / "canary").mkdir()
        for job in workloads.canary_jobs(work / "canary"):
            tracer.job = job.name
            outcome = harness.run_job(job, cli)
            if outcome.error:
                canary_errors.append(f"{job.name}: {outcome.error}")
    finally:
        tracer.uninstall()
        gc.callbacks.remove(on_collect)

    bad = harness.oracle_failures(jobs, plain.first_output)
    plain.apply_oracles(bad, runs0)
    traced.apply_oracles(bad, runs1)
    for name, reason in traced.failures.items():
        plain.failures.setdefault(name, reason)
    plain.attempted += traced.attempted
    plain.failed_runs += traced.failed_runs

    defects = run_known_defects(args, work, cli, workloads)
    missing = sorted(set(tracer.missing)
                     | (set(workloads.EXPECTED_SPANS[args.workload]) - tracer.fired(canary=False))
                     | (set(SPAN_NAMES) - tracer.fired(canary=True)))
    for name in missing:
        print(f"tracer self-check: span {name} did not fire", file=sys.stderr)
    for error in canary_errors:
        print(f"canary job failed: {error}", file=sys.stderr)
    # a garbage collection can start between the harness's clock and the
    # first span, so its time is allowed on top of the tolerance
    gaps = tracer.job_gaps({job: lat for job, (lat, _) in latencies.items()})
    slack = [0.5 + 0.02 * lat + latencies[job][1] * 1e3 for job, (lat, _) in zip(latencies, gaps)]
    worst = max(zip(gaps, slack), key=lambda g: g[0][1] - g[1], default=((0.0, 0.0), 0.0))
    accounted = all(gap <= allowed for (_, gap), allowed in zip(gaps, slack))
    print(f"span accounting: worst job has {worst[0][1]:.4f} ms of {worst[0][0]:.4f} ms "
          f"outside its spans (allowed {worst[1]:.4f} ms)")

    plain_jps = harness.loop_summary(plain, speed)["jobs_per_s"]
    traced_jps = harness.loop_summary(traced, speed)["jobs_per_s"]
    metrics = {}
    for name, value in tracer.summary().items():
        unit = "ms" if name.endswith("_ms") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    metrics["trace.jobs_per_s"] = (traced_jps, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (plain_jps, "1/s")
    metrics["trace.overhead_pct"] = ((plain_jps / traced_jps - 1) * 100, "%")
    metrics["trace.missing_spans"] = (len(missing), "count")
    metrics["known_defects.still_failing"] = (defects, "count")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    print(f"spans written to {spans_file.relative_to(ROOT)}")
    return plain, metrics, accounted and not canary_errors


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tokenmedia" / "cli.py").is_file():
        print(f"perfbench: no tokenmedia sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tokenmedia import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: tokenmedia was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        if args.trace:
            ledger, metrics, ok = traced_run(args, work, cli, workloads)
        else:
            ledger, metrics, ok = plain_run(args, work, cli, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, reason in sorted(ledger.failures.items()):
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": ok and ledger.failed_runs == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed_runs,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "workload": args.workload, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
