"""One client in a closed loop: run a job, wait for it, run the next.

A job is one call into the program: ``tokenmedia.cli.main(argv)`` with the
standard streams captured, or one library call where the CLI has no command.
Every job runs under an in-process deadline.  A job fails when it returns
the wrong exit code, raises, overruns its deadline, fails its output oracle,
or prints output that differs from an earlier repetition of the same job.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: A job slower than this fails, so that no job can hang a run.
DEADLINE_S = 15.0
#: At least this many jobs per loop, so that ten samples lie beyond p90.
MIN_JOBS = 100
#: A loop stops early past this many times its planned length.
TIME_CAP_FACTOR = 3
#: Seconds between two calibration samples in the loop.
CALIBRATION_INTERVAL_S = 0.1
#: Median seconds of the two calibration parts on the reference machine
#: (2-core Intel Xeon VM, Python 3.11); reported times are scaled to them.
OVERHEAD_REF_S = 0.0005
COMPUTE_REF_S = 0.0020
#: How much of a job's time behaves like per-call overhead (file read,
#: argparse, JSON) rather than computation: about the cost of the smallest
#: CLI job at the reference speed.
JOB_OVERHEAD_S = 0.002
#: The document the overhead part reads, parses and dumps.
CALIBRATION_DOC = {f"t{t}": {f"s{s}": f"s{(s * 7 + t) % 24}" for s in range(24)} for t in range(12)}


def overhead_work(path: Path) -> int:
    """Fixed work shaped like a CLI call's overhead, independent of tokenmedia:
    read and parse a JSON file, build and run an argparse parser, and dump
    the document as indented JSON."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(prog="calibration")
    parser.add_argument("input")
    parser.add_argument("--bound", type=int)
    args = parser.parse_args([str(path), "--bound", "8"])
    return args.bound + len(json.dumps(doc, sort_keys=True, indent=2))


def compute_work() -> int:
    """Fixed pure-Python computation, independent of tokenmedia: dict, set,
    string and sort operations like the program's own."""
    counts: dict[str, int] = {}
    acc = 0
    for i in range(2400):
        k = f"s{i % 211}"
        counts[k] = counts.get(k, 0) + i
        acc ^= hash(frozenset((i & 7, i % 13)))
    return acc + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


class SpeedLog:
    """Calibration samples through a run, to turn wall time into reference time.

    On a shared virtual machine speed drifts by a fifth or more within tens
    of seconds, for the program and any other code alike.  Each sample
    times the two calibration parts; a stretch of wall time is scaled by their reference
    time over their time measured around it, the overhead part for the first
    JOB_OVERHEAD_S of a job and the compute part for the rest.  That removes
    the drift and keeps what the program itself costs.
    """

    def __init__(self, directory: Path):
        self.path = directory / "calibration.json"
        self.path.write_text(json.dumps(CALIBRATION_DOC), encoding="utf-8")
        self.times: list[float] = []
        self.overhead: list[float] = []
        self.compute: list[float] = []
        overhead_work(self.path)  # the first call pays one-time costs; not a sample

    def sample(self) -> None:
        start = time.perf_counter()
        overhead_work(self.path)
        middle = time.perf_counter()
        compute_work()
        self.times.append(start)
        self.overhead.append(middle - start)
        self.compute.append(time.perf_counter() - middle)

    def reference(self, at: float, seconds: float) -> float:
        """Reference seconds of a job or set-up that took ``seconds`` of wall
        time around time ``at``, from the four samples nearest to it, two
        before and two after."""
        i = bisect.bisect_left(self.times, at)
        lo, hi = (max(0, i - 2), i + 2) if i < len(self.times) else (-2, None)
        overhead = min(seconds, JOB_OVERHEAD_S)
        return (overhead * OVERHEAD_REF_S / statistics.median(self.overhead[lo:hi])
                + (seconds - overhead) * COMPUTE_REF_S / statistics.median(self.compute[lo:hi]))


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program eats it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Job:
    """One repeatable call and what its result must satisfy.

    ``argv`` jobs go through the CLI; ``call`` jobs call the library and
    ``render`` turns the result into the text that is digested and checked.
    ``check`` gets the exit code and the text and returns a failure reason
    or None.
    """

    name: str
    kind: str
    check: Callable[[int, str], str | None]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    render: Callable[[object], str] = repr
    expect_rc: int | None = 0


@dataclass
class Outcome:
    rc: int | None
    text: str
    latency: float
    error: str | None = None


def run_job(job: Job, cli_module, deadline: float = DEADLINE_S) -> Outcome:
    """Run one job in-process; latency covers only the call into the program."""
    out = io.StringIO()
    rc, text, latency, error = None, "", 0.0, None
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    stdin = sys.stdin
    try:
        sys.stdin = io.StringIO("")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            signal.setitimer(signal.ITIMER_REAL, deadline)
            start = time.perf_counter()
            try:
                if job.argv is not None:
                    rc = cli_module.main(job.argv)
                else:
                    result = job.call()
                    rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            finally:
                latency = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
        text = out.getvalue() if job.argv is not None else job.render(result)
    except DeadlineExceeded:
        error = f"overran its {deadline:g} s deadline"
    except Exception as exc:  # a job that raises is a failed job, not a crashed run
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
        sys.stdin = stdin
    if error is None and job.expect_rc is not None and rc != job.expect_rc:
        error = f"exit code {rc}, expected {job.expect_rc}"
    return Outcome(rc, text, latency, error)


@dataclass
class Ledger:
    """Latencies, failures and output digests of every job run in this process."""

    #: (start, end, latency, succeeded) of each job in wall seconds; start
    #: and end include the harness's own work around the call
    timings: list[tuple[float, float, float, bool]] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    failed_runs: int = 0
    attempted: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    first_output: dict[str, tuple[int, str]] = field(default_factory=dict)

    def record(self, job: Job, outcome: Outcome, start: float, end: float) -> None:
        self.attempted += 1
        error = outcome.error
        if error is None:
            digest = hashlib.sha256(outcome.text.encode()).hexdigest()
            known = self.digests.setdefault(job.name, digest)
            if known != digest:
                error = "stdout differs between repetitions"
            self.first_output.setdefault(job.name, (outcome.rc, outcome.text))
        self.timings.append((start, end, outcome.latency, error is None))
        if error is not None:
            self.failed_runs += 1
            self.failures.setdefault(job.name, error)

    def apply_oracles(self, bad: dict[str, str], runs: dict[str, int]) -> None:
        """A job whose output failed its oracle fails every time it ran."""
        for name, reason in bad.items():
            if name in runs and name not in self.failures:
                self.failures[name] = reason
                self.failed_runs += runs[name]


def oracle_failures(jobs: list[Job], first_output: dict[str, tuple[int, str]]) -> dict[str, str]:
    """Check each distinct job's output once, outside the timed loop."""
    bad = {}
    for job in jobs:
        if job.name not in first_output:
            continue
        rc, text = first_output[job.name]
        try:
            reason = job.check(rc, text)
        except Exception as exc:  # unreadable output is a wrong output
            reason = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        if reason:
            bad[job.name] = reason
    return bad


def closed_loop(jobs: list[Job], rounds: int, runner: Callable[[Job], Outcome],
                ledger: Ledger, speed: SpeedLog, time_cap: float) -> dict[str, int]:
    """Run the job list ``rounds`` times over; returns how often each job ran.

    A fixed number of whole rounds gives every run of a workload the same
    job mix, so throughput and percentiles do not depend on where a clock
    ran out.  Past ``time_cap`` seconds the loop stops early, which bounds a
    run whose jobs got slow.  Calibration samples are taken between jobs and
    are not part of any job.
    """
    runs: dict[str, int] = {}
    start = time.perf_counter()
    speed.sample()
    for _ in range(rounds):
        for job in jobs:
            if time.perf_counter() - speed.times[-1] >= CALIBRATION_INTERVAL_S:
                speed.sample()
            begin = time.perf_counter()
            outcome = runner(job)
            ledger.record(job, outcome, begin, time.perf_counter())
            runs[job.name] = runs.get(job.name, 0) + 1
            if time.perf_counter() - start > time_cap:
                break
        else:
            continue
        break
    speed.sample()
    speed.sample()
    return runs


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    ordered = sorted(values)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return value, sum(1 for v in ordered if v > value)


def loop_summary(ledger: Ledger, speed: SpeedLog | None = None) -> dict:
    """Throughput and latency percentiles of a loop, in reference time when a
    SpeedLog is given and in wall time otherwise."""
    scale = speed.reference if speed else (lambda at, seconds: seconds)
    latencies, busy = [], 0.0
    for start, end, latency, ok in ledger.timings:
        busy += scale((start + end) / 2, end - start)
        if ok:
            latencies.append(scale((start + end) / 2, latency))
    p90, beyond = percentile(latencies, 0.9)
    return {"jobs_per_s": len(latencies) / busy, "p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": p90 * 1e3, "samples": len(latencies), "beyond_p90": beyond}


def json_check(fn: Callable[[int, dict], str | None]) -> Callable[[int, str], str | None]:
    """Adapt an oracle over parsed JSON stdout to the (rc, text) form."""
    return lambda rc, text: fn(rc, json.loads(text))
