#!/usr/bin/env python3
"""One digest per benchmark workload of what every job prints.

    python3 scripts/job_digests.py --seed 1 [--tree DIR] [--each]

Every job of each workload is built at the seed with
``perfbench/workloads.py`` and run once, in process.  The script prints the
directory tokenmedia was imported from, then one SHA-256 per workload over
each job's name, exit code, stdout and stderr, in job order.  A call job's
stdout is its rendered result, and a job that raises prints the
exception's type and message as its stderr.  ``--each`` also prints, before
each workload's line, one indented line per job: its name and the SHA-256
of its record alone, so that a mismatch between two trees names the job;
the workload lines are the same with it or without it.  ``--tree`` imports ``src/``
from another checkout (for example a ``git archive`` of a parent commit),
so two trees that print the same digests print the same bytes on every
job.  The inputs are written under a temporary directory, named by paths
relative to it, so no digest depends on where it lies.  ``perfbench/`` is
read from this checkout and nothing in it changes.
Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True, help="makes every generated input")
    p.add_argument("--tree", type=Path, default=ROOT, help="the checkout whose src/ runs the jobs")
    p.add_argument("--each", action="store_true", help="also print one digest per job")
    return p.parse_args(argv)


def run(job, cli) -> tuple[str, int | None, str, str]:
    """(name, exit code, stdout, stderr) of one job, run once with empty stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    rc = None
    try:
        sys.stdin = io.StringIO("")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if job.argv is not None:
                    rc = cli.main(job.argv)
                else:
                    out.write(job.render(job.call()))
                    rc = 0
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the digest records it like any other output
                err.write(f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = stdin
    return job.name, rc, out.getvalue(), err.getvalue()


def digest(records, each=None) -> str:
    """SHA-256 over (name, exit code, stdout, stderr) records, one JSON line each.
    With ``each``, a text file, each record also gets a line there: its name and
    the SHA-256 of its JSON line alone, which is ``digest([record])``."""
    h = hashlib.sha256()
    for record in records:
        line = json.dumps(list(record)).encode() + b"\n"
        h.update(line)
        if each is not None:
            print(f"  {record[0]} {hashlib.sha256(line).hexdigest()}", file=each, flush=True)
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(args.tree.resolve() / "src"), str(ROOT / "perfbench")]
    import workloads
    from tokenmedia import cli

    print(f"tokenmedia from {Path(cli.__file__).parent}", flush=True)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
                name = w["name"]
                directory = Path(name)
                directory.mkdir()
                jobs = workloads.WORKLOADS[name](args.seed, directory)
                records = (run(job, cli) for job in jobs)
                print(f"{name} {len(jobs)} jobs {digest(records, sys.stdout if args.each else None)}",
                      flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
