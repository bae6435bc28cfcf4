#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against this checkout.

    python3 scripts/bench_pairs.py PARENT LABEL [--workloads W ...] [--pairs 10]
        [--first-seed N] [--claim WORKLOAD:METRIC]

The committed files of PARENT are extracted with ``git archive`` into a
temporary directory, so that nothing is added to the repository's git
metadata, and this checkout's working tree, as it is on disk (tracked files
and untracked files that git does not ignore), is copied beside it, so that
both sides run from fresh copies alike; the directory is removed at the end.
For each workload and pair i, ``perfbench/run.py --workload W --seed S
--seconds T --trace 0``, with T the ``run_seconds`` of BENCHMARK.json, runs
once in each tree, both with the same seed S, which no earlier pair used:
the parent first on even pairs and the change first on odd ones.  ``BENCH_<LABEL>.json`` in the root of this checkout
gets every run and, per workload and end-to-end metric of BENCHMARK.json,
the medians and inclusive quartiles of both sides, the pairs the change
wins, whether the change stays within the metric's bound (unresolved when
the parent's interquartile range is wider than the bound, unless every run
of the change reads better than every run of the parent), and whether it
makes a claim: at least nine tenths of the pairs won, and the medians
further apart than the parent's interquartile range.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLAIM_SHARE = 0.9  # of the pairs the change must win for a claim


def parse_args(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the commit to compare against")
    p.add_argument("label", help="the output is BENCH_<label>.json")
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--pairs", type=int, default=10, help="at least 10, as a claim assumes")
    p.add_argument("--first-seed", type=int, default=None,
                   help="seeds run from here, 100 apart per workload (default: drawn at random)")
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC that the change claims to improve")
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("--pairs must be at least 10")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in names or metric not in [m["name"] for m in benchmark["end_to_end"]]:
            p.error("--claim takes WORKLOAD:METRIC, an end-to-end metric of BENCHMARK.json")
    if args.first_seed is None:
        args.first_seed = random.SystemRandom().randrange(10**6, 10**7)
    args.metrics = benchmark["end_to_end"]
    args.seconds = benchmark["run_seconds"]
    return args


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """The committed files of ``commit``, written under ``dest``."""
    with subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    if proc.returncode:
        raise SystemExit(f"git archive {commit} exited with {proc.returncode}")


def copy_worktree(root: Path, dest: Path) -> None:
    """The working tree of the checkout at ``root`` as it is on disk, copied under ``dest``:
    its tracked files, edits included, and its untracked files that git does not ignore."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, capture_output=True, check=True).stdout
    for name in os.fsdecode(listed).split("\0"):
        source = root / name
        if name and (source.is_file() or source.is_symlink()):  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name, follow_symlinks=False)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its exit code, wall seconds,
    verdict counts and end-to-end metric values, or the tail of its stderr."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=max(600.0, 30 * seconds))
    out = {"exit": done.returncode, "wall_s": round(time.perf_counter() - start, 2)}
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {**out, "error": done.stderr[-2000:]}
    return {**out, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list[dict], metric: dict) -> dict:
    """Both sides of one metric over the pairs where both runs gave it."""
    name = metric["name"]
    pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs
             if name in r["parent"].get("metrics", {}) and name in r["change"].get("metrics", {})]
    if len(pairs) < 2:
        return {"pairs": len(pairs)}
    parent, change = [p for p, _ in pairs], [c for _, c in pairs]
    sign = 1 if metric["better"] == "higher" else -1
    p1, pmed, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cmed, c3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (cmed - pmed)
    # a spread wider than the bound cannot show a regression of the bound's size
    narrow = p3 - p1 <= metric["bound"] * abs(pmed)
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "pairs": len(pairs),
        "parent_median": pmed,
        "parent_quartiles": [p1, p3],
        "parent_iqr": p3 - p1,
        "change_median": cmed,
        "change_quartiles": [c1, c3],
        "change_pct": round(100 * (cmed - pmed) / pmed, 2) if pmed else None,
        "change_better_pairs": wins,
        "within_bound": -gain <= metric["bound"] * abs(pmed),
        "resolved": narrow or apart,
        "claim_met": wins >= math.ceil(CLAIM_SHARE * len(pairs)) and gain > p3 - p1,
        "parent_runs": parent,
        "change_runs": change,
    }


def verdict(summary: dict, runs: dict, claim: str | None) -> dict:
    worse = [f"{w}:{m}" for w, metrics in summary.items() for m, s in metrics.items()
             if s.get("within_bound") is False]
    unresolved = [f"{w}:{m}" for w, metrics in summary.items() for m, s in metrics.items()
                  if s.get("resolved") is False]
    failed = [f"{w} seed {r['seed']} {side}" for w, rs in runs.items() for r in rs
              for side in ("parent", "change") if r[side].get("failed", 1) or not r[side].get("correct")]
    out = {"outside_bound": worse, "unresolved": unresolved, "failed_runs": failed}
    if claim is not None:
        workload, metric = claim.split(":", 1)
        out["claim"] = claim
        out["claim_met"] = bool(summary.get(workload, {}).get(metric, {}).get("claim_met"))
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None) -> int:
    args = parse_args(argv)
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    runs: dict[str, list[dict]] = {}
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        extract(parent, trees["parent"])
        copy_worktree(ROOT, trees["change"])
        for k, workload in enumerate(args.workloads):
            runs[workload] = []
            for i in range(args.pairs):
                seed = args.first_seed + 100 * k + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(trees[side], workload, seed, args.seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{pair[side].get('metrics', pair[side].get('error'))}", file=sys.stderr)
                runs[workload].append(pair)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = {w: {m["name"]: summarize(rs, m) for m in args.metrics} for w, rs in runs.items()}
    doc = {
        "label": args.label,
        "parent": parent,
        "change": head + (" with uncommitted changes" if dirty else ""),
        "machine": machine(),
        "harness": (f"perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0; "
                    f"{args.pairs} pairs per workload, both sides of a pair on one seed, parent "
                    f"first on even pairs; seeds {args.first_seed}+100k+i for workload k and pair i; "
                    f"quartiles from statistics.quantiles(n=4, method='inclusive'); a claim needs "
                    f"{math.ceil(CLAIM_SHARE * args.pairs)} of {args.pairs} pairs won and the medians "
                    f"further apart than the parent's IQR"),
        "verdict": verdict(summary, runs, args.claim),
        "summary": summary,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
