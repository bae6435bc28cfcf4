#!/usr/bin/env python3
"""The CLI reference rows of ROADMAP.md's Baseline, each in a child process of its own.

    python3 scripts/reference_rows.py PARENT LABEL

The rows are ``linmedium 7``, both mosaic kinds at radius 12, ``check``,
``represent`` and ``graph`` of the triangular radius-12 medium and of
linear 7 (``graph`` of the first only), ``check -`` with the triangular
medium's file on stdin, ``iso`` of each of them against a relabelled copy,
``arrangement`` of 100, 140 and 200 generic lines, and ``check`` of the
5,000-state chain (states ``s0`` ... ``s4999``, each ``s<i>`` moved to
``s<i+1>`` by ``u<i>`` and back by ``d<i>``), whose labels are 4,999 bits wide.
The media are written from the library as sparse ``"moves"`` documents;
a copy renames every state and token and shuffles both orders with
``random.Random(5040)`` for linear 7 and ``Random(12)`` for the window.
The lines are ``generic_lines(random.Random(n), n)`` of
``perfbench/workloads.py``, which is read from this checkout and not
changed.  Every input is built once, by this checkout's library, under a
temporary directory, so both trees read the same files.

Two trees run, both fresh copies in a temporary directory: the committed
files of PARENT, extracted with ``git archive``, and this checkout's working
tree as it is on disk (``bench_pairs.copy_worktree``).  Each row runs
``RUNS`` times in each tree, the trees alternating, parent first on even
runs.  Each run starts ``python -m tokenmedia.cli`` with ``PYTHONPATH`` at
the tree's ``src/`` and ``PYTHONDONTWRITEBYTECODE=1``, so, neither tree
holding cached bytecode, every run compiles the package; it records its
exit code, wall seconds, peak RSS (the child's own ``ru_maxrss``), the
bytes and SHA-256 of its stdout, read as it comes and not kept, and the
tail of its stderr.  The rows of 140 and 200 lines run under ``RLIMIT_AS``
(``LIMIT_MB``), set in the child alone, so that a tree which needs more
fails in its own process.  The records and per-row medians go under the key
``"reference_rows"`` of ``BENCH_<LABEL>.json``, which is created if
missing.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
from bench_pairs import copy_worktree, extract, git, machine  # noqa: E402

# name: argv, with upper-case words naming the input files of ``write_inputs``
ROWS = {
    "linmedium-7": ["linmedium", "7"],
    "mosaic-triangular-12": ["mosaic", "triangular", "--radius", "12"],
    "mosaic-truncated-square-12": ["mosaic", "truncated-square", "--radius", "12"],
    "check-triangular-12": ["check", "TRIANGULAR"],
    "check-triangular-12-stdin": ["check", "-"],
    "represent-triangular-12": ["represent", "TRIANGULAR"],
    "graph-triangular-12": ["graph", "TRIANGULAR"],
    "iso-triangular-12": ["iso", "TRIANGULAR", "TRIANGULAR_COPY"],
    "check-linear-7": ["check", "LINEAR"],
    "represent-linear-7": ["represent", "LINEAR"],
    "iso-linear-7": ["iso", "LINEAR", "LINEAR_COPY"],
    "arrangement-100": ["arrangement", "LINES_100"],
    "arrangement-140": ["arrangement", "LINES_140"],
    "arrangement-200": ["arrangement", "LINES_200"],
    "check-chain-5000": ["check", "CHAIN_5000"],
}
#: The address-space limit of the rows that have needed gigabytes, while the dense
#: table was printed: 140 lines peaked at 2.65 GB, and 200 lines ran out of 4 GB.
LIMIT_MB = {"arrangement-140": 4096, "arrangement-200": 2048}
#: The input file each row that reads ``-`` takes on stdin, by its upper-case name.
STDIN = {"check-triangular-12-stdin": "TRIANGULAR"}
RUNS = 3  # per row and tree


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="the commit to run beside this checkout")
    p.add_argument("label", help="the output is BENCH_<label>.json")
    return p.parse_args(argv)


def moves_document(ts) -> dict:
    """A token system as its sparse ``"moves"`` document, each row in state-name order."""
    return {"states": list(ts.states),
            "tokens": [{"id": t, "reverse": ts.reverse[t]} for t in ts.tokens],
            "moves": {t: dict(sorted(ts.moves(t))) for t in ts.tokens}}


def relabelled(doc: dict, rng: random.Random) -> dict:
    """The system of the ``"moves"`` document ``doc`` with every state and token renamed
    (q0, q1, ... and k0, k1, ... in an order drawn from ``rng``) and both lists shuffled."""
    def renaming(names, prefix):
        order = list(range(len(names)))
        rng.shuffle(order)
        return {name: f"{prefix}{i}" for name, i in zip(names, order)}

    sname = renaming(doc["states"], "q")
    tname = renaming([e["id"] for e in doc["tokens"]], "k")
    states = list(sname.values())
    tokens = [{"id": tname[e["id"]], "reverse": tname[e["reverse"]]} for e in doc["tokens"]]
    rng.shuffle(states)
    rng.shuffle(tokens)
    return {"states": states, "tokens": tokens,
            "moves": {tname[t]: {sname[s]: sname[v] for s, v in row.items()}
                      for t, row in doc["moves"].items()}}


def write_inputs(directory: Path) -> dict[str, str]:
    """Each input file the rows name, written under ``directory``, by its upper-case name."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from tokenmedia.arrangements import arrangement_medium, mosaic_window
    from tokenmedia.linorders import linear_medium
    from tokenmedia.tokens import TokenSystem

    linear = moves_document(linear_medium(7)[0])
    triangular = moves_document(arrangement_medium(mosaic_window("triangular", 12)))
    docs = {"LINEAR": linear, "LINEAR_COPY": relabelled(linear, random.Random(5040)),
            "TRIANGULAR": triangular, "TRIANGULAR_COPY": relabelled(triangular, random.Random(12))}
    for n in (100, 140, 200):
        docs[f"LINES_{n}"] = workloads._line_doc(workloads.generic_lines(random.Random(n), n))
    chain = [f"s{i}" for i in range(5000)]
    docs["CHAIN_5000"] = moves_document(TokenSystem.from_pairs(
        chain, ((f"u{i}", f"d{i}", {chain[i]: chain[i + 1]}) for i in range(len(chain) - 1))))
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(directory / f"{name.lower()}.json")
        Path(paths[name]).write_text(json.dumps(doc))
    return paths


def measure(tree: Path, argv: list[str], limit_mb: int | None = None, stdin: str | None = None) -> dict:
    """One run of the CLI of ``tree`` on ``argv`` in a child process, under an
    address-space limit of ``limit_mb`` if given, with the file at ``stdin`` (or
    ``os.devnull``) as its stdin."""
    def limit():
        if limit_mb is not None:
            resource.setrlimit(resource.RLIMIT_AS, (limit_mb << 20, limit_mb << 20))

    env = {"PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    digest, size = hashlib.sha256(), 0
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err, open(stdin or os.devnull, "rb") as given:
        proc = subprocess.Popen([sys.executable, "-m", "tokenmedia.cli", *argv], env=env,
                                stdin=given, stdout=subprocess.PIPE, stderr=err, preexec_fn=limit)
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
            size += len(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen waits no more
        err.seek(0)
        stderr = err.read()[-500:].decode("utf-8", "replace")
    return {"exit": proc.returncode, "wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stdout_bytes": size, "stdout_sha256": digest.hexdigest(), "stderr": stderr}


def summary(runs: list[dict]) -> dict:
    """The exit codes, median wall time and peak RSS, and the stdout sizes and digests of ``runs``."""
    return {"exits": sorted({r["exit"] for r in runs}),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "stdout_bytes": sorted({r["stdout_bytes"] for r in runs}),
            "stdout_sha256": sorted({r["stdout_sha256"] for r in runs})}


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="reference_rows_"))
    trees = {"parent": scratch / "parent", "change": scratch / "change"}
    try:
        extract(args.parent, trees["parent"])
        copy_worktree(ROOT, trees["change"])
        (scratch / "inputs").mkdir()
        paths = write_inputs(scratch / "inputs")
        rows = {}
        for name, words in ROWS.items():
            command = [paths.get(word, word) for word in words]
            runs = {side: [] for side in trees}
            for i in range(RUNS):
                for side in sorted(trees, reverse=i % 2 == 0):  # parent first on even runs
                    record = measure(trees[side], command, LIMIT_MB.get(name), paths.get(STDIN.get(name)))
                    runs[side].append(record)
                    print(f"{name} {side} run {i}: exit {record['exit']}, {record['wall_s']} s, "
                          f"{record['peak_rss_mb']} MB", file=sys.stderr)
            rows[name] = {"argv": words, "limit_mb": LIMIT_MB.get(name), "stdin": STDIN.get(name),
                          **{side: {"median": summary(rs), "runs": rs} for side, rs in runs.items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    head = git("rev-parse", "HEAD")
    doc = {"parent": git("rev-parse", args.parent),
           "change": head + (" with uncommitted changes" if git("status", "--porcelain") else ""),
           "machine": machine(), "rows": rows}
    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text()) if path.exists() else {}
    bench["reference_rows"] = doc
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
