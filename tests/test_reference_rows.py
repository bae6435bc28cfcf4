"""``scripts/reference_rows.py`` on small inputs.

``moves_document`` writes a system that reads back equal, ``relabelled``
renames every state and token of it into an isomorphic copy, and
``measure`` runs one CLI command in a child process, under an
address-space limit if given, and records what it printed, its exit code,
the tail of its stderr and its own peak RSS.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import resource
from pathlib import Path

from tokenmedia import cli
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.cubes import media_isomorphic
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("reference_rows", ROOT / "scripts" / "reference_rows.py")
reference_rows = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reference_rows)


def test_a_moves_document_reads_back_and_its_copy_is_isomorphic_under_new_names():
    for ts in (linear_medium(4)[0], arrangement_medium(mosaic_window("truncated-square", 1))):
        doc = reference_rows.moves_document(ts)
        assert TokenSystem.from_json_dict(doc) == ts
        copy = reference_rows.relabelled(doc, random.Random(4))
        assert not set(copy["states"]) & set(doc["states"])
        assert not {e["id"] for e in copy["tokens"]} & {e["id"] for e in doc["tokens"]}
        assert copy["states"] != sorted(copy["states"], key=lambda q: int(q[1:]))
        assert media_isomorphic(ts, TokenSystem.from_json_dict(copy)) is not None


def test_a_run_records_what_the_command_printed():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["linmedium", "3"]) == 0
    record = reference_rows.measure(ROOT, ["linmedium", "3"])
    text = out.getvalue().encode()
    assert (record["exit"], record["stdout_bytes"], record["stdout_sha256"], record["stderr"]) == \
        (0, len(text), hashlib.sha256(text).hexdigest(), "")
    assert record["wall_s"] > 0 and record["peak_rss_mb"] > 0


def test_a_run_records_its_own_peak_not_the_harness_one():
    # a forked child's ru_maxrss starts at the harness's peak, raised here by 64 MB of ballast
    ballast = b"x" * (64 << 20)
    record = reference_rows.measure(ROOT, ["linmedium", "3"])
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > 64 << 10
    assert 5 < record["peak_rss_mb"] < 20
    del ballast


def test_the_spread_is_the_median_and_the_quartiles():
    assert reference_rows.spread([4, 1, 3, None, 2, 5, 7, 6]) == {"median": 4, "quartiles": [2, 6]}
    assert reference_rows.spread([None, 2.5]) == {"median": 2.5, "quartiles": [2.5, 2.5]}


def test_a_run_past_a_cap_records_its_exit_code_and_stderr():
    record = reference_rows.measure(ROOT, ["linmedium", "9"])
    assert (record["exit"], record["stdout_bytes"]) == (3, 0)
    assert record["stderr"].startswith("cap exceeded: order size 9")


def test_a_run_past_its_address_space_limit_runs_out_of_memory_in_its_own_process():
    # the r = 12 mosaic peaks at about 51 MB; 35 MB leaves 10 MB above the 25 MB at which
    # the interpreter still starts and reaches the CLI's handler
    record = reference_rows.measure(ROOT, ["mosaic", "triangular", "--radius", "12"], limit_mb=35)
    assert (record["exit"], record["stdout_bytes"], record["stderr"]) == \
        (3, 0, "cap exceeded: out of memory\n")
    assert reference_rows.measure(ROOT, ["mosaic", "triangular", "--radius", "3"], limit_mb=35)["exit"] == 0


def test_a_run_reads_the_file_it_is_given_on_stdin(tmp_path):
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(reference_rows.moves_document(linear_medium(4)[0])))
    by_path = reference_rows.measure(ROOT, ["check", str(path)])
    on_stdin = reference_rows.measure(ROOT, ["check", "-"], stdin=str(path))
    assert (on_stdin["exit"], on_stdin["stderr"]) == (0, "") and on_stdin["stdout_bytes"] > 0
    assert on_stdin["stdout_sha256"] == by_path["stdout_sha256"]
    assert reference_rows.measure(ROOT, ["check", "-"])["stderr"].startswith("parse error: -: line 1 column 1:")
