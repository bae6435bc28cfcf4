"""``scripts/job_digests.py`` on hand-made job lists.

``run`` gives a job's name, exit code, stdout and stderr, and ``digest``
hashes those records in order.  Two lists that print the same bytes must
have one digest, and a change to any one field of any one job, or to the
order of the jobs, must change it.  With ``--each`` every job gets a line of
its own digest, and the workload digests stay as they are.
"""

import importlib.util
import io
import json
import sys
import types
from pathlib import Path
from types import SimpleNamespace

from tokenmedia import cli
from tokenmedia.linorders import linear_medium

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "job_digests.py"
spec = importlib.util.spec_from_file_location("job_digests", SCRIPT)
job_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(job_digests)


def argv_job(name, *argv):
    return SimpleNamespace(name=name, argv=list(argv), call=None, render=repr)


def call_job(name, call):
    return SimpleNamespace(name=name, argv=None, call=call, render=repr)


def raises():
    raise ValueError("no such thing")


def hand_made_jobs(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(linear_medium(3)[0].to_json_dict()))
    bad.write_text("{")
    return [argv_job("check:good", "check", str(good)), argv_job("check:bad", "check", str(bad)),
            call_job("call:sum", lambda: sum(range(4))), call_job("call:raises", raises)]


def records(jobs):
    return [job_digests.run(job, cli) for job in jobs]


def test_run_records_exit_code_stdout_and_stderr(tmp_path):
    good, bad, total, raised = records(hand_made_jobs(tmp_path))
    assert good[:2] == ("check:good", 0) and json.loads(good[2]) and good[3] == ""
    assert bad[:3] == ("check:bad", 2, "") and bad[3].startswith("parse error:")
    assert total == ("call:sum", 0, "6", "")
    assert raised == ("call:raises", None, "", "ValueError: no such thing")


def test_equal_outputs_give_one_digest(tmp_path, monkeypatch):
    # the two lists read files with the same bytes in different directories,
    # named relative to each, as the script names its inputs
    digests = []
    for where in ("first", "second"):
        (tmp_path / where / "jobs").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / where)
        digests.append(job_digests.digest(records(hand_made_jobs(Path("jobs")))))
    a, b = digests
    assert a == b and len(a) == 64 and set(a) <= set("0123456789abcdef")


def test_any_changed_field_or_order_changes_the_digest(tmp_path):
    base = records(hand_made_jobs(tmp_path))
    digest = job_digests.digest(base)
    for k in range(len(base)):
        for field, other in enumerate(("renamed", 3, "changed", "changed\n")):
            changed = list(base)
            changed[k] = base[k][:field] + (other,) + base[k][field + 1:]
            assert job_digests.digest(changed) != digest, (k, field)
    assert job_digests.digest(base[::-1]) != digest
    # the fields are framed, so moving a byte from stdout to stderr shows
    moved = list(base)
    moved[2] = ("call:sum", 0, "", "6")
    assert job_digests.digest(moved) != digest


def test_each_prints_one_digest_per_job_and_keeps_the_workload_digest(tmp_path):
    base = records(hand_made_jobs(tmp_path))
    each = io.StringIO()
    assert job_digests.digest(base, each) == job_digests.digest(base)
    lines = each.getvalue().splitlines()
    assert lines == [f"  {record[0]} {job_digests.digest([record])}" for record in base]
    # a change to one job's output changes that job's line alone
    changed = list(base)
    changed[2] = ("call:sum", 0, "7", "")
    other = io.StringIO()
    job_digests.digest(changed, other)
    differ = [a for a, b in zip(lines, other.getvalue().splitlines()) if a != b]
    assert [line.split()[0] for line in differ] == ["call:sum"]


def test_each_leaves_the_workload_lines_as_they_are(tmp_path, monkeypatch, capsys):
    # main over stand-in workloads of the hand-made jobs, with and without --each
    fake = types.ModuleType("workloads")
    fake.WORKLOADS = {w["name"]: lambda seed, directory: hand_made_jobs(directory)
                      for w in json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["workloads"]}
    monkeypatch.setitem(sys.modules, "workloads", fake)
    monkeypatch.setattr(sys, "path", list(sys.path))
    outputs = []
    for extra in ([], ["--each"]):
        assert job_digests.main(["--seed", "1", *extra]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    plain, each = outputs
    assert [line for line in each if not line.startswith("  ")] == plain
    assert len(each) == len(plain) + 4 * len(fake.WORKLOADS)
    assert [line.split()[0] for line in each[1:6]] == [
        "check:good", "check:bad", "call:sum", "call:raises", next(iter(fake.WORKLOADS))]
