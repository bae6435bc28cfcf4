"""The verdicts of ``scripts/bench_pairs.py`` on hand-made runs.

``summarize`` reads one metric over the pairs of runs and ``verdict`` reads
the summaries and the runs; every ``BENCH_*.json`` that the script writes
carries both.  The rules checked here: a tie counts for neither side, a
lower-is-better metric wins by going down, a parent spread wider than the
bound leaves the metric unresolved unless every change run is better, a
claim needs nine tenths of the pairs and a gain larger than the parent's
interquartile range, and every failed or incorrect run is listed.  The
change side runs from a copy of the working tree as it is on disk.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "jobs_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "job_p50_ms", "better": "lower", "bound": 0.25}


def side(value, metric=HIGHER, failed=0, correct=10):
    return {"exit": 0, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {metric["name"]: value}}


def runs(parent, change, metric=HIGHER):
    """One pair per (parent, change) value, seeds from 1."""
    return [{"seed": i, "first": "parent", "parent": side(p, metric), "change": side(c, metric)}
            for i, (p, c) in enumerate(zip(parent, change), 1)]


def test_ties_count_for_neither_side():
    s = bench_pairs.summarize(runs([10] * 10, [10] * 10), HIGHER)
    assert s["change_better_pairs"] == 0 and s["within_bound"] and not s["claim_met"]
    s = bench_pairs.summarize(runs([10] * 10, [10] * 5 + [11] * 5), HIGHER)
    assert s["change_better_pairs"] == 5
    s = bench_pairs.summarize(runs([10] * 10, [10] * 5 + [9] * 5, LOWER), LOWER)
    assert s["change_better_pairs"] == 5


@pytest.mark.parametrize("metric, better, worse", [(HIGHER, 12, 7), (LOWER, 8, 13)])
def test_the_sign_follows_the_direction_of_the_metric(metric, better, worse):
    # the bound is 25 % of the parent's median of 10: a change of 3 is outside it
    s = bench_pairs.summarize(runs([10] * 10, [better] * 10, metric), metric)
    assert s["change_better_pairs"] == 10 and s["within_bound"] and s["claim_met"]
    assert s["change_pct"] == 100 * (better - 10) / 10
    s = bench_pairs.summarize(runs([10] * 10, [worse] * 10, metric), metric)
    assert s["change_better_pairs"] == 0 and s["within_bound"] is False and not s["claim_met"]
    inside = 10 + (worse - 10) // 2  # 8 or 11: worse, but inside the bound
    s = bench_pairs.summarize(runs([10] * 10, [inside] * 10, metric), metric)
    assert s["change_better_pairs"] == 0 and s["within_bound"] is True


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [5, 15] * 5  # median 10, quartiles 5 and 15: an IQR of 10 against a bound of 2.5
    s = bench_pairs.summarize(runs(parent, [10] * 10), HIGHER)
    assert s["parent_iqr"] == 10 and s["resolved"] is False
    # unless every change run reads better than every parent run
    s = bench_pairs.summarize(runs(parent, [16] * 10), HIGHER)
    assert s["resolved"] is True
    s = bench_pairs.summarize(runs(parent, [4] * 10, LOWER), LOWER)
    assert s["resolved"] is True
    s = bench_pairs.summarize(runs([9, 11] * 5, [10] * 10), HIGHER)
    assert s["parent_iqr"] == 2 and s["resolved"] is True  # an IQR of 2 is inside the bound


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gain_beyond_the_iqr():
    parent = [99, 101] * 5  # median 100, IQR 2
    s = bench_pairs.summarize(runs(parent, [105] * 9 + [101]), HIGHER)
    assert s["change_better_pairs"] == 9 and s["claim_met"]  # the last pair is a tie
    s = bench_pairs.summarize(runs(parent, [105] * 8 + [99, 101]), HIGHER)
    assert s["change_better_pairs"] == 8 and not s["claim_met"]  # two ties
    # all ten pairs won, but by less than the parent's spread
    s = bench_pairs.summarize(runs(parent, [p + 1 for p in parent]), HIGHER)
    assert s["change_better_pairs"] == 10 and s["parent_iqr"] == 2 and not s["claim_met"]


def test_a_metric_needs_two_pairs():
    assert bench_pairs.summarize(runs([10], [11]), HIGHER) == {"pairs": 1}
    missing = runs([10] * 3, [11] * 3)
    del missing[0]["change"]["metrics"]["jobs_per_s"]
    assert bench_pairs.summarize(missing, HIGHER)["pairs"] == 2


def test_the_verdict_lists_failed_and_incorrect_runs():
    pairs = runs([10] * 4, [10] * 4)
    pairs[0]["parent"] = side(10, failed=2)
    pairs[1]["change"] = side(10, correct=0)
    pairs[2]["change"] = {"exit": 1, "wall_s": 0.5, "error": "Traceback ..."}
    work = {"small-census": pairs}
    summary = {"small-census": {"jobs_per_s": bench_pairs.summarize(pairs, HIGHER)}}
    got = bench_pairs.verdict(summary, work, None)
    assert got["failed_runs"] == ["small-census seed 1 parent", "small-census seed 2 change",
                                  "small-census seed 3 change"]
    assert got["outside_bound"] == [] and got["unresolved"] == [] and "claim" not in got


def test_the_verdict_names_metrics_outside_their_bound_and_the_claim():
    work = {"media-decide": runs([10] * 10, [7] * 10), "small-census": runs([5, 15] * 5, [12] * 10)}
    summary = {w: {"jobs_per_s": bench_pairs.summarize(rs, HIGHER)} for w, rs in work.items()}
    got = bench_pairs.verdict(summary, work, "small-census:jobs_per_s")
    assert got["outside_bound"] == ["media-decide:jobs_per_s"]
    assert got["unresolved"] == ["small-census:jobs_per_s"]
    assert got["failed_runs"] == []
    assert got["claim"] == "small-census:jobs_per_s" and got["claim_met"] is False
    assert bench_pairs.verdict(summary, work, "arrangement-build:jobs_per_s")["claim_met"] is False


def test_the_change_runs_from_a_copy_of_the_working_tree_as_it_is_on_disk(tmp_path):
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    (repo / ".gitignore").write_text(".perfbench_out/\n")
    (repo / "src" / "cli.py").write_text("committed\n")
    (repo / "gone.txt").write_text("deleted after the commit\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    (repo / "src" / "cli.py").write_text("an uncommitted edit\n")
    (repo / "gone.txt").unlink()
    (repo / "new.py").write_text("untracked\n")
    (repo / ".perfbench_out").mkdir()
    (repo / ".perfbench_out" / "run.json").write_text("{}\n")
    bench_pairs.copy_worktree(repo, copy)
    assert (copy / "src" / "cli.py").read_text() == "an uncommitted edit\n"
    assert (copy / "new.py").read_text() == "untracked\n"
    assert sorted(str(p.relative_to(copy)) for p in copy.rglob("*")) == [
        ".gitignore", "new.py", "src", "src/cli.py"]
