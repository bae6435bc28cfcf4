import contextlib
import copy
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia import cli, cubes
from tokenmedia.arrangements import enumerate_regions, region_adjacency
from tokenmedia.errors import ParseError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import AXIOMS, TokenSystem, apply, reduction

from conftest import dense_action, no_walks, path3, twisted_square, two_state
from test_arrangements import crossing_pair
from test_decide_routes import relabel


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(tmp_path, ts, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(ts.to_json_dict()))
    return str(path)


def lazy_square():
    """The 4-cycle medium with add:a refusing to move {b}: its graph is a
    partial cube, the system is no medium."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = dense_action(good)
    action["add:a"]["{b}"] = "{b}"
    action["rem:a"]["{a,b}"] = "{a,b}"
    return TokenSystem(good.states, good.tokens, action, good.reverse)


class TestCheck:
    def test_medium_exits_zero(self, tmp_path, capsys):
        path = write_system(tmp_path, two_state())
        code, out, _ = run(capsys, "check", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"]["medium"] is True
        assert doc["axioms"]["axioms"]["M1"]["verdict"] == "holds"

    def test_stranded_reduction_names_m2(self, tmp_path, capsys):
        stranded = reduction(path3(), ["P", "R"])
        path = write_system(tmp_path, stranded)
        code, out, err = run(capsys, "check", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["decision"]["witness"]["axiom"] == "M2"
        assert "M2" in err

    def test_bound_past_the_recursion_limit_holds(self, tmp_path, capsys):
        path = write_system(tmp_path, two_state())
        code, out, _ = run(capsys, "check", "--bound", "3000", path)
        assert code == 0
        axioms = json.loads(out)["axioms"]
        assert axioms["bound"] == 3000
        assert {a: c["verdict"] for a, c in axioms["axioms"].items()} == dict.fromkeys(AXIOMS, "holds")
        # on a non-medium the bound is echoed and changes no verdict: M3 fails
        # with a witness of a few tokens, and nothing is walked
        ts = twisted_square()
        path = write_system(tmp_path, ts, "twist.json")
        with no_walks():
            code, out, _ = run(capsys, "check", "--bound", "3000", path)
        assert code == 1
        axioms = json.loads(out)["axioms"]
        assert axioms["bound"] == 3000
        assert {a: c["verdict"] for a, c in axioms["axioms"].items()} == {
            "M1": "holds", "M2": "skipped", "M3": "fails", "M4": "skipped"}
        w = axioms["axioms"]["M3"]["witness"]
        assert len(w["message"]) < 2 * len(ts.states)
        assert apply(ts, w["state"], w["message"]) == w["state"]
        assert run(capsys, "check", "--bound", "1", path)[1] == out.replace('"bound":3000', '"bound":1')

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_exits_2(self, bound, tmp_path, capsys):
        code, out, err = run(capsys, "check", "--bound", bound, write_system(tmp_path, twisted_square()))
        assert (code, out) == (2, "")
        assert "bound must be at least 1" in err

    def test_the_input_is_read_before_the_bound_is_checked(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"states": [')
        assert run(capsys, "check", "--bound", "0", str(bad)) == (
            2, "", f"parse error: {bad}: line 1 column 13: Expecting value\n")
        good = write_system(tmp_path, two_state())
        assert run(capsys, "check", "--bound", "0", good) == (2, "", "input error: bound must be at least 1\n")

    @pytest.mark.parametrize("n", [6, 7])
    def test_default_bound_on_linear_media_reads_the_decision(self, n, tmp_path, capsys):
        ts, _ = linear_medium(n)
        path = write_system(tmp_path, ts)
        with no_walks():
            code, out, _ = run(capsys, "check", path)
        assert code == 0
        axioms = json.loads(out)["axioms"]
        assert axioms["bound"] == 2 * len(ts.tokens)
        assert {a: c["verdict"] for a, c in axioms["axioms"].items()} == dict.fromkeys(AXIOMS, "holds")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": ["A", "B"]}))
        code, _, _ = run(capsys, "check", str(bad))
        assert code == 2

    def test_tokens_not_a_list_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"states": ["a", "b"], "tokens": 3, "action": {}}))
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert out == "" and "parse error" in err


class TestRepresentAndGraph:
    def test_represent_two_state(self, tmp_path, capsys):
        path = write_system(tmp_path, two_state())
        code, out, _ = run(capsys, "represent", path, "--base", "S")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"]["S"] == []
        assert doc["beta"]["t"]["polarity"] == "add"

    def test_graph_writes_dot(self, tmp_path, capsys):
        path = write_system(tmp_path, path3())
        dot = tmp_path / "out.dot"
        code, out, _ = run(capsys, "graph", path, "--dot", str(dot))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["edges"]) == 2
        text = dot.read_text()
        assert text.count("--") == 2

    def test_non_medium_exits_one(self, tmp_path, capsys):
        stranded = reduction(path3(), ["P", "R"])
        path = write_system(tmp_path, stranded)
        code, out, _ = run(capsys, "graph", path)
        assert code == 1


class TestLinmediumPipe:
    def test_linmedium_output_feeds_graph(self, tmp_path, capsys):
        code, out, _ = run(capsys, "linmedium", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["states"]) == 6
        assert len(doc["family"]["sets"]) == 6
        # the emitted document is itself a valid token-system input
        path = tmp_path / "lin3.json"
        path.write_text(out)
        dot = tmp_path / "lin3.dot"
        code, out2, _ = run(capsys, "graph", str(path), "--dot", str(dot))
        assert code == 0
        assert dot.read_text().count("--") == 6

    def test_cap_exit_3(self, capsys):
        code, out, err = run(capsys, "linmedium", "8")
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded:") and err.count("\n") == 1

    def test_the_cap_reads_no_environment(self, capsys, monkeypatch):
        _, unset, _ = run(capsys, "linmedium", "3")
        for value in ("abc", "9"):
            monkeypatch.setenv("TOKENMEDIA_MAX_ORDER", value)
            assert run(capsys, "linmedium", "3") == (0, unset, "")
            assert run(capsys, "linmedium", "8")[:2] == (3, "")

    def test_the_cap_is_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["linmedium", "3", "--cap", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestPcube:
    def test_k3_edge_list_rejected(self, tmp_path, capsys):
        path = tmp_path / "k3.txt"
        path.write_text("a b\nb c\na c\n")
        code, out, _ = run(capsys, "pcube", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["witness"]["kind"] == "odd-cycle"

    def test_json_graph_accepted(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        }))
        code, out, _ = run(capsys, "pcube", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["partial_cube"] is True
        assert sorted(len(v) for v in doc["labels"].values()) == [0, 1, 1, 2]


    def test_edge_list_of_set_style_names(self, tmp_path, capsys):
        # names as the library gives family states and regions; the first
        # opens with "{" but no string key follows it
        path = tmp_path / "square.txt"
        path.write_text("{} {a}\n{a} {a,b}\n{a,b} {b}\n{b} {}\n")
        code, out, _ = run(capsys, "pcube", str(path))
        assert code == 0
        # "{a,b}" is the least name, so it gets the empty label
        assert json.loads(out)["labels"] == {"{a,b}": [], "{a}": ["0"], "{b}": ["1"], "{}": ["0", "1"]}

    def test_a_bare_empty_object_is_an_edge_line(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(" {}\n")
        code, out, err = run(capsys, "pcube", str(path))
        assert (code, out) == (2, "")
        assert "edge line needs exactly two vertex ids" in err

    def test_json_graph_may_open_with_blanks(self, tmp_path, capsys):
        path = tmp_path / "edge.json"
        path.write_text('\n  {\n  "vertices": ["a", "b"], "edges": [["a", "b"]]}')
        code, out, _ = run(capsys, "pcube", str(path))
        assert code == 0 and json.loads(out)["labels"] == {"a": [], "b": ["0"]}

    @pytest.mark.parametrize("text,code,found", [
        ('\n\t \r\n  {"vertices": ["a", "b"], "edges": [["a", "b"]]}', 0, {"a": [], "b": ["0"]}),
        ('{ \n\t\r\n "vertices": ["a", "b"], "edges": [["a", "b"]]}', 0, {"a": [], "b": ["0"]}),
        ("{} {a}\n", 0, {"{a}": [], "{}": ["0"]}),
        ("{}\t{a}\n{a} {a,b}\n", 0, {"{a,b}": [], "{a}": ["0"], "{}": ["0", "1"]}),
        # whitespace to str.isspace but not to JSON: read as JSON, as before
        ('\x1c{"vertices": ["a", "b"], "edges": [["a", "b"]]}', 2, "line 1 column 1: Expecting value"),
        ('{\u3000"vertices": ["a"], "edges": []}', 2,
         "line 1 column 2: Expecting property name enclosed in double quotes"),
    ])
    def test_the_document_kind_is_read_off_the_first_brace(self, tmp_path, capsys, text, code, found):
        path = tmp_path / "graph"
        path.write_text(text, encoding="utf-8")
        got, out, err = run(capsys, "pcube", str(path))
        assert got == code
        if code == 0:
            assert json.loads(out)["labels"] == found
        else:
            assert (out, err) == ("", f"parse error: {path}: {found}\n")

    def test_connected_graph_with_odd_cycle_exits_one(self, tmp_path, capsys):
        path = tmp_path / "tailed-triangle.txt"
        path.write_text("a b\nb c\nc a\nc d\nd e\n")
        code, out, _ = run(capsys, "pcube", str(path))
        assert code == 1
        assert json.loads(out)["witness"]["kind"] == "odd-cycle"


class TestIso:
    def test_isomorphic_pair(self, tmp_path, capsys):
        a = write_system(tmp_path, two_state(), "a.json")
        b = write_system(
            tmp_path,
            TokenSystem(
                ("X", "Y"),
                ("p", "q"),
                {"p": {"X": "Y", "Y": "Y"}, "q": {"Y": "X", "X": "X"}},
                {"p": "q", "q": "p"},
            ),
            "b.json",
        )
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] is True
        assert doc["alpha"]["S"] in ("X", "Y")

    def test_not_isomorphic(self, tmp_path, capsys):
        a = write_system(tmp_path, two_state(), "a.json")
        b = write_system(tmp_path, path3(), "b.json")
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 1
        assert json.loads(out) == {"isomorphic": False}


    def test_exhausted_work_budget_is_a_cap(self, tmp_path, capsys):
        ts = linear_medium(4)[0]
        a = write_system(tmp_path, ts, "a.json")
        b = write_system(tmp_path, relabel(ts, random.Random(4)), "b.json")
        assert run(capsys, "iso", a, b)[0] == 0
        with mock.patch.object(cubes, "ISO_WORK_BUDGET", 20):
            code, out, err = run(capsys, "iso", a, b)
        assert (code, out) == (3, "")
        assert err.startswith("cap exceeded:") and err.count("\n") == 1 and "Traceback" not in err

    def test_non_medium_is_an_input_error(self, tmp_path, capsys):
        lazy = write_system(tmp_path, lazy_square())
        code, out, err = run(capsys, "iso", lazy, lazy)
        assert code == 2
        assert out == "" and "input error" in err

    def test_non_medium_of_another_size_is_an_input_error(self, tmp_path, capsys):
        # a 3-cycle and its inverse: M1 and M2 hold, the system is no medium
        cycle = TokenSystem(("A", "B", "C"), ("t", "u"),
                            {"t": {"A": "B", "B": "C", "C": "A"}, "u": {"B": "A", "C": "B", "A": "C"}},
                            {"t": "u", "u": "t"})
        bad = write_system(tmp_path, cycle, "cycle.json")
        lin3 = write_system(tmp_path, linear_medium(3)[0], "lin3.json")
        for first, second in ((bad, lin3), (lin3, bad)):
            code, out, err = run(capsys, "iso", first, second)
            assert code == 2
            assert out == "" and "input error" in err


class TestArrangementCommands:
    def test_arrangement_pipeline(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({
            "lines": [{"a": "1", "b": "0", "c": "0"}, {"a": "0", "b": "1", "c": "-1/2"}],
        }))
        code, out, _ = run(capsys, "arrangement", str(path))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["regions"]) == 4
        assert len(doc["graph"]["edges"]) == 4
        assert len(doc["system"]["states"]) == 4

    def test_arrangement_dot_is_the_region_graph_with_its_edge_labels(self, tmp_path, capsys):
        # the DOT was once written from the graph re-read off the document,
        # which carries no edge labels
        arr = crossing_pair()
        path, dot = tmp_path / "lines.json", tmp_path / "out.dot"
        path.write_text(json.dumps(arr.to_json_dict()))
        code, out, _ = run(capsys, "arrangement", str(path), "--dot", str(dot))
        assert code == 0 and json.loads(out)["graph"]["edges"]
        assert dot.read_text() == cubes.to_dot(region_adjacency(arr, enumerate_regions(arr)))
        assert '"{1,2}" -- "{1}" [label="neg:2 / pos:2"];' in dot.read_text()

    def test_mosaic(self, capsys):
        code, out, _ = run(capsys, "mosaic", "triangular", "--radius", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["lines"]) == 11

    @pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
    @pytest.mark.parametrize("radius", ["13", "100000"])
    def test_mosaic_radius_over_the_cap_exits_3(self, capsys, kind, radius):
        code, out, err = run(capsys, "mosaic", kind, "--radius", radius)
        assert (code, out) == (3, "") and "cap exceeded" in err

    def test_bad_rational_exit_2(self, tmp_path, capsys):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"lines": [{"a": "x", "b": "1", "c": "0"}]}))
        code, _, _ = run(capsys, "arrangement", str(path))
        assert code == 2

    @pytest.mark.parametrize("lines", [5, None])
    def test_lines_not_a_list_exit_2(self, tmp_path, capsys, lines):
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"lines": lines}))
        code, out, err = run(capsys, "arrangement", str(path))
        assert code == 2
        assert out == "" and "parse error" in err


class TestDeterminism:
    def test_parser_is_built_once_and_reused_after_an_argparse_error(self, tmp_path, capsys):
        parser = cli.build_parser()
        assert parser is cli.build_parser()
        path = write_system(tmp_path, path3())
        fresh = run(capsys, "check", "--bound", "5", path)
        # a known command's plain argv is read without the top-level parser
        with mock.patch.object(parser, "parse_args", side_effect=AssertionError("top-level parse")):
            assert run(capsys, "check", "--bound", "5", path) == fresh
        # errors on the top-level route: an unknown command, and known commands
        # whose argv the plain reading hands to it (a bad int, an extra argument)
        for argv in (["no-such-command", path], ["check", "--bound", "x", path], ["check", path, "extra"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            capsys.readouterr()
            assert run(capsys, "check", "--bound", "5", path) == fresh

    def test_repeated_calls_leave_no_cyclic_garbage(self, tmp_path, capsys):
        # the parser is built once per process, and a job leaves no reference
        # cycle behind for the collector
        path = write_system(tmp_path, twisted_square())
        jobs = [["check", "--bound", "8", path], ["linmedium", "3"],
                ["mosaic", "triangular", "--radius", "1"]]
        for argv in jobs:
            run(capsys, *argv)
        gc.collect()
        for argv in jobs:
            run(capsys, *argv)
            assert gc.collect() == 0, argv

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = write_system(tmp_path, path3())
        _, out1, _ = run(capsys, "check", path)
        _, out2, _ = run(capsys, "check", path)
        assert out1 == out2
        _, g1, _ = run(capsys, "mosaic", "triangular", "--radius", "1")
        _, g2, _ = run(capsys, "mosaic", "triangular", "--radius", "1")
        assert g1 == g2


EDGE = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
ONE_TOKEN = {"states": ["a", "b"], "tokens": ["u"]}

# name: (argv with "IN" for the input file, its contents)
BAD_INPUTS = {
    "check-not-json": (["check", "IN"], "{not json"),
    "check-no-tokens": (["check", "IN"], {"states": ["A", "B"]}),
    "check-tokens-not-a-list": (["check", "IN"], {"states": ["a", "b"], "tokens": 3, "action": {}}),
    "check-non-medium": (["check", "IN"], reduction(path3(), ["P", "R"])),
    "graph-non-medium": (["graph", "IN"], reduction(path3(), ["P", "R"])),
    "pcube-labels-not-an-object": (["pcube", "IN"], {**EDGE, "labels": [1]}),
    "pcube-labels-miss-a-vertex": (["pcube", "IN"], {**EDGE, "labels": {"a": []}}),
    "pcube-k3": (["pcube", "IN"], "a b\nb c\na c\n"),
    "iso-non-medium": (["iso", "IN", "IN"], lazy_square()),
    "linmedium-over-cap": (["linmedium", "8"], None),
    "arrangement-bad-rational": (["arrangement", "IN"], {"lines": [{"a": "x", "b": "1", "c": "0"}]}),
    "arrangement-lines-a-number": (["arrangement", "IN"], {"lines": 5}),
    "arrangement-lines-null": (["arrangement", "IN"], {"lines": None}),
    # strings where JSON lists are required: parse errors (exit 2), see PARSE_ERRORS
    "check-states-a-string": (["check", "IN"], {**two_state().to_json_dict(), "states": "ST"}),
    "pcube-vertices-a-string": (["pcube", "IN"], {**EDGE, "vertices": "ab"}),
    "pcube-edges-an-object": (["pcube", "IN"], {**EDGE, "edges": {"ab": 0}}),
    "pcube-edge-a-string": (["pcube", "IN"], {**EDGE, "edges": ["ab"]}),
    "pcube-label-a-string": (["pcube", "IN"], {**EDGE, "labels": {"a": ["x"], "b": "xy"}}),
    # malformed numbers and rows: parse errors (exit 2), see PARSE_ERRORS
    "check-action-row-a-list": (["check", "IN"], {**ONE_TOKEN, "action": {"u": ["x"]}}),
    "represent-action-row-a-string": (["represent", "IN"], {**ONE_TOKEN, "action": {"u": "ab"}}),
    "graph-action-row-pairs": (["graph", "IN"], {**ONE_TOKEN, "action": {"u": ["ab", "ba"]}}),
    "check-action-entry-a-list": (["check", "IN"], {**ONE_TOKEN, "action": {"u": {"a": ["b"], "b": "b"}}}),
    "iso-long-integer": (["iso", "IN", "IN"], '{"states": [' + "7" * 5000 + "]}"),
    "check-long-integer": (["check", "IN"], '{"states": ["a", "b"], "bound": ' + "1" * 4301 + "}"),
    "pcube-long-integer": (["pcube", "IN"], '{"vertices": [' + "9" * 5000 + '], "edges": []}'),
    "arrangement-exponent-past-digit-limit": (
        ["arrangement", "IN"], {"lines": [{"a": "1e5000", "b": "1", "c": "0"}]}),
    "arrangement-exponent-far-past-digit-limit": (
        ["arrangement", "IN"], {"lines": [{"a": "1", "b": "1e1000000", "c": "0"}]}),
    "arrangement-denominator-past-digit-limit": (
        ["arrangement", "IN"], {"lines": [{"a": "1", "b": "1", "c": "1e-4300"}]}),
    "check-nesting-too-deep": (["check", "IN"], "[" * 100_000),
    # input that is not UTF-8: a valid system followed by the byte 0xff, an edge list holding it
    "check-not-utf8": (["check", "IN"], json.dumps(two_state().to_json_dict()).encode() + b"\xff"),
    "pcube-not-utf8": (["pcube", "IN"], b"a b\nb \xff\n"),
    # every literal fits the digit limit, the crossing's witness does not: a cap (exit 3)
    "arrangement-witness-past-digit-limit": (
        ["arrangement", "IN"],
        {"lines": [{"a": "1e2500", "b": "3", "c": "1"}, {"a": "1", "b": "7e2500", "c": "2"}]}),
}
PARSE_ERRORS = ["check-states-a-string", "pcube-vertices-a-string", "pcube-edges-an-object",
                "pcube-edge-a-string", "pcube-label-a-string",
                "check-action-row-a-list", "represent-action-row-a-string", "graph-action-row-pairs",
                "check-action-entry-a-list",
                "iso-long-integer", "check-long-integer", "pcube-long-integer",
                "arrangement-exponent-past-digit-limit", "arrangement-exponent-far-past-digit-limit",
                "arrangement-denominator-past-digit-limit", "check-nesting-too-deep",
                "check-not-utf8", "pcube-not-utf8"]


def run_bad_input(name, tmp_path, capsys):
    argv, content = BAD_INPUTS[name]
    path = tmp_path / "input"
    if isinstance(content, TokenSystem):
        content = content.to_json_dict()
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    return run(capsys, *(str(path) if a == "IN" else a for a in argv))


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_gets_a_documented_exit_and_no_traceback(name, tmp_path, capsys):
    code, out, err = run_bad_input(name, tmp_path, capsys)
    assert code in (1, 2, 3)
    if code != 1:
        assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("name", PARSE_ERRORS)
def test_malformed_rows_and_oversized_numbers_are_parse_errors(name, tmp_path, capsys):
    code, out, err = run_bad_input(name, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("parse error:")


@pytest.mark.parametrize("name", ["check-not-utf8", "pcube-not-utf8"])
def test_input_that_is_not_utf8_names_its_path(name, tmp_path, capsys):
    code, out, err = run_bad_input(name, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {tmp_path / 'input'}: ") and "utf-8" in err


def test_a_directory_is_a_parse_error_naming_it(tmp_path, capsys):
    # open() refuses a directory with this message; the file is read on a
    # descriptor from os.open, which opens a directory, so it is rebuilt there
    message = f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
    with pytest.raises(ParseError) as info:
        cli._read_text(str(tmp_path))
    assert str(info.value) == message
    assert run(capsys, "check", str(tmp_path)) == (2, "", f"parse error: {message}\n")


def test_witness_past_the_digit_limit_is_a_cap(tmp_path, capsys):
    code, out, err = run_bad_input("arrangement-witness-past-digit-limit", tmp_path, capsys)
    assert (code, out) == (3, "")
    assert err.startswith("cap exceeded:") and "digits" in err
    # with --dot too: every witness is formatted before a byte is written, so no DOT file
    dot = tmp_path / "regions.dot"
    code, out, err = run(capsys, "arrangement", str(tmp_path / "input"), "--dot", str(dot))
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("cap exceeded:") and "digits" in err
    assert not dot.exists()


# --- direct dispatch ---------------------------------------------------------------

DISPATCH_ARGV = [
    [], ["-h"], ["--help"], ["nope"],
    ["check"], ["check", "IN", "extra"], ["check", "--unknown", "IN"],
    ["check", "--bou", "4", "IN"], ["check", "--bound=3", "IN"], ["check", "--", "IN"],
    ["check", "--he"], ["mosaic", "hex", "--radius", "1"], ["linmedium", "x"],
    # plain forms: options before and after positionals, and "-" for stdin
    ["check", "--bound", "8", "IN"], ["check", "IN", "--bound", "8"], ["check", "-"],
    ["represent", "--base", "Q", "-"], ["iso", "-", "IN"], ["mosaic", "--radius", "1", "triangular"],
]


def outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_direct_dispatch_matches_the_top_level_parser(argv, tmp_path, capsys, monkeypatch):
    path = write_system(tmp_path, path3())
    argv = [path if a == "IN" else a for a in argv]
    outcomes = []
    for call in (lambda a: cli._run(cli.build_parser().parse_args(a)), cli.main):
        with open(path) as stdin:  # a file, with the descriptor "-" is read from
            monkeypatch.setattr(sys, "stdin", stdin)
            outcomes.append(outcome(capsys, call, argv))
    assert outcomes[0] == outcomes[1]
    if "-" in argv:  # the system on stdin is read, not refused
        assert outcomes[0][0] == 0


# every word the differential test below draws from, besides each command's own
# option strings and choices: values, and the forms the plain reading hands to argparse
EDGE_WORDS = ["IN", "8", "2", "0", "x", "-", "", "-5", "+8", " 8", "8_0", "--bound=8", "--bo",
              "--", "-h", "--radius", "hex", 8]  # 8: a member that is no string


def plain_form(command, argv) -> bool:
    """Whether ``argv`` has the form that ``cli._plain_args``'s docstring says it reads."""
    options = {s for action in command._actions for s in action.option_strings} - {"-h", "--help"}
    if not all(isinstance(word, str) for word in argv):
        return False
    seen, words = set(), iter(argv)
    for word in words:
        if word in options:
            value = next(words, None)
            if word in seen or value is None or value.startswith("-"):
                return False
            seen.add(word)
        elif word.startswith("-") and word != "-":
            return False
    return True


def argparse_reading(command, argv):
    """``command.parse_known_args(argv)``'s namespace, or None for a usage error or extras."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = command.parse_known_args(argv)
        except SystemExit:
            return None
    return None if extra else args


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_plain_reading_matches_the_subparser(data):
    name, command = data.draw(st.sampled_from(sorted(cli.build_parser().commands.items())))
    options = [s for action in command._actions for s in action.option_strings]
    values = ["IN", "8", "2", "-", *(c for action in command._actions for c in action.choices or ())]

    def value(action):  # mostly what the action accepts
        return data.draw(st.sampled_from([*action.choices, "hex"] if action.choices else
                                         ["8", "2", "x"] if action.type is int else ["IN", "-", "8"]))

    # a skeleton: one value per positional, and each option with a value, up to twice, in any order
    chunks = [[value(action)] if not action.option_strings else
              [data.draw(st.sampled_from(action.option_strings)), value(action)]
              for action in command._actions if action.nargs is None
              for _ in range(1 if not action.option_strings else data.draw(st.integers(int(action.required), 2)))]
    argv = [word for chunk in data.draw(st.permutations(chunks)) for word in chunk]
    # then up to two edits: a word of any kind put in, or a word taken out
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(argv)))
        if argv and data.draw(st.booleans()):
            del argv[min(at, len(argv) - 1)]
        else:
            argv.insert(at, data.draw(st.sampled_from(options + values + EDGE_WORDS)))
    got = cli._plain_args(command, argv)
    # argparse is asked about plain forms only (a member that is no string makes it raise
    # TypeError); for every other form the plain reading must return None
    expected = argparse_reading(command, argv) if plain_form(command, argv) else None
    if got is not None:
        assert expected is not None and vars(got) == vars(expected), (name, argv)
    else:
        assert expected is None, (name, argv)


@pytest.mark.parametrize("argv", [
    ["check", "--bound", "8", "IN"], ["represent", "IN"], ["graph", "IN"], ["pcube", "EDGES"],
    ["iso", "IN", "IN2"], ["linmedium", "4"], ["arrangement", "LINES"],
    ["mosaic", "triangular", "--radius", "2"],
], ids=lambda argv: argv[0])
def test_benchmark_job_shapes_take_the_plain_reading(argv, tmp_path, capsys):
    # one argv of each benchmark job's shape, read with every argparse entry point refused
    files = {"IN": write_system(tmp_path, path3()),
             "IN2": write_system(tmp_path, relabel(path3(), random.Random(2)), "other.json"),
             "EDGES": tmp_path / "g.edges", "LINES": tmp_path / "lines.json"}
    files["EDGES"].write_text("a b\nb c\n")
    files["LINES"].write_text(json.dumps({"lines": [{"a": "1", "b": "0", "c": "0"},
                                                    {"a": "0", "b": "1", "c": "0"}]}))
    argv = [str(files.get(word, word)) for word in argv]
    parser = cli.build_parser()
    expected = outcome(capsys, lambda a: cli._run(parser.parse_args(a)), argv)
    with contextlib.ExitStack() as stack:
        for command in [*parser.commands.values(), parser]:
            refused = "parse_args" if command is parser else "parse_known_args"
            stack.enter_context(mock.patch.object(command, refused, side_effect=AssertionError(refused)))
        assert outcome(capsys, cli.main, argv) == expected
    assert expected[0] in (0, 1)


def readme_usage() -> dict[str, set[str]]:
    """Each command of the README's usage block, with the options its line lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in text.split("```sh\n") if b.startswith("tokenmedia check "))
    usage = {}
    for line in block.split("```")[0].splitlines():
        words = line.split("#")[0].split()
        usage[words[1]] = {w.strip("[]") for w in words if w.lstrip("[").startswith("--")}
    return usage


def test_readme_usage_lists_exactly_the_options_of_each_command():
    accepted = {name: {o for action in command._actions for o in action.option_strings} - {"-h", "--help"}
                for name, command in cli.build_parser().commands.items()}
    assert readme_usage() == accepted


# --- output failures ---------------------------------------------------------------


def dot_argv(command, tmp_path):
    if command == "graph":
        return ["graph", write_system(tmp_path, path3())]
    if command == "pcube":
        path = tmp_path / "g.edges"
        path.write_text("a b\nb c\n")
        return ["pcube", str(path)]
    if command == "arrangement":
        path = tmp_path / "lines.json"
        path.write_text(json.dumps({"lines": [{"a": "1", "b": "0", "c": "0"}, {"a": "0", "b": "1", "c": "0"}]}))
        return ["arrangement", str(path)]
    return ["linmedium", "3"]


@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("command", ["graph", "pcube", "linmedium", "arrangement"])
def test_unwritable_dot_path_exits_2_with_one_line(command, target, tmp_path, capsys):
    dot = tmp_path / "missing" / "x.dot" if target == "missing-directory" else tmp_path
    code, out, err = run(capsys, *dot_argv(command, tmp_path), "--dot", str(dot))
    assert code == 2
    json.loads(out)  # the document was written before the DOT file was tried
    assert err.startswith(f"cannot write {dot}: ") and err.count("\n") == 1


def test_dot_text_that_utf8_cannot_encode_exits_2_with_one_line(tmp_path, capsys):
    # JSON input may name a state by a lone surrogate, which stdout escapes and UTF-8 cannot hold
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(two_state().to_json_dict()).replace('"S"', '"\\ud800"'))
    dot = tmp_path / "out.dot"
    code, out, err = run(capsys, "graph", str(path), "--dot", str(dot))
    assert code == 2
    assert "\\ud800" in out
    assert err.startswith(f"cannot write {dot}: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["3", "6"])  # at 3 the flush meets the closed pipe, at 6 a write does
def test_closed_stdout_ends_without_a_traceback(n):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte
    try:
        proc = subprocess.run([sys.executable, "-m", "tokenmedia.cli", "linmedium", n],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


def chain_moves_document(n):
    """The path medium on n states as a sparse ``"moves"`` document."""
    names = [f"s{i}" for i in range(n)]
    tokens, moves = [], {}
    for i in range(n - 1):
        tokens += [{"id": f"u{i}", "reverse": f"d{i}"}, {"id": f"d{i}", "reverse": f"u{i}"}]
        moves[f"u{i}"], moves[f"d{i}"] = {names[i]: names[i + 1]}, {names[i + 1]: names[i]}
    return {"states": names, "tokens": tokens, "moves": moves}


def limit_address_space():
    """Run in the child only: its address space is capped at 300 MB."""
    resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))


def tangents_document(n):
    """The tangents y = 2t*x - t*t to the parabola y = x*x at t = 0, ..., n - 1: every
    two cross, and no three meet, so they cut the plane into 1 + n + n(n-1)/2 regions."""
    return {"lines": [{"a": str(2 * t), "b": "-1", "c": str(-t * t)} for t in range(n)]}


def run_limited(argv, tmp_path):
    """The exit code, stdout and stderr of the CLI on ``argv`` in a child process capped at
    300 MB, with ``CHAIN`` and ``TANGENTS`` naming the documents of 4,000 and 260 states and lines."""
    inputs = {"CHAIN": chain_moves_document(4000), "TANGENTS": tangents_document(260)}
    for name, doc in inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    env = {"PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "tokenmedia.cli",
                           *(str(tmp_path / f"{a}.json") if a in inputs else a for a in argv)],
                          capture_output=True, env=env, preexec_fn=limit_address_space, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [["arrangement", "TANGENTS"], ["check", "CHAIN"]])
def test_running_out_of_memory_is_a_cap_with_one_line(argv, tmp_path):
    # each needs well over 300 MB: the 260 tangents peaked at 566 MB with no limit (34,191
    # regions, 258 MB printed), and the 4,000-state chain's report lists Theta(S^2) label names
    assert run_limited(argv, tmp_path) == (3, b"", b"cap exceeded: out of memory\n")


def test_a_mosaic_printed_as_its_moves_runs_under_the_same_limit(tmp_path):
    # its dense action table took 259.8 MB of stdout and 524 MB, which ran out here;
    # the moves take 12.8 MB and the run about 51 MB
    code, out, err = run_limited(["mosaic", "triangular", "--radius", "12"], tmp_path)
    assert (code, err) == (0, b"")
    doc = json.loads(out)
    assert len(doc["system"]["states"]) == 3192 and "action" not in doc["system"]


def test_broken_pipe_leaves_a_stdout_without_a_descriptor_alone(monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.main(["linmedium", "3"]) == 2


# --- fuzzing -----------------------------------------------------------------------

FUZZ_COMMANDS = {"check": 1, "represent": 1, "graph": 1, "iso": 2, "pcube": 1}
# option pairs that each command may accept, and single tokens that break the parse
FUZZ_TOKENS = [("--bound", "3"), ("--bound", "0"), ("--bo", "-1"), ("--base", "P"), ("--base", "x"),
               ("--dot", "DOT"), ("--dot", "missing/x.dot"), ("--max-vertices", "99"),
               ("--max-vertices", "0"), ("--bound=99",), ("--",), ("IN",), ("extra",), ("-h",)]
NAMES = ["", "P", "Q", "R", "f1", "b1", "f2", "b2", "x"]
KEYS = NAMES + ["states", "tokens", "action", "moves", "reverse", "id", "vertices", "edges", "labels"]


def json_containers(kids):
    return st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids, max_size=3)


JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from(NAMES),
                           json_containers, max_leaves=5)


def fuzz_bases():
    dense = path3().to_json_dict()
    sparse = {"states": dense["states"], "tokens": dense["tokens"],
              "moves": {t: {s: v for s, v in row.items() if s != v} for t, row in dense["action"].items()}}
    graph = {"vertices": ["P", "Q", "R"], "edges": [["P", "Q"], ["Q", "R"]],
             "labels": {"P": [], "Q": ["f1"], "R": ["f1", "f2"]}}
    return [dense, sparse, lazy_square().to_json_dict(), graph, "P Q\nQ R\nR P\n"]


BASES = fuzz_bases()


@st.composite
def documents(draw):
    """A base document with up to three of its values replaced or deleted,
    as JSON text, sometimes cut short."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    if isinstance(doc, str):
        return doc
    for _ in range(draw(st.integers(0, 3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            doc = draw(JSON_VALUES) if draw(st.integers(0, 9)) == 0 else doc
        elif draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON_VALUES)
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text)))] if draw(st.integers(0, 9)) == 0 else text


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(FUZZ_COMMANDS)), first=documents(), second=documents(),
       options=st.lists(st.sampled_from(FUZZ_TOKENS), max_size=3), data=st.data())
def test_fuzzed_arguments_and_documents_end_with_a_documented_exit(
        tmp_path_factory, command, first, second, options, data):
    directory = tmp_path_factory.mktemp("fuzz")
    files = {"IN": directory / "first", "IN2": directory / "second", "DOT": directory / "out.dot"}
    files["IN"].write_text(first)
    files["IN2"].write_text(second)
    args = ["IN", "IN2"][:FUZZ_COMMANDS[command]] + [a for option in options for a in option]
    if data.draw(st.integers(0, 3)) == 0:
        args = data.draw(st.permutations(args))
    argv = [command] + [str(files.get(a, a)) for a in args]
    err = io.StringIO()
    # a stray --dot value is written inside the example's own directory
    with contextlib.chdir(directory), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
