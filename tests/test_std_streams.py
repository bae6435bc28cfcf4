"""The CLI's standard streams in child processes, where each is a real descriptor.

``-`` is read on stdin's descriptor by the route a path takes: strict UTF-8,
newlines translated, mapped only at offset 0, and a closed stdin is a parse
error.  A stdout that cannot be written exits 2 with one ``cannot write
stdout:`` line, and a stderr that is closed or cannot be written drops its
line and leaves stdout and the exit code as they were.  No case may leave a
traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tokenmedia import cli
from tokenmedia.arrangements import arrangement_medium, mosaic_window

from conftest import path3

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_child(argv, closed=(), command=("-m", "tokenmedia.cli"), **streams):
    """The exit code, stdout and stderr of ``python COMMAND ARGV`` with this checkout's
    package, its descriptors in ``closed`` closed before it starts; stdout and stderr
    are captured unless ``streams`` gives them."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    proc = subprocess.run([sys.executable, *command, *argv], env={"PYTHONPATH": SRC}, timeout=120,
                          preexec_fn=lambda: [os.close(fd) for fd in closed], **streams)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def triangular_12(tmp_path_factory):
    """The triangular radius-12 region medium as a 4.3 MB ``"moves"`` document, one
    member a line, with LF and with CRLF line ends, by name."""
    ts = arrangement_medium(mosaic_window("triangular", 12))
    text = json.dumps({"states": list(ts.states),
                       "tokens": [{"id": t, "reverse": ts.reverse[t]} for t in ts.tokens],
                       "moves": {t: dict(ts.moves(t)) for t in ts.tokens}}, indent=0)
    directory = tmp_path_factory.mktemp("triangular")
    paths = {"lf": directory / "lf.json", "crlf": directory / "crlf.json"}
    paths["lf"].write_text(text, newline="\n")
    paths["crlf"].write_text(text, newline="\r\n")
    return paths


@pytest.mark.parametrize("ending", ["lf", "crlf"])
def test_stdin_from_a_file_or_a_pipe_prints_what_the_path_prints(triangular_12, ending):
    path = triangular_12[ending]
    assert path.stat().st_size > 4_000_000 and (b"\r\n" in path.read_bytes()) == (ending == "crlf")
    by_path = run_child(["check", str(path)])
    with open(path, "rb") as stdin:  # check - < path, mapped
        redirected = run_child(["check", "-"], stdin=stdin)
    cat = subprocess.Popen(["cat", str(path)], stdout=subprocess.PIPE)  # cat path | check -
    try:
        piped = run_child(["check", "-"], stdin=cat.stdout)
    finally:
        cat.stdout.close()
        cat.wait()
    assert by_path[0] == 0 and by_path[2] == b"" and json.loads(by_path[1])["decision"]["medium"]
    assert redirected == by_path and piped == by_path


@pytest.mark.parametrize("size", [1, cli.MAP_MIN_BYTES])
def test_stdin_that_is_not_utf8_is_a_parse_error_naming_it(size, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"a": "\xe9"}'.ljust(size))
    with open(path, "rb") as stdin:
        code, out, err = run_child(["represent", "-"], stdin=stdin)
    assert (code, out) == (2, b"")
    assert err.startswith(b"parse error: -: 'utf-8' codec can't decode byte 0xe9") and err.count(b"\n") == 1


def test_closed_stdin_is_a_parse_error():
    code, out, err = run_child(["check", "-"], closed=[0])
    assert (code, out, err) == (2, b"", b"parse error: cannot read -: [Errno 9] Bad file descriptor\n")


def test_stdin_past_its_start_is_read_from_there(tmp_path):
    # mapped, the whole list would be read: a document, not a parse error
    path = tmp_path / "list.json"
    path.write_bytes(b'[{"a": 1}]'.ljust(cli.MAP_MIN_BYTES))
    with open(path, "rb") as stdin:
        stdin.seek(1)
        code, out, err = run_child(["check", "-"], stdin=stdin)
    assert (code, out, err) == (2, b"", b"parse error: -: line 1 column 9: Extra data\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("n", ["3", "6"])  # at 3 the flush meets the full device, at 6 a write does
def test_a_full_stdout_exits_2_with_one_line(n):
    with open("/dev/full", "wb") as full:
        code, _, err = run_child(["linmedium", n], stdout=full)
    assert (code, err) == (2, b"cannot write stdout: No space left on device\n")


def test_a_closed_stdout_exits_2_with_one_line(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(path3().to_json_dict()))
    assert run_child(["check", str(path)], closed=[1]) == (2, b"", b"cannot write stdout: Bad file descriptor\n")


@pytest.mark.parametrize("argv, code", [(["check", "missing.json"], 2), (["linmedium", "9"], 3)])
def test_a_closed_stderr_leaves_stdout_empty_and_the_exit_code(argv, code, tmp_path):
    assert run_child(argv, closed=[2], cwd=tmp_path)[:2] == (code, b"")


@pytest.mark.parametrize("argv, code", [(["check", "missing.json"], 2), (["linmedium", "9"], 3)])
def test_a_stderr_that_cannot_be_written_leaves_the_exit_code(argv, code, tmp_path):
    # descriptor 2 closed after start, where sys.stderr still holds it
    script = "import os, sys; os.close(2); from tokenmedia.cli import main; sys.exit(main(sys.argv[1:]))"
    assert run_child(argv, command=("-c", script), cwd=tmp_path)[:2] == (code, b"")
    read_end, write_end = os.pipe()
    os.close(read_end)  # a stderr whose reader is gone
    try:
        assert run_child(argv, stderr=write_end, cwd=tmp_path)[:2] == (code, b"")
    finally:
        os.close(write_end)
