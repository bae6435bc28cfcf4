"""``cli._read_text`` against text mode, the route it replaced.

A regular file of at least ``MAP_MIN_BYTES`` is decoded straight from a
read-only map and a smaller one from one binary read; both must give the
text that ``open(path, encoding="utf-8").read()`` gives, newlines
translated, and the same ``ParseError`` when the bytes are not UTF-8 or
the text is not JSON.
"""

import json
import mmap
import os
import sys
import threading
from unittest import mock

import pytest

from tokenmedia import cli
from tokenmedia.errors import ParseError

SIZE = cli.MAP_MIN_BYTES


def text_mode_read(path):
    """The former ``_read_text`` on a file: text mode, universal newlines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def error_text(call, *args):
    with pytest.raises(ParseError) as info:
        call(*args)
    return str(info.value)


def spy_on_maps():
    return mock.patch.object(cli.mmap, "mmap", side_effect=mmap.mmap)


def padded(doc, size):
    """The JSON text of doc, in UTF-8, padded with trailing spaces to size bytes."""
    data = json.dumps(doc, ensure_ascii=False).encode()
    assert len(data) <= size
    return data + b" " * (size - len(data))


def long_lines(count, newline):
    """A JSON object of count + 3 lines with newline between them, whose last
    member has no value: a parse error at the brace on its last line."""
    lines = ["{"] + [f'  "k{i}": "é{i}",' for i in range(count)] + ['  "bad": ', "}"]
    return newline.join(lines).encode()


@pytest.mark.parametrize("size", [SIZE - 1, SIZE, SIZE + 1])
def test_sizes_around_the_mapping_size_read_the_same_document(size, tmp_path):
    doc = {"states": ["é", "\U0001f600", "a\\b"], "pad": "x" * (SIZE // 2)}
    path = tmp_path / "doc.json"
    path.write_bytes(padded(doc, size))
    with spy_on_maps() as mapped:
        assert cli._read_text(str(path)) == text_mode_read(path)
        assert cli._read_json(str(path)) == doc
    assert mapped.call_count == (2 if size >= SIZE else 0)


@pytest.mark.parametrize("newline", ["\r\n", "\r", "\n", "\r\n\r"])
def test_newlines_of_a_mapped_file_give_the_text_mode_error(newline, tmp_path):
    path = tmp_path / "lines.json"
    path.write_bytes(long_lines(SIZE // 12, newline))
    assert path.stat().st_size >= SIZE
    with spy_on_maps() as mapped:
        message = error_text(cli._read_json, str(path))
    assert mapped.call_count == 1
    assert message == error_text(cli._parse_json, text_mode_read(path), str(path))
    last = SIZE // 12 + 3 if newline != "\r\n\r" else 2 * (SIZE // 12) + 5  # each "\r\n\r" is two
    assert f"line {last} column 1:" in message


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xf0\x9f\x98"])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_invalid_utf8_in_a_mapped_file_gives_the_text_mode_error(bad, where, tmp_path):
    body = padded({"pad": "é" * (SIZE // 4)}, SIZE + 10)
    at = {"start": 1, "middle": len(body) // 2 + 1, "end": len(body)}[where]
    path = tmp_path / "bad.json"
    path.write_bytes(body[:at] + bad + body[at:])
    with spy_on_maps() as mapped:
        message = error_text(cli._read_text, str(path))
    assert mapped.call_count == 1
    assert message == error_text(text_mode_read, path)
    assert message.startswith(f"{path}: 'utf-8' codec can't decode")


def test_empty_file_is_read(tmp_path):
    path = tmp_path / "empty.json"
    path.write_bytes(b"")
    assert cli._read_text(str(path)) == ""
    assert error_text(cli._read_json, str(path)) == error_text(cli._parse_json, "", str(path))


def test_fifo_is_read(tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    data = padded({"pad": "é" * SIZE}, 3 * SIZE)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with spy_on_maps() as mapped:
        assert cli._read_text(str(path)) == data.decode()
    writer.join(5)
    assert not writer.is_alive() and mapped.call_count == 0


def test_dash_reads_stdin_as_it_is(tmp_path, monkeypatch):
    # as a file: newlines translated, mapped from offset 0, and its descriptor left open
    text = '{"a":\r\n 1}' + " " * SIZE
    path = tmp_path / "stdin.json"
    path.write_bytes(text.encode())
    with open(path) as stdin, spy_on_maps() as mapped:
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli._read_text("-") == text.replace("\r\n", "\n")
        os.fstat(stdin.fileno())
    assert mapped.call_count == 1


@pytest.mark.parametrize("error", [OSError(19, "No such device"), ValueError("cannot mmap")])
def test_a_file_that_cannot_be_mapped_is_read(error, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(long_lines(SIZE // 12, "\r\n"))
    with mock.patch.object(cli.mmap, "mmap", side_effect=error) as mapped:
        assert cli._read_text(str(path)) == text_mode_read(path)
    assert mapped.call_count == 1


def test_a_missing_file_is_a_parse_error(tmp_path):
    path = tmp_path / "missing.json"
    assert error_text(cli._read_text, str(path)).startswith(f"cannot read {path}: ")


def test_dash_past_the_start_of_stdin_is_read_from_there_not_mapped(tmp_path, monkeypatch):
    path = tmp_path / "stdin.json"
    path.write_bytes(b'[{"a": 1}]'.ljust(SIZE))
    with open(path, "rb") as stdin, spy_on_maps() as mapped:
        stdin.seek(1)
        monkeypatch.setattr(sys, "stdin", stdin)
        assert error_text(cli._read_json, "-") == "-: line 1 column 9: Extra data"
    assert mapped.call_count == 0
