"""Command-line surface: verification, conversion, construction, export.

Machine-readable JSON goes to stdout in the layout of the stdlib's
``json.dumps(doc, sort_keys=True, indent=2)``, so identical inputs give
byte-identical outputs.  ``write_json`` writes it in one pass, joins each
container once from its pieces with separators built once per depth, lays out a
list of string lists or of dicts of one key set by column, and a system's dense
``action`` table from its moves.  Diagnostics go to stderr, or nowhere.
Exit codes: 0 success/true, 1 semantic-false, 2 parse error or output that
cannot be written (an unwritable ``--dot`` path or stdout, quietly when its
reader closed it), 3 resource cap or out of memory.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import mmap
import os
import re
import stat
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from . import arrangements as arr_mod
from . import cubes, linorders, represent, tokens
from .errors import CapError, InputError, ParseError

#: Input files from this size up are mapped, not read: at 64 KiB a read
#: took 16 us against 23 us for a map, at 256 KiB 166 us against 35 us.
MAP_MIN_BYTES = 256 * 1024
_READ_BYTES = 64 * 1024  # per read of anything else


def _read_text(path: str) -> str:
    """The text of the file at ``path``, or of stdin for ``-``, with newlines
    translated as text mode does.  Either is read on one descriptor, stdin's
    left open: a regular file of at least ``MAP_MIN_BYTES`` at offset 0 is
    decoded straight from a read-only map, and anything else, or a file that
    cannot be mapped, from reads until end of file, so its bytes are copied
    only into the text.  Truncating a mapped file while it is read ends the
    process with SIGBUS."""
    try:
        fd = os.open(path, os.O_RDONLY) if path != "-" else sys.stdin.fileno() if sys.stdin else 0
        try:
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):  # which open() refuses and os.open does not
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            mapped = None
            if stat.S_ISREG(info.st_mode) and info.st_size >= MAP_MIN_BYTES:
                try:  # from offset 0 only, which a path always has and stdin may not
                    mapped = None if os.lseek(fd, 0, os.SEEK_CUR) else mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):  # a file system without maps, or a file emptied since
                    pass
            if mapped is None:
                chunks = []
                while chunk := os.read(fd, max(info.st_size + 1, _READ_BYTES)):
                    chunks.append(chunk)
                text = str(b"".join(chunks), "utf-8")
            else:
                with mapped:
                    text = str(mapped, "utf-8")
        finally:
            if path != "-":
                os.close(fd)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past the digit limit, or deep nesting
        raise ParseError(f"{path}: {exc}") from None


def _read_json(path: str):
    return _parse_json(_read_text(path), path)


@functools.cache
def _layout(depth: int) -> tuple[str, str, str, str, str]:
    """Per depth: the openings of a list and a dict, the separator, and their closings."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    return "[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}"


def _pieces(obj, depth: int) -> list:
    """The text of ``obj`` nested ``depth`` containers deep, as ``json.dumps(obj,
    sort_keys=True, indent=2)`` lays it out, as a flat list of pieces: each nested
    container one piece, joined once, and the members of a list laid out by ``_column`` one.
    Strings take the stdlib's C escaping, and ints, booleans and None are written
    as ``json.dumps`` writes them; floats and anything else go through it."""
    if isinstance(obj, dict):
        _, opening, sep, _, closing = _layout(depth)
        out = []
        for key, value in sorted(obj.items()):
            out += sep, _encode_str(key), ": ", (
                _encode_str(value) if type(value) is str else "".join(_pieces(value, depth + 1)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return ["[]"]
        opening, _, sep, closing, _ = _layout(depth)
        try:  # a list of strings here, saving a call, and any other through _column
            texts = map(_encode_str, obj) if isinstance(obj[0], str) else _column(obj, depth + 1)
            return [opening, sep.join(texts), closing]
        except TypeError:  # members of another kind, or of mixed kinds
            out = []
            for value in obj:
                out += sep, _encode_str(value) if type(value) is str else "".join(_pieces(value, depth + 1))
    elif type(obj) is tokens.TokenSystem:
        _, opening, sep, _, closing = _layout(depth)
        out = _action_chunks(obj, sep, depth + 1)
    elif obj is None or obj is True or obj is False:
        return ["null" if obj is None else "true" if obj else "false"]
    else:
        return [_encode_str(obj) if isinstance(obj, str) else
                int.__repr__(obj) if isinstance(obj, int) else json.dumps(obj)]
    if not out:
        return ["{}"]
    out[0] = opening
    out.append(closing)
    return out


def _column(values, depth: int):
    """The texts of the nonempty list ``values`` nested ``depth`` deep, if all strings, all
    lists of strings or all dicts of one key set whose values by key are such columns: one map
    or join per column, one template per dict.  Else TypeError, at the latest in the join."""
    first = values[0]
    if isinstance(first, str):
        return map(_encode_str, values)
    kinds = set(map(type, values))
    if kinds == {list}:
        opening, _, sep, closing, _ = _layout(depth)
        return [opening + sep.join(map(_encode_str, v)) + closing if v else "[]" for v in values]
    if kinds == {dict} and first and all(map(first.keys().__eq__, map(dict.keys, values))):
        keys = sorted(first)
        _, opening, sep, _, closing = _layout(depth)
        row = opening + sep.join(_encode_str(k).replace("%", "%%") + ": %s" for k in keys) + closing
        return map(row.__mod__, zip(*[_column([d[k] for d in values], depth + 1) for k in keys]))
    raise TypeError("members of no one column kind")


def _action_chunks(ts: tokens.TokenSystem, sep: str, depth: int) -> list:
    """The members of a system's dense action table, as ``_pieces`` lays out those of
    ``ts.to_json_dict()["action"]``, with their separator ``sep`` and rows nested
    ``depth`` deep, from the move index: the state names are escaped and ordered
    once, and each row is a copy of the fixed entries with its moves put in, joined once."""
    states = ts.states
    names = list(map(_encode_str, states))
    order = sorted(range(len(states)), key=states.__getitem__)
    place = sorted(range(len(states)), key=order.__getitem__)  # each state's rank in the order
    keyed = [name + ": " for name in names]
    fixed = [keyed[i] + names[i] for i in order]
    _, head, row_sep, _, tail = _layout(depth)
    out = []
    for t, ms in sorted(ts._index_moves.items()):
        row = fixed.copy()
        for i, j in ms:
            row[place[i]] = keyed[i] + names[j]
        out += sep, _encode_str(t), ": ", head, row_sep.join(row), tail
    return out


def write_json(doc, fh) -> None:
    """Write ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` to the text file ``fh``
    without building the whole text: the top level's pieces go to ``writelines``, and
    each nested container is joined once, with the separators built once per depth.
    A dict key that is not a string raises TypeError."""
    pieces = _pieces(doc, 0)
    pieces.append("\n")
    fh.writelines(pieces)


def _emit(doc) -> None:
    if sys.stdout is None:  # closed before the process started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    write_json(doc, sys.stdout)


def _warn(line: str, code: int) -> int:
    """Print one diagnostic line on stderr, dropped if stderr is closed or cannot take it; return ``code``."""
    if sys.stderr is not None:  # print(file=None) would write to stdout
        try:
            print(line, file=sys.stderr)
        except OSError:
            _drop(sys.stderr)
    return code


def _write_dot(path: str, graph) -> int:
    """Write the graph's DOT text to ``path``; exit code 0, or 2 with one line on stderr."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cubes.to_dot(graph))
    except (OSError, UnicodeError) as exc:
        return _warn(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}", 2)
    return 0


def _load_system(path: str) -> tokens.TokenSystem:
    return tokens.TokenSystem.from_json_dict(_read_json(path))


def _cmd_check(args) -> int:
    ts = _load_system(args.input)
    report = tokens.check_axioms(ts, args.bound)
    decision = represent.decide_medium(ts)
    _emit({"axioms": report.to_json_dict(), "decision": decision.to_json_dict()})
    if not decision.is_medium:
        kind = decision.witness.get("axiom") or decision.witness.get("kind")
        return _warn(f"not a medium ({kind})", 1)
    return 0


def _cmd_represent(args) -> int:
    ts = _load_system(args.input)
    decision = represent.decide_medium(ts)
    if not decision.is_medium:
        _emit({"error": "not a medium", "witness": dict(decision.witness)})
        return 1
    base = args.base if args.base is not None else ts.states[0]
    orientation = represent.orient_from_state(ts, base)
    rep = represent.positive_content_family(ts, orientation)
    _emit({"base": base, **rep.to_json_dict()})
    return 0


def _cmd_graph(args) -> int:
    ts = _load_system(args.input)
    decision = represent.decide_medium(ts)
    if not decision.is_medium:
        _emit({"error": "not a medium", "witness": dict(decision.witness)})
        return 1
    g = cubes.medium_graph(ts)
    labels = decision._sets(sorted(decision.names))  # from the ints, coordinate names in string order
    _emit({**g.to_json_dict(), "labels": dict(zip(g.vertices, labels))})
    if args.dot:  # the label sets are built for the DOT tooltips alone
        return _write_dot(args.dot, cubes.LabeledGraph(g.vertices, g.edges, decision.alpha, g.edge_labels))
    return 0


def _cmd_pcube(args) -> int:
    text = _read_text(args.input)
    # a graph document opens with a string key; "{} {a}" is an edge line
    if re.match(r'\s*\{\s*"', text):
        g = cubes.LabeledGraph.from_json_dict(_parse_json(text, args.input))
    else:
        g = cubes.LabeledGraph.from_edge_list(text)
    result = cubes.is_partial_cube(g)
    _emit(result.to_json_dict())
    if args.dot and result.accepted:
        return _write_dot(args.dot, cubes.LabeledGraph(g.vertices, g.edges, result.alpha))
    return 0 if result.accepted else 1


def _cmd_iso(args) -> int:
    a = _load_system(args.first)
    b = _load_system(args.second)
    found = cubes.media_isomorphic(a, b)
    if found is None:
        _emit({"isomorphic": False})
        return 1
    alpha, beta = found
    _emit({"isomorphic": True, "alpha": alpha, "beta": beta})
    return 0


def _cmd_linmedium(args) -> int:
    ts, fam = linorders.linear_medium(args.n)
    doc = ts.to_json_dict(view=True)
    doc["family"] = fam.to_json_dict()
    _emit(doc)
    return _write_dot(args.dot, cubes.medium_graph(ts)) if args.dot else 0


def _arrangement_pipeline(arrangement, dot=None) -> int:
    """Emit the regions, graph, medium and family of the arrangement from its cells' masks and
    int witnesses, all formatted before a byte is written; a graph is built only for ``dot``."""
    masks, witnesses = arr_mod._cells(arrangement)
    ground = arr_mod._ground(arrangement)
    try:
        names, region_docs = arr_mod._cell_documents(ground, masks, witnesses)
    except ValueError as exc:  # a witness past the interpreter's digit limit for int-string conversion
        raise CapError(f"region witness: {exc}") from None
    crossed, pairs = arr_mod._crossings(arrangement, masks, names)
    edges = sorted(edge for edge, _ in crossed.values())
    toks, moves, reverse = tokens._paired(pairs)  # the medium as its moves, no system built
    _emit({
        "lines": arrangement.to_json_dict()["lines"],
        "regions": region_docs,
        "graph": {"vertices": list(names), "edges": list(map(list, edges))},
        "system": {"states": list(names), "tokens": [{"id": t, "reverse": reverse[t]} for t in toks],
                   "moves": moves},
        "family": {"ground": list(ground), "sets": [d["positive"] for d in region_docs]},
    })
    return _write_dot(dot, cubes.LabeledGraph(names, edges, edge_labels=dict(crossed.values()))) if dot else 0


def _cmd_arrangement(args) -> int:
    return _arrangement_pipeline(arr_mod.Arrangement.from_json_dict(_read_json(args.input)), args.dot)


def _cmd_mosaic(args) -> int:
    return _arrangement_pipeline(arr_mod.mosaic_window(args.kind, args.radius))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves no state in it.
    ``parser.commands`` maps each command name to its subparser, whose ``plain`` is its table."""
    parser = argparse.ArgumentParser(
        prog="tokenmedia",
        description="Verify, convert, and construct token-system media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("check", help="axiom report and exact medium decision")
    p.add_argument("input", help="token system JSON ('-' for stdin)")
    p.add_argument("--bound", type=int, default=None,
                   help="accepted for compatibility and echoed in the report; at least 1, "
                        "default twice the token count; it changes no verdict, since every "
                        "axiom is decided exactly")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("represent", help="positive-content family with bijections")
    p.add_argument("input")
    p.add_argument("--base", default=None, help="base state for the orientation")
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("graph", help="graph of a medium (JSON, optional DOT)")
    p.add_argument("input")
    p.add_argument("--dot", default=None, help="write DOT to this path")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("pcube", help="partial-cube recognition with labeling or witness")
    p.add_argument("input", help="graph JSON or whitespace edge list ('-' for stdin)")
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_pcube)

    p = sub.add_parser("iso", help="decide isomorphism of two media")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("linmedium", help="the medium of linear orders on n elements")
    p.add_argument("n", type=int)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_linmedium)

    p = sub.add_parser("arrangement", help="regions, graph, and medium of a line arrangement")
    p.add_argument("input", help="arrangement JSON ('-' for stdin)")
    p.add_argument("--dot", default=None)
    p.set_defaults(func=_cmd_arrangement)

    p = sub.add_parser("mosaic", help="finite window of a mosaic line family")
    p.add_argument("kind", choices=arr_mod.MOSAIC_KINDS)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_mosaic)

    for p in parser.commands.values():  # the table _plain_args reads, from the command's own actions
        acts = p._actions
        p.plain = ({s: a for a in acts if type(a) is argparse._StoreAction and a.nargs is None
                    for s in a.option_strings}, [a for a in acts if not a.option_strings],
                   [a for a in acts if a.required],  # defaults: an action's own before set_defaults'
                   {**p._defaults, **{a.dest: a.default for a in acts if a.default is not argparse.SUPPRESS}})
    return parser


def _plain_args(command, argv):
    """The namespace ``command.parse_known_args(argv)`` returns, with no extras, for strings only:
    positionals that do not start with ``-`` or are ``-``, each option string at most once with a
    value that does not start with ``-``, and values that pass argparse's type and choices; else None."""
    options, positionals, required, defaults = command.plain
    if not all(isinstance(word, str) for word in argv):
        return None
    given, args, words, places = {}, dict(defaults), iter(argv), iter(positionals)
    for word in words:
        action = options.get(word)
        if action is not None and action not in given and (word := next(words, "-"))[:1] != "-":
            given[action] = word
        elif action is None and (word[:1] != "-" or word == "-") and (action := next(places, None)):
            given[action] = word
        else:
            return None
    for action, word in given.items():
        try:  # as argparse converts and checks a value
            args[action.dest] = value = word if action.type is None else action.type(word)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
    return argparse.Namespace(**args) if all(action in given for action in required) else None


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse's errors and help raise SystemExit.
    A plain argv (``_plain_args``) is read in one pass, any other by argparse: the same outcome."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = _plain_args(parser.commands[argv[0]], argv[1:]) if argv and argv[0] in parser.commands else None
    return _run(parser.parse_args(argv) if args is None else args)


def _run(args) -> int:
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ParseError as exc:
        return _warn(f"parse error: {exc}", 2)
    except CapError as exc:
        return _warn(f"cap exceeded: {exc}", 3)
    except MemoryError:
        return _warn("cap exceeded: out of memory", 3)
    except InputError as exc:
        return _warn(f"input error: {exc}", 2)
    except OSError as exc:  # stdout cannot be written; a reader that closed it is not told
        _drop(sys.stdout)
        return 2 if isinstance(exc, BrokenPipeError) else _warn(f"cannot write stdout: {exc.strerror or exc}", 2)


def _drop(stream) -> None:
    """After a write to ``stream`` failed, point its file descriptor at devnull,
    as the SIGPIPE note of the Python docs does for stdout, so that the flush at
    exit cannot fail again.  A stream without a descriptor is left alone."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    if devnull != fd:  # else fd was closed, and devnull took its place
        os.dup2(devnull, fd)
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
