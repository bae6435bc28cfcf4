"""Command-line surface: verification, conversion, construction, export.

Machine-readable JSON goes to stdout as ``json.dumps(doc, sort_keys=True,
separators=(",", ":"))`` writes it, compact and built by the stdlib's C encoder,
so identical inputs give byte-identical outputs; ``python -m json.tool`` indents
it.  ``write_json`` writes it in one write; ``linmedium`` writes the same text with
its dense ``action`` table laid out by ``tokens._dense_table``.  Diagnostics go to
stderr, or nowhere.
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

from . import arrangements as arr_mod
from . import cubes, linorders, represent, tokens
from .errors import CapError, InputError, ParseError

#: Input files from this size up are mapped, not read: at 64 KiB a read
#: took 16 us against 23 us for a map, at 256 KiB 166 us against 35 us.
MAP_MIN_BYTES = 256 * 1024
_READ_BYTES = 64 * 1024  # per read of anything else
_COMPACT = (",", ":")  # json.dumps separators with no space


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


def write_json(doc, fh) -> None:
    """Write ``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"`` to the text
    file ``fh`` in one write, the stdlib's C encoder building the text.  A document
    ``json.dumps`` refuses writes nothing."""
    # No name holds the text while it is written, so at most two copies of it live at once.
    fh.write(json.dumps(doc, sort_keys=True, separators=_COMPACT) + "\n")


def _stdout():
    if sys.stdout is None:  # closed before the process started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _emit(doc) -> None:
    write_json(doc, _stdout())


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
    _emit({**g.to_json_dict(), "labels": decision.label_map()})
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
    # write_json's text, its dense table by the template: "action" sorts before the other keys
    rest = json.dumps({**ts._header(), "family": fam.to_json_dict()}, sort_keys=True, separators=_COMPACT)
    _stdout().write("".join(['{"action":', *tokens._dense_table(ts), ",", rest[1:], "\n"]))
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
