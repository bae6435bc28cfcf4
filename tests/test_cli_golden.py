"""Golden CLI digests for the decision paths (``represent``, ``graph``, ``check``
and ``iso``) and for the commands that emit the largest documents (``linmedium``,
``mosaic`` and ``arrangement``).

Each case pins the exit code and the SHA-256 of the document stdout holds, so a
change to how the decision, the graph, the falsifier or the isomorphism
search reads a token system cannot change what the CLI prints unnoticed.
The digest is taken of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` of
the document parsed from stdout, the indented layout the CLI printed when the
digests were recorded; stdout itself must be the compact layout of that same
document, ``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``.
The inputs are the ``linmedium 4`` document, a copy of it with every state
and token renamed and both lists reordered, the "twisted square" of
``conftest``, a four-state non-medium on which M1 and M2 hold, and
``conftest.union6``, two disjoint copies of ``linmedium 6`` sharing their
tokens.

``check`` on a medium reads M2-M4 off the exact decision and reports them
"holds", where the bounded walks reported M3 and M4 "holds-up-to-bound";
the ``check`` digest of ``linmedium 4`` was recorded again for that change
alone.  On a non-medium that passes M1, ``check`` reads M2-M4 off token-pair
potentials instead of walking messages, and a rejected system's decision
names the first failing axiom with that axiom's witness, where the
Djokovic-Winkler route named a graph or action mismatch.  The twisted
square's ``check`` and ``represent`` digests were recorded again for that
change: M3 fails with a tree-path witness, and M2 and M4 are skipped.  The
``union6`` digest was recorded with that change; walks at the default bound
did not end on it.

An ``iso`` map is one of the isomorphisms of media that have automorphisms.
The search over coordinate permutations that replaced the vertex-by-vertex
graph search prints the same map on this input, so the ``iso`` digest was
not recorded again.  A change to the search may change which map ``iso``
prints on purpose; the verdict and the exit code must not change, and the
``iso`` digest is then recorded again.

The emitter digests pin the JSON layout of stdout on documents with every
shape the program builds: the dense ``action`` table, region witnesses with
rational coordinates, the graph and the set family.  ``ARR`` is a degenerate
arrangement: three parallel lines, one of them x = 1/2, and a triple
x = 0, y = 0, x = y through the origin.  These four digests were recorded
with the stdlib's ``json.dumps(doc, sort_keys=True, indent=2)`` writing
stdout, before a one-pass writer of that layout replaced it, and they hold
unchanged for the compact layout's document.

``VERT`` and ``SLANT`` reach every branch of the Fourier-Motzkin witness
choice between them.  ``VERT`` is three vertical lines, each with a < 0: its
two half-planes are bounded by one vertical line alone, and one strip lies
between two of them.  ``SLANT`` has two horizontal and three slanted lines with
rational crossings: it has cells unbounded on both x sides, midpoints with
denominators above 2, and every choice of y (midpoint, lower bound + 1,
upper bound - 1; ``VERT``'s cells take y = 0).  Their digests were recorded
with the x-extents folded and the witnesses chosen in ``Fraction``
arithmetic, before the sweep moved to integer ranks of the x-values.

The three ``arrangement`` digests and the two ``mosaic`` digests were recorded
again when those commands began to print their medium as its moves, the
sparse ``"moves"`` table, in place of the dense ``"action"`` table, which
grows with states times tokens.  Before that, every other key of the five
documents was checked to print the same bytes as before, and each
``"system"`` to read back as the system its dense table gave.  The
``linmedium`` digest still pins the dense table.
"""

import contextlib
import hashlib
import io
import json

import pytest

from tokenmedia import cli

from conftest import twisted_square, union6


def relabelled(doc: dict) -> dict:
    """The system of ``doc`` with states q0, q1, ... and tokens k0, k1, ...
    named in reverse input order, and both listed by their new names."""
    states = doc["states"]
    tokens = [e["id"] for e in doc["tokens"]]
    sname = {s: f"q{i}" for i, s in enumerate(reversed(states))}
    tname = {t: f"k{i}" for i, t in enumerate(reversed(tokens))}
    reverse = {e["id"]: e["reverse"] for e in doc["tokens"]}
    return {
        "states": sorted(sname.values()),
        "tokens": sorted(({"id": tname[t], "reverse": tname[reverse[t]]} for t in tokens),
                         key=lambda e: e["id"]),
        "action": {tname[t]: {sname[s]: sname[v] for s, v in row.items()}
                   for t, row in doc["action"].items()},
    }


# A degenerate arrangement of lines a*x + b*y + c = 0: x = 0, x = -1 and x = 1/2 are parallel;
# x = 0, y = 0 and x = y meet at the origin.
DEGENERATE = {"lines": [{"a": "1", "b": "0", "c": "0"}, {"a": "1", "b": "0", "c": "1"},
                        {"a": "2", "b": "0", "c": "-1"}, {"a": "0", "b": "1", "c": "0"},
                        {"a": "1", "b": "-1", "c": "0"}]}

# Witness branches: vertical lines x = -5/7, -1/3, 1/2 with a < 0; rational slanted lines
VERT = {"lines": [{"a": "-7", "b": "0", "c": "-5"}, {"a": "-3", "b": "0", "c": "-1"},
                  {"a": "-2", "b": "0", "c": "1"}]}
SLANT = {"lines": [{"a": "3", "b": "5", "c": "-2"}, {"a": "-2", "b": "7", "c": "1"},
                   {"a": "0", "b": "3", "c": "-1"}, {"a": "1", "b": "-4", "c": "7/2"},
                   {"a": "0", "b": "1", "c": "-2"}]}

# (argv with LIN, COPY, TWIST, UNION6, ARR, VERT and SLANT for the input files, exit code,
# stdout SHA-256)
GOLDEN = {
    "represent-linmedium-4": (
        ["represent", "LIN"], 0, "6b667cc3e98b450975e49ec22b8415ce5abe5f4ed50af4b5aa3fb65aa46188ea"),
    "graph-linmedium-4": (
        ["graph", "LIN"], 0, "63b1df74eb2aa09a7a920e52d443f6a437870a0fbbc8a21ba6d5a368f39b1787"),
    "check-bound-6-linmedium-4": (
        ["check", "--bound", "6", "LIN"], 0,
        "f25ab6562237ad3495e7f6fd23154893305ca6f7c73ea920e5ad0cbedc367a0a"),
    "iso-linmedium-4-relabelled": (
        ["iso", "LIN", "COPY"], 0, "385cbf8f83ff72005be36c65803acba64a70a8d321c424a1b4abd3915b89401b"),
    "represent-twisted-square": (
        ["represent", "TWIST"], 1, "6798eb780dd76a8f034fd0c132b210a4b3a7a9f012756fc043abbd98a5f97180"),
    "check-twisted-square": (
        ["check", "TWIST"], 1, "3c7b804650e51f4eff5907bfcd9192519aab49c0e97798d42b03cf4c9fe544af"),
    "check-union6": (
        ["check", "UNION6"], 1, "e337546621f2b4868303f5985d5f90834dc57b591f6e6009dbe1b68446b52d9b"),
    "linmedium-4": (
        ["linmedium", "4"], 0, "ec883e2e97880ba983dd5a19da2325268434ffe1dce4a6c6bd7b7b9ea7f1e261"),
    "mosaic-triangular-radius-2": (
        ["mosaic", "triangular", "--radius", "2"], 0,
        "57670b7f9df2892c37f62e36d4c32f1f5e39c8518effc4d60d8f5aca503473b8"),
    "mosaic-truncated-square-radius-1": (
        ["mosaic", "truncated-square", "--radius", "1"], 0,
        "2c62c4f90f3af97f660804b54e1e88e0a89adba822392bbb2759e7097086872e"),
    "arrangement-degenerate": (
        ["arrangement", "ARR"], 0, "5bf6bf8eaff9a66661dd04a14c251f731c7508adb007643f3df1609b4f459671"),
    "arrangement-vertical-half-planes-and-strip": (
        ["arrangement", "VERT"], 0, "d5ea6a3d86ac08fc6e15832aa0c40713ff6e3d5286da772fd8791287fa1e65fb"),
    "arrangement-rational-crossings": (
        ["arrangement", "SLANT"], 0, "ede94303e75dc5cb04ac5ba4c773e8ab0bb92f5bdea0e524829fa4675aa282d4"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["linmedium", "4"]) == 0
    lin = json.loads(out.getvalue())
    docs = {"LIN": lin, "COPY": relabelled(lin), "TWIST": twisted_square().to_json_dict(),
            "UNION6": union6().to_json_dict(), "ARR": DEGENERATE, "VERT": VERT, "SLANT": SLANT}
    paths = {}
    for name, doc in docs.items():
        path = root / f"{name.lower()}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest_and_exit_code(name, files, capsys):
    argv, code, digest = GOLDEN[name]
    capsys.readouterr()
    got = cli.main([files.get(a, a) for a in argv])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    indented = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert (got, hashlib.sha256(indented.encode()).hexdigest()) == (code, digest)
