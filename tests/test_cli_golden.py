"""Golden CLI digests for the decision paths: ``represent``, ``graph``, ``check`` and ``iso``.

Each case pins the exit code and the SHA-256 of stdout of one command, so a
change to how the decision, the graph, the falsifier or the isomorphism
search reads a token system cannot change what the CLI prints unnoticed.
The inputs are built here: the ``linmedium 4`` document, a copy of it with
every state and token renamed and both lists reordered, and the "twisted
square", a four-state non-medium on which M1 and M2 hold.

An ``iso`` map is one of the isomorphisms of media that have automorphisms.
ROADMAP item 3 (isomorphism over token images) may change which map ``iso``
prints on purpose; the verdict and the exit code must not change, and the
``iso`` digest is then recorded again.
"""

import contextlib
import hashlib
import io
import json

import pytest

from tokenmedia import cli
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.tokens import TokenSystem


def twisted_square() -> TokenSystem:
    """The 4-cycle medium with pair a adding at {} but removing at {a,b}."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = {t: dict(good.action[t]) for t in good.tokens}
    for t, s, v in [("add:a", "{b}", "{b}"), ("add:a", "{a,b}", "{b}"),
                    ("rem:a", "{a,b}", "{a,b}"), ("rem:a", "{b}", "{a,b}")]:
        action[t][s] = v
    return TokenSystem(good.states, good.tokens, action, good.reverse)


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


# (argv with LIN, COPY and TWIST for the input files, exit code, stdout SHA-256)
GOLDEN = {
    "represent-linmedium-4": (
        ["represent", "LIN"], 0, "6b667cc3e98b450975e49ec22b8415ce5abe5f4ed50af4b5aa3fb65aa46188ea"),
    "graph-linmedium-4": (
        ["graph", "LIN"], 0, "63b1df74eb2aa09a7a920e52d443f6a437870a0fbbc8a21ba6d5a368f39b1787"),
    "check-bound-6-linmedium-4": (
        ["check", "--bound", "6", "LIN"], 0,
        "066e34d81052f9b4513f64d6faf36dfe86e8155b9c3674e3f9e48a5644816e29"),
    "iso-linmedium-4-relabelled": (
        ["iso", "LIN", "COPY"], 0, "385cbf8f83ff72005be36c65803acba64a70a8d321c424a1b4abd3915b89401b"),
    "represent-twisted-square": (
        ["represent", "TWIST"], 1, "8d046edd6578e214f540514d161f0693c66d685096334349fd5c6278d6babeeb"),
    "check-twisted-square": (
        ["check", "TWIST"], 1, "82593601a5b440a3a5061fd39058f00bfb24b46494a3f2136f2e8105ca9d8078"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["linmedium", "4"]) == 0
    lin = json.loads(out.getvalue())
    docs = {"LIN": lin, "COPY": relabelled(lin), "TWIST": twisted_square().to_json_dict()}
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
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
