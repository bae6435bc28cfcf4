"""Round trips across the views of a medium, through the documents the CLI prints.

By the paper's theorems a medium, its well-graded family and its partial
cube determine each other up to isomorphism.  The document ``graph`` prints
for a medium is read by ``pcube``, which must accept it, and the labels
``pcube`` prints must map onto ``graph``'s by an isometry of the cube
(``extend_isometry``), so the two commands agree on every distance.  The
family ``represent`` prints is a medium again by ``family_medium``, which
``iso`` maps from the first, as do ``represent``'s own alpha and beta.  The
``"system"`` that ``arrangement`` and ``mosaic`` print is isomorphic to the
library's ``arrangement_medium`` of the same lines.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from tokenmedia import cli
from tokenmedia.arrangements import MOSAIC_KINDS, arrangement_medium, mosaic_window
from tokenmedia.cubes import LabeledGraph, extend_isometry
from tokenmedia.families import ADD_PREFIX, REMOVE_PREFIX, SetFamily, family_medium, set_name
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem

from test_arrangements import random_generic_lines


def cube(d):
    """The medium of every subset of d elements."""
    ground = [f"x{i}" for i in range(d)]
    return family_medium(SetFamily.of(ground, (c for k in range(d + 1) for c in combinations(ground, k))))


MEDIA = {
    "linear-4": lambda: linear_medium(4)[0],
    "linear-5": lambda: linear_medium(5)[0],
    "cube-6": lambda: cube(6),
    **{f"mosaic-{kind}-2": lambda kind=kind: arrangement_medium(mosaic_window(kind, 2)) for kind in MOSAIC_KINDS},
}

GENERIC = {f"generic-{k}": lambda k=k: random_generic_lines(random.Random(k), k) for k in (5, 7)}
REPRESENTED = {**MEDIA, **{name: lambda make=make: arrangement_medium(make()) for name, make in GENERIC.items()}}

#: Each arrangement whose printed system goes to ``iso``, with the command that prints it.
ARRANGEMENTS = {
    **{f"mosaic-{kind}-2": (lambda kind=kind: mosaic_window(kind, 2), ["mosaic", kind, "--radius", "2"])
       for kind in MOSAIC_KINDS},
    **{name: (make, None) for name, make in GENERIC.items()},  # None: ``arrangement`` of its lines
}


def printed(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def assert_replays(a, b, alpha, beta):
    """(alpha, beta) is an isomorphism from the system a onto b: both maps are
    bijections, and each token's moves map onto its image's moves."""
    assert sorted(alpha) == sorted(a.states) and sorted(alpha.values()) == sorted(b.states)
    assert sorted(beta) == sorted(a.tokens) and sorted(beta.values()) == sorted(b.tokens)
    for t in a.tokens:
        assert {(alpha[s], alpha[v]) for s, v in a.moves(t)} == b.moves(beta[t]), t


def assert_iso_replays(capsys, first, second):
    """``iso`` of the two system files exits 0 with a map that replays."""
    found = json.loads(printed(capsys, "iso", first, second))
    assert found["isomorphic"] is True
    a, b = (TokenSystem.from_json_dict(json.loads(Path(path).read_text())) for path in (first, second))
    assert_replays(a, b, found["alpha"], found["beta"])


def family(labels, ground):
    return SetFamily(ground, tuple(frozenset(labels[v]) for v in sorted(labels)))


@pytest.mark.parametrize("name", MEDIA)
def test_the_graph_document_is_a_partial_cube_with_the_same_labels_up_to_isometry(name, tmp_path, capsys):
    ts = MEDIA[name]()
    system = tmp_path / "system.json"
    system.write_text(json.dumps(ts.to_json_dict()))
    graph_text = printed(capsys, "graph", str(system))
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(graph_text)
    pcube = json.loads(printed(capsys, "pcube", str(graph_path)))
    graph = json.loads(graph_text)
    assert pcube["partial_cube"] is True and pcube["labels"].keys() == graph["labels"].keys()
    dims = {len(set().union(*doc["labels"].values())) for doc in (graph, pcube)}
    assert len(dims) == 1  # a partial cube's isometric dimension is its number of Theta classes
    ground = tuple(map(str, range(dims.pop())))
    before, after = family(graph["labels"], ground), family(pcube["labels"], ground)
    alpha = {frozenset(graph["labels"][v]): frozenset(pcube["labels"][v]) for v in graph["labels"]}
    iso = extend_isometry(before, after, alpha)
    assert all(iso.apply(s) == alpha[s] for s in before.sets)
    g = LabeledGraph.from_json_dict(graph)
    assert len(g.vertices) == len(ts.states) and len(g.edges) == sum(map(len, ts._index_moves.values())) // 2


@pytest.mark.parametrize("name", REPRESENTED)
def test_the_represented_family_is_the_same_medium(name, tmp_path, capsys):
    ts = REPRESENTED[name]()
    system = write(tmp_path / "system.json", ts.to_json_dict())
    doc = json.loads(printed(capsys, "represent", system))
    fam = SetFamily.from_json_dict(doc["family"])
    rebuilt = family_medium(fam)
    assert_iso_replays(capsys, system, write(tmp_path / "family.json", rebuilt.to_json_dict()))
    # represent's own maps are an isomorphism too: a state goes to the member named by its set,
    # a token to the add or remove token of its element
    alpha = {s: set_name(members, fam.ground) for s, members in doc["alpha"].items()}
    prefix = {"add": ADD_PREFIX, "remove": REMOVE_PREFIX}
    beta = {t: prefix[b["polarity"]] + b["element"] for t, b in doc["beta"].items()}
    assert_replays(ts, rebuilt, alpha, beta)


@pytest.mark.parametrize("name", ARRANGEMENTS)
def test_the_printed_region_system_is_the_arrangement_medium(name, tmp_path, capsys):
    make, argv = ARRANGEMENTS[name]
    arrangement = make()
    if argv is None:
        argv = ["arrangement", write(tmp_path / "lines.json", arrangement.to_json_dict())]
    printed_system = write(tmp_path / "printed.json", json.loads(printed(capsys, *argv))["system"])
    medium = write(tmp_path / "medium.json", arrangement_medium(arrangement).to_json_dict())
    assert_iso_replays(capsys, printed_system, medium)
