"""Round trips across the views of a medium, through the documents the CLI prints.

By the paper's theorems a medium, its well-graded family and its partial
cube determine each other up to isomorphism.  The document ``graph`` prints
for a medium is read by ``pcube``, which must accept it, and the labels
``pcube`` prints must map onto ``graph``'s by an isometry of the cube
(``extend_isometry``), so the two commands agree on every distance.
"""

import json
from itertools import combinations

import pytest

from tokenmedia import cli
from tokenmedia.arrangements import MOSAIC_KINDS, arrangement_medium, mosaic_window
from tokenmedia.cubes import LabeledGraph, extend_isometry
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium


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


def printed(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


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
