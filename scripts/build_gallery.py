#!/usr/bin/env python3
"""Build a gallery of canonical media as JSON and DOT files.

Writes into ./out/gallery: the two-state pair, the three-state chain, the
two non-isomorphic six-state media over {a,b,c}, linear-order media for
n = 3, 4, and small arrangement pipelines (crossing pair, concurrent
triple, mosaic windows).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tokenmedia import (
    Arrangement,
    LabeledGraph,
    Line,
    SetFamily,
    arrangement_medium,
    decide_medium,
    enumerate_regions,
    family_medium,
    linear_medium,
    medium_graph,
    mosaic_window,
    region_adjacency,
)
from tokenmedia.cli import write_json
from tokenmedia.cubes import to_dot

OUT = pathlib.Path(__file__).resolve().parent.parent / "out" / "gallery"


def dump(name, doc):
    path = OUT / f"{name}.json"
    with path.open("w") as fh:
        write_json(doc, fh)
    print(f"wrote {path}")


def dump_medium(name, ts):
    decision = decide_medium(ts)
    assert decision.is_medium, name
    dump(name, ts.to_json_dict())
    g = medium_graph(ts)
    labeled = LabeledGraph(g.vertices, g.edges, decision.alpha, g.edge_labels)
    (OUT / f"{name}.dot").write_text(to_dot(labeled))
    print(f"wrote {OUT / f'{name}.dot'}")


def main():
    OUT.mkdir(parents=True, exist_ok=True)

    hexagon = SetFamily.of("abc", [{"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}])
    variant = SetFamily.of("abc", [{"a"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}, {"a", "b", "c"}])
    dump_medium("hexagon", family_medium(hexagon))
    dump_medium("hexagon-variant", family_medium(variant))

    for n in (3, 4):
        ts, fam = linear_medium(n)
        dump_medium(f"linear-{n}", ts)
        dump(f"linear-{n}-family", fam.to_json_dict())

    crossing = Arrangement((Line.of(1, 0, 0), Line.of(0, 1, 0)))
    concurrent = Arrangement((Line.of(0, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, 0)))
    windows = {
        "crossing-pair": crossing,
        "concurrent-triple": concurrent,
        "triangular-window-1": mosaic_window("triangular", 1),
        "truncated-square-window-1": mosaic_window("truncated-square", 1),
    }
    for name, arr in windows.items():
        regions = enumerate_regions(arr)
        graph = region_adjacency(arr, regions)
        ts = arrangement_medium(arr, regions, graph)
        dump(name, {
            "lines": arr.to_json_dict()["lines"],
            "regions": [r.to_json_dict() for r in regions],
            "graph": graph.to_json_dict(),
        })
        dump_medium(f"{name}-medium", ts)


if __name__ == "__main__":
    main()
