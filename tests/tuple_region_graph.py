"""``region_adjacency`` and ``arrangement_medium`` as they were before the
region graph was keyed by ints: the differential oracle of
``tests/test_region_graph.py``.

This route sorts one 5-tuple per crossed facet, the positions of its two
regions, its line and both region names, and the medium walks the graph's
sorted edges, looking up each one's label.  Both functions are kept
verbatim, with their names prefixed by ``tuple_``, so the medium's default
graph is the tuple route's too.
"""

from __future__ import annotations

from typing import Iterable

from tokenmedia.arrangements import (
    Arrangement,
    Region,
    _facets,
    enumerate_regions,
    negative_token,
    positive_token,
)
from tokenmedia.cubes import LabeledGraph
from tokenmedia.tokens import TokenSystem


def tuple_region_adjacency(arr: Arrangement, regions: Iterable[Region]) -> LabeledGraph:
    """Region graph: one edge per facet, labeled by its line's token pair.

    A facet is skipped unless both of its sides are among ``regions``, so a
    subset of the cells gives its induced subgraph.  Labels are recorded in
    order of the positions of each edge's two regions in ``regions``.
    """
    regions = tuple(regions)
    names = [r.name for r in regions]
    tokens = [(positive_token(k), negative_token(k)) for k in range(len(arr.lines))]
    index = {r.mask: i for i, r in enumerate(regions)}
    crossed = []
    for k, mask, _, _ in _facets(arr):
        i, j = index.get(mask), index.get(mask | 1 << k)
        if i is not None and j is not None:
            crossed.append((min(i, j), max(i, j), k, names[i], names[j]))
    labels: dict[tuple[str, str], tuple[str, str]] = {}
    for _, _, k, minus, plus in sorted(crossed):
        e = (minus, plus) if minus < plus else (plus, minus)
        # label = (token along (e[0] -> e[1]), its reverse)
        labels[e] = tokens[k] if e[0] == minus else tokens[k][::-1]
    return LabeledGraph(tuple(names), tuple(labels), edge_labels=labels)


def tuple_arrangement_medium(arr: Arrangement,
                             regions: tuple[Region, ...] | None = None,
                             graph: LabeledGraph | None = None) -> TokenSystem:
    """The medium of regions: pos:k / neg:k cross line k at shared facets, the
    edges of ``graph``, a ``region_adjacency`` graph whose labels name them."""
    if regions is None:
        regions = enumerate_regions(arr)
    if graph is None:
        graph = tuple_region_adjacency(arr, regions)
    names = tuple(r.name for r in regions)
    pos: dict[str, dict[str, str]] = {positive_token(k): {} for k in range(len(arr.lines))}
    for (u, v) in graph.edges:
        forward, backward = graph.edge_labels[(u, v)]
        if forward not in pos:
            forward, u, v = backward, v, u
        pos[forward][u] = v
    return TokenSystem.from_pairs(names, ((t, negative_token(k), ms)
                                          for k, (t, ms) in enumerate(pos.items())))
