"""Partial-cube recognition on vertex names, as it was before
``tokenmedia.cubes.is_partial_cube`` numbered the vertices: the differential
oracle of ``tests/test_cubes.py``.

Each Theta class is grown by one BFS over name-keyed dicts and then found
by a scan of every edge, and each label set is built bit by bit.
Everything below the imports is kept verbatim, with the entry point
renamed to ``name_partial_cube`` and ``_theta_violation`` kept here in its
former form, on edges given by their vertex names.

``PartialCubeResult`` is the former record too, which both this route and
the Theta scan of ``tests/test_cubes.py`` return: a map from each vertex to
its label's frozenset, printed by sorting each set, so the printed layout
has an oracle that shares no code with the library's int labels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from tokenmedia.cubes import LabeledGraph, _geodesic, _odd_cycle
from tokenmedia.errors import InputError
from tokenmedia.families import _moves_separate

from conftest import adjacency


@dataclass(frozen=True)
class PartialCubeResult:
    accepted: bool
    labels: Mapping[str, frozenset[str]] | None = None
    edge_classes: Mapping[tuple[str, str], str] | None = None
    witness: Mapping | None = None

    @property
    def class_count(self) -> int:
        return len(set(self.edge_classes.values())) if self.edge_classes else 0

    def to_json_dict(self) -> dict:
        if self.accepted:
            return {
                "partial_cube": True,
                "labels": {v: sorted(l) for v, l in self.labels.items()},
            }
        return {"partial_cube": False, "witness": dict(self.witness)}


def name_partial_cube(g: LabeledGraph) -> PartialCubeResult:
    """Accept with a certified isometric hypercube labeling, or reject with a witness.

    Each edge without a class, in edge order, grows its Theta class with one
    BFS; the classes must be disjoint.  Labels XOR class bits along the BFS
    tree from the least vertex, so each edge flips its own class bit, and if
    for every pair p != q some class with an edge at p separates them, the
    labeling is isometric.  Witness kinds: "odd-cycle" (graph not
    bipartite), "theta-violation" (edges [e, f, h] with e Theta f, f Theta h
    and not e Theta h), read off the check that fails:

    - when the class of a new least edge e reaches an edge f of an earlier
      class with least edge h, the witness is [e, f, h];
    - when no class at p separates p from q, the first edge f of a geodesic
      from p to q lies in a class, with least edge h, that the geodesic
      crosses again, first at g; two edges of one geodesic are never in
      relation Theta, so the witness is [f, h, g].
    """
    if not g.vertices:
        raise InputError("empty graph")
    adj = adjacency(g)
    s0 = min(g.vertices)
    # single BFS: connectivity, bipartition, parents for odd-cycle extraction;
    # it runs past the first odd edge, kept as the witness, so that
    # connectivity is tested on every vertex
    parent: dict[str, str | None] = {s0: None}
    depth = {s0: 0}
    queue = deque([s0])
    odd = None
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in depth:
                depth[w] = depth[u] + 1
                parent[w] = u
                queue.append(w)
            elif (depth[w] ^ depth[u]) & 1 == 0 and odd is None:
                odd = (u, w)
    if len(depth) != len(g.vertices):
        raise InputError("graph must be connected")
    if odd is not None:
        return PartialCubeResult(False, witness={"kind": "odd-cycle", "cycle": _odd_cycle(parent, depth, *odd)})
    return _class_route(g, adj, parent)


def _class_route(g, adj, parent):
    # in a bipartite graph uv Theta xy iff u and v lie on different sides of
    # the cut {w : d(w,x) < d(w,y)}, which one BFS from both ends finds;
    # classes are numbered by their least edge.  Disjoint cuts each hold a
    # BFS-tree edge, so at most S - 1 classes come before one overlaps.
    edges = g.edges
    cls: dict[tuple[str, str], int] = {}
    least: list[tuple[str, str]] = []  # the least edge of each class
    toggles = dict.fromkeys(parent, 0)  # the classes with an edge at each vertex
    for e in edges:
        if e in cls:
            continue
        width = len(least)
        side = {e[0]: 0, e[1]: 1}
        queue = deque(e)
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in side:
                    side[w] = side[u]
                    queue.append(w)
        for f in edges:
            if side[f[0]] != side[f[1]]:
                if f in cls:
                    return _theta_violation(e, f, least[cls[f]])
                cls[f] = width
                toggles[f[0]] |= 1 << width
                toggles[f[1]] |= 1 << width
        least.append(e)
    width = len(least)
    # labels along the BFS tree, in its order; as the classes are disjoint
    # cuts, bit k of a label says which side of cut k the vertex is on, so
    # every edge flips exactly its own class bit
    lab = {}
    for w, u in parent.items():
        lab[w] = 0 if u is None else lab[u] ^ 1 << cls[(u, w) if u < w else (w, u)]
    pair = _moves_separate(list(lab.values()), list(toggles.values()), width)
    if pair is not None:
        # the class of the first step does not separate p from q, so the
        # geodesic flips its bit back on a later step
        verts = list(lab)
        out = {u: [(w, (u, w) if u < w else (w, u)) for w in ws] for u, ws in adj.items()}
        steps = _geodesic(out, verts[pair[1]], verts[pair[0]])
        k = cls[steps[0]]
        return _theta_violation(steps[0], least[k], next(f for f in steps[1:] if cls[f] == k))
    names = [str(k) for k in range(width)]
    labels = {v: frozenset(names[k] for k in range(width) if x >> k & 1) for v, x in lab.items()}
    return PartialCubeResult(True, labels=labels, edge_classes={e: names[cls[e]] for e in edges})


def _theta_violation(*triple):
    return PartialCubeResult(False, witness={"kind": "theta-violation", "edges": [list(e) for e in triple]})


def _theta_violation(*triple):
    return PartialCubeResult(False, witness={"kind": "theta-violation", "edges": [list(e) for e in triple]})
