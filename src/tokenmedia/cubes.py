"""Graphs of media, partial-cube recognition, isomorphism, and cube isometries.

Recognition builds the Djokovic-Winkler classes one at a time (uv Theta xy
when d(u,x) + d(v,y) != d(u,y) + d(v,x)), one BFS per class, labels every
vertex by the classes that separate it from the least vertex, and certifies
that labeling isometric with a well-gradedness test, in O(dim * E) and
without a distance table.  A bipartite graph is a partial cube iff Theta is
transitive on it (Winkler), and either check that fails names three edges
e Theta f, f Theta h, not e Theta h: a class that reaches an edge of an
earlier class, or a pair of vertices that no class at the first separates,
whose geodesic crosses one class twice.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import CapError, InputError, ParseError
from .families import SetFamily
from .tokens import TokenSystem

DEFAULT_ISO_CAP = 2000


@dataclass(frozen=True)
class LabeledGraph:
    """A finite simple graph with optional vertex-set and edge-token labels.

    Edges are canonicalized to lexicographically ordered pairs and sorted.
    When vertex labels are present, each edge must flip exactly one label
    element.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    vertex_labels: Mapping[str, frozenset[str]] | None = None
    edge_labels: Mapping[tuple[str, str], tuple[str, str]] | None = None

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        vset = frozenset(self.vertices)
        canon = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise InputError(f"loop at vertex {u!r}")
            if u not in vset or v not in vset:
                raise InputError(f"edge {e!r} uses unknown vertices")
            canon.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.vertex_labels is not None:
            for (u, v) in self.edges:
                d = self.vertex_labels[u] ^ self.vertex_labels[v]
                if len(d) != 1:
                    raise InputError(f"edge {u!r}-{v!r} does not flip exactly one label element")

    def to_json_dict(self) -> dict:
        out: dict = {
            "vertices": list(self.vertices),
            "edges": [[u, v] for (u, v) in self.edges],
        }
        if self.vertex_labels is not None:
            out["labels"] = {v: sorted(self.vertex_labels[v]) for v in self.vertices}
        return out

    @classmethod
    def from_json_dict(cls, doc) -> "LabeledGraph":
        if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
            raise ParseError("graph document needs 'vertices' and 'edges' fields")
        try:
            vertices = tuple(str(v) for v in doc["vertices"])
            edges = tuple((str(u), str(v)) for (u, v) in doc["edges"])
            labels = None
            if "labels" in doc:
                labels = doc["labels"]
                if not isinstance(labels, dict) or set(labels) != set(vertices):
                    raise ParseError("labels must be an object whose keys are exactly the vertices")
                labels = {v: frozenset(str(x) for x in xs) for v, xs in labels.items()}
            return cls(vertices, edges, labels)
        except (TypeError, ValueError, InputError) as exc:
            raise ParseError(f"bad graph: {exc}") from None

    @classmethod
    def from_edge_list(cls, text: str) -> "LabeledGraph":
        """Whitespace edge-list: one 'u v' pair per line; vertex order is first appearance."""
        vertices: list[str] = []
        seen = set()
        edges = []
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(f"edge line needs exactly two vertex ids: {line!r}")
            for v in parts:
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
            edges.append((parts[0], parts[1]))
        return cls(tuple(vertices), tuple(edges))


def adjacency(g: LabeledGraph) -> dict[str, tuple[str, ...]]:
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for (u, v) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def to_dot(g: LabeledGraph) -> str:
    """Deterministic DOT export; vertex labels become tooltips."""
    lines = ["graph g {"]
    for v in g.vertices:
        attrs = ""
        if g.vertex_labels is not None:
            inner = ",".join(sorted(g.vertex_labels[v]))
            attrs = f' [tooltip="{{{inner}}}"]'
        lines.append(f'  "{v}"{attrs};')
    for (u, v) in g.edges:
        attrs = ""
        if g.edge_labels is not None and (u, v) in g.edge_labels:
            a, b = g.edge_labels[(u, v)]
            attrs = f' [label="{a} / {b}"]'
        lines.append(f'  "{u}" -- "{v}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- graphs of media -------------------------------------------------------


def medium_graph(ts: TokenSystem) -> LabeledGraph:
    """Graph on the states with an edge per adjacent pair, labeled by its token pair.

    Assumes a verified medium: each edge must be traversed by exactly one
    token pair.  The edges are read off the move index of ``ts``.
    """
    rev = ts.reverse
    if rev is None:
        raise InputError("medium graph needs a reverse pairing")
    states = ts.states
    pair_of: dict[tuple[str, str], tuple[str, str]] = {}
    for t, ms in ts._index_moves.items():
        for i, j in ms:
            s, v = states[i], states[j]
            e = (s, v) if s < v else (v, s)
            label = (t, rev[t]) if e == (s, v) else (rev[t], t)
            old = pair_of.get(e)
            if old is not None and old != label and old != (label[1], label[0]):
                raise InputError(f"edge {e!r} carries two token pairs; not a medium")
            if old is None:
                pair_of[e] = label
    return LabeledGraph(ts.states, tuple(pair_of), edge_labels=pair_of)


@dataclass(frozen=True)
class PartialCubeResult:
    accepted: bool
    labels: Mapping[str, frozenset[str]] | None = None
    edge_classes: Mapping[tuple[str, str], str] | None = None
    witness: Mapping | None = None

    @property
    def class_count(self) -> int:
        if self.labels is None:
            return 0
        return len(set(self.edge_classes.values())) if self.edge_classes else 0

    def to_json_dict(self) -> dict:
        if self.accepted:
            return {
                "partial_cube": True,
                "labels": {v: sorted(l) for v, l in self.labels.items()},
            }
        return {"partial_cube": False, "witness": dict(self.witness)}


def is_partial_cube(g: LabeledGraph) -> PartialCubeResult:
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
        path = _geodesic(adj, verts[pair[0]], verts[pair[1]])
        steps = [(u, w) if u < w else (w, u) for u, w in zip(path, path[1:])]
        k = cls[steps[0]]
        return _theta_violation(steps[0], least[k], next(f for f in steps[1:] if cls[f] == k))
    names = [str(k) for k in range(width)]
    labels = {v: frozenset(names[k] for k in range(width) if x >> k & 1) for v, x in lab.items()}
    return PartialCubeResult(True, labels=labels, edge_classes={e: names[cls[e]] for e in edges})


def _theta_violation(*triple):
    return PartialCubeResult(False, witness={"kind": "theta-violation", "edges": [list(e) for e in triple]})


def _geodesic(adj, p, q):
    """A shortest path from p to q, by one BFS from q."""
    toward = {q: None}
    queue = deque([q])
    while p not in toward:
        u = queue.popleft()
        for w in adj[u]:
            if w not in toward:
                toward[w] = u
                queue.append(w)
    path = [p]
    while path[-1] != q:
        path.append(toward[path[-1]])
    return path


def _moves_separate(lab, toggles, width):
    """The first pair (p, q), q != p, such that no bit of toggles[p] separates
    lab[p] from lab[q], or None.  All q at once, on bitsets over the
    positions; with each move flipping its own bit, None is well-gradedness,
    and rules out equal labels."""
    bits = [1 << x for x in range(width)]
    everyone = (1 << len(lab)) - 1
    holders = [sum(1 << q for q, own in enumerate(lab) if own & b) for b in bits]
    for p, (own, tg) in enumerate(zip(lab, toggles)):
        alike = everyone
        for b, members in zip(bits, holders):
            if tg & b:
                alike &= members if own & b else everyone ^ members
        if alike != 1 << p:
            rest = alike ^ 1 << p
            return p, (rest & -rest).bit_length() - 1
    return None


def _odd_cycle(parent, depth, u, w):
    pu, pw = u, w
    left, right = [u], [w]
    while depth[pu] > depth[pw]:
        pu = parent[pu]
        left.append(pu)
    while depth[pw] > depth[pu]:
        pw = parent[pw]
        right.append(pw)
    while pu != pw:
        pu = parent[pu]
        pw = parent[pw]
        left.append(pu)
        right.append(pw)
    # left ends at the meeting vertex; right's copy of it is dropped
    return left + right[-2::-1]


class NotPartialCube(InputError):
    def __init__(self, witness):
        super().__init__(f"graph is not a partial cube: {witness.get('kind')}")
        self.witness = witness


def graph_to_medium(g: LabeledGraph) -> TokenSystem:
    """Medium on the graph's own vertices, via its partial-cube labeling.

    Tokens ``add:k`` / ``rem:k`` per Theta class k toggle the coordinate
    when the toggled label is realized by a vertex.  Raises NotPartialCube
    (carrying the witness) on rejection.
    """
    pc = is_partial_cube(g)
    if not pc.accepted:
        raise NotPartialCube(pc.witness)
    labels = pc.labels
    where = {labels[v]: v for v in g.vertices}
    classes = sorted(set(pc.edge_classes.values()), key=int)
    tokens: list[str] = []
    action: dict[str, dict[str, str]] = {}
    reverse: dict[str, str] = {}
    for k in classes:
        up: dict[str, str] = {}
        down: dict[str, str] = {}
        for v in g.vertices:
            lab = labels[v]
            if k not in lab and (lab | {k}) in where:
                up[v] = where[lab | {k}]
            else:
                up[v] = v
            if k in lab and (lab - {k}) in where:
                down[v] = where[lab - {k}]
            else:
                down[v] = v
        a, r = f"add:{k}", f"rem:{k}"
        tokens += [a, r]
        action[a] = up
        action[r] = down
        reverse[a] = r
        reverse[r] = a
    return TokenSystem(g.vertices, tuple(tokens), action, reverse)


# --- isomorphism -----------------------------------------------------------


def media_isomorphic(ts1: TokenSystem, ts2: TokenSystem,
                     max_vertices: int = DEFAULT_ISO_CAP):
    """A state/token isomorphism between two verified media, or None.

    Media are isomorphic iff their graphs are, so this runs invariant-guided
    backtracking graph isomorphism (degree refinement plus the multiset of
    move counts per token pair) and then reads the token bijection off the
    matched edges.  The search extends the map at the unmapped vertex with
    the most mapped neighbours (least name first), taken in O(log E) from a
    lazy heap of neighbour counts, and backtracks on an explicit stack, so
    its depth is not bounded by the recursion limit.  One move of t, looked
    up in a dict from the moves of ts2 to its tokens, names beta(t); each
    move of t must then map to a move of beta(t), which has equally many, so
    fixed points map to fixed points.  Both read the move indexes, not the
    action tables.  Both inputs are verified with ``decide_medium`` before
    any size comparison, so a non-medium raises InputError whatever the
    sizes; the size checks read the move indexes and build no graph.
    """
    from .represent import decide_medium

    n = len(ts1.states)
    if n > max_vertices or len(ts2.states) > max_vertices:
        raise CapError(f"isomorphism search capped at {max_vertices} states")
    if not (decide_medium(ts1).is_medium and decide_medium(ts2).is_medium):
        raise InputError("media_isomorphic expects verified media")
    if n != len(ts2.states) or len(ts1.tokens) != len(ts2.tokens):
        return None
    # in a medium a token pair's moves are one Theta class of its graph, and
    # each edge is two moves, so equal move counts also mean equal edge counts
    moves2 = ts2._index_moves
    if sorted(map(len, ts1._index_moves.values())) != sorted(map(len, moves2.values())):
        return None
    g1, g2 = medium_graph(ts1), medium_graph(ts2)
    adj1 = {v: frozenset(ws) for v, ws in adjacency(g1).items()}
    adj2 = {v: frozenset(ws) for v, ws in adjacency(g2).items()}
    col1, col2 = _joint_refinement(g1, adj1, g2, adj2)
    if col1 is None:
        return None
    alpha = _find_graph_iso(g1, adj1, col1, g2, adj2, col2)
    if alpha is None:
        return None
    token_of = {m: u for u, ms in moves2.items() for m in ms}
    a = [ts2._index[alpha[s]] for s in ts1.states]
    beta: dict[str, str] = {}
    for t, ms in ts1._index_moves.items():
        i, j = ms[0]
        beta[t] = u = token_of.get((a[i], a[j]))
        if u is None:
            raise InputError("graph isomorphism does not transport tokens; not media")
        # the theory guarantees this verification passes for genuine media
        if len(ms) != len(moves2[u]) or any(token_of.get((a[i], a[j])) != u for i, j in ms):
            raise AssertionError("token transport failed; inputs are not media")
    if len(set(beta.values())) != len(ts2.tokens):
        raise AssertionError("token transport not bijective; inputs are not media")
    return alpha, beta


def _joint_refinement(g1, adj1, g2, adj2):
    palette: dict = {}

    def colorize(graph, adj, colors):
        new = {}
        for v in graph.vertices:
            sig = (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            new[v] = palette.setdefault(sig, len(palette))
        return new

    col1 = {v: len(adj1[v]) for v in g1.vertices}
    col2 = {v: len(adj2[v]) for v in g2.vertices}
    for _ in range(len(g1.vertices)):
        if sorted(col1.values()) != sorted(col2.values()):
            return None, None
        palette.clear()
        n1, n2 = colorize(g1, adj1, col1), colorize(g2, adj2, col2)
        if len(set(n1.values())) == len(set(col1.values())):
            return n1, n2
        col1, col2 = n1, n2
    return col1, col2


def _find_graph_iso(g1, adj1, col1, g2, adj2, col2):
    n = len(g1.vertices)
    mapping: dict[str, str] = {}
    inverse: dict[str, str] = {}
    vs2 = sorted(g2.vertices)
    # count[u] = mapped neighbours of u; every unmapped vertex outside the
    # search stack has an entry (-count[u], u) in the lazy heap, and entries
    # that went stale or whose vertex got mapped are dropped when popped
    count = dict.fromkeys(g1.vertices, 0)
    heap = [(0, u) for u in g1.vertices]
    heapq.heapify(heap)

    def frame():
        # the unmapped vertex with the most mapped neighbours, least name first
        k, u = heapq.heappop(heap)
        while -k != count[u] or u in mapping:
            k, u = heapq.heappop(heap)
        anchored = [mapping[w] for w in adj1[u] if w in mapping]
        if anchored:
            cands = set(adj2[anchored[0]])
            for a in anchored[1:]:
                cands &= adj2[a]
            return u, iter(sorted(cands)), len(anchored)
        return u, iter(vs2), 0

    def shift(u, step):
        for w in adj1[u]:
            count[w] += step
            if w not in mapping:
                heapq.heappush(heap, (-count[w], w))

    stack = [frame()]
    while stack:
        u, cands, want = stack[-1]
        if u in mapping:  # back from a failed subtree: free u's current image
            del inverse[mapping.pop(u)]
            shift(u, -1)
        deg = len(adj1[u])
        for v in cands:
            if v in inverse or col2[v] != col1[u] or len(adj2[v]) != deg:
                continue
            if sum(1 for w in adj2[v] if w in inverse) != want:
                continue
            mapping[u] = v
            inverse[v] = u
            shift(u, 1)
            if len(mapping) == n:
                return dict(mapping)
            stack.append(frame())
            break
        else:
            stack.pop()
            heapq.heappush(heap, (-count[u], u))
    return None


# --- element ranks and isometry extension ----------------------------------


@dataclass(frozen=True)
class RankTable:
    """Minimal member-set cardinality per element, for families containing the empty set."""

    rank: Mapping[str, int]
    witness: Mapping[str, frozenset[str]]

    def strata(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {}
        for x, k in self.rank.items():
            out.setdefault(k, []).append(x)
        return {k: tuple(sorted(xs)) for k, xs in sorted(out.items())}


def rank_table(fam: SetFamily) -> RankTable:
    from .families import well_graded_witness

    if frozenset() not in fam.sets:
        raise InputError("rank table needs the empty set in the family")
    if well_graded_witness(fam) is not None:
        raise InputError("rank table needs a well graded family")
    rank: dict[str, int] = {}
    witness: dict[str, frozenset] = {}
    for x in fam.ground:
        best = None
        for s in fam.sets:
            if x in s and (best is None or _set_key(s, fam.ground) < _set_key(best, fam.ground)):
                best = s
        if best is not None:
            rank[x] = len(best)
            witness[x] = best
    return RankTable(rank, witness)


def _set_key(s, ground):
    return (len(s), tuple(x in s for x in ground))


@dataclass(frozen=True)
class CubeIsometry:
    """An isometry of the cube of finite subsets: S -> perm(S ^ translation).

    Composition and inversion stay inside the type; every isometry of the
    cube factors this way.
    """

    ground: tuple[str, ...]
    translation: frozenset[str]
    perm: Mapping[str, str]

    def __post_init__(self):
        gset = frozenset(self.ground)
        if not self.translation <= gset:
            raise InputError("translation set must live inside the ground set")
        if set(self.perm) != set(gset) or set(self.perm.values()) != set(gset):
            raise InputError("perm must be a permutation of the ground set")

    @classmethod
    def identity(cls, ground: Iterable[str]) -> "CubeIsometry":
        ground = tuple(ground)
        return cls(ground, frozenset(), {x: x for x in ground})

    def apply(self, s: Iterable[str]) -> frozenset[str]:
        s = frozenset(s)
        if not s <= frozenset(self.ground):
            raise InputError("set uses elements outside the ground set")
        return frozenset(self.perm[x] for x in s ^ self.translation)

    def compose(self, other: "CubeIsometry") -> "CubeIsometry":
        """self after other: (self.compose(other)).apply(s) == self.apply(other.apply(s))."""
        if self.ground != other.ground:
            raise InputError("ground set mismatch")
        inv_other = {v: k for k, v in other.perm.items()}
        translation = other.translation ^ frozenset(inv_other[x] for x in self.translation)
        perm = {x: self.perm[other.perm[x]] for x in self.ground}
        return CubeIsometry(self.ground, translation, perm)

    def invert(self) -> "CubeIsometry":
        inv = {v: k for k, v in self.perm.items()}
        translation = frozenset(self.perm[x] for x in self.translation)
        return CubeIsometry(self.ground, translation, inv)


def extend_isometry(f1: SetFamily, f2: SetFamily,
                    alpha: Mapping[frozenset, frozenset]) -> CubeIsometry:
    """Extend a distance-preserving bijection between two well graded families
    on a common ground set to an isometry of the whole cube.

    After translating both families so the first member of f1 and its image
    go to the empty set, each element is matched through its minimal-rank
    witness sets; rank strata must map bijectively, elements untouched by f1
    are matched to the lexicographically least remaining targets.  The
    result is verified to reproduce alpha on all of f1; internal failures
    raise AssertionError since the construction cannot fail on valid input.
    """
    from .families import distance, translate, well_graded_witness

    if tuple(f1.ground) != tuple(f2.ground):
        raise InputError("families must share one ground set")
    if well_graded_witness(f1) is not None or well_graded_witness(f2) is not None:
        raise InputError("both families must be well graded")
    if set(alpha) != set(f1.sets) or set(alpha.values()) != set(f2.sets):
        raise InputError("alpha must be a bijection between the two families")
    sets1 = f1.sets
    for i in range(len(sets1)):
        for j in range(i + 1, len(sets1)):
            if distance(alpha[sets1[i]], alpha[sets1[j]]) != distance(sets1[i], sets1[j]):
                raise InputError("alpha is not distance-preserving")

    b1 = f1.sets[0]
    b2 = alpha[b1]
    shifted1 = translate(f1, b1)
    shifted2 = translate(f2, b2)
    lam = {p ^ b1: alpha[p] ^ b2 for p in f1.sets}

    ranks1 = rank_table(shifted1)
    ranks2 = rank_table(shifted2)
    perm: dict[str, str] = {}
    for x, a in ranks1.witness.items():
        smaller = a - {x}
        if smaller not in lam:
            raise AssertionError("minimal witness chain broken; construction defect")
        diff = lam[a] - lam[smaller]
        if len(diff) != 1 or not lam[smaller] <= lam[a]:
            raise AssertionError("image of a unit extension is not a unit extension")
        perm[x] = next(iter(diff))
    strata1 = ranks1.strata()
    strata2 = ranks2.strata()
    if sorted(strata1) != sorted(strata2):
        raise AssertionError("rank strata of the two families disagree")
    for k, xs in strata1.items():
        if tuple(sorted(perm[x] for x in xs)) != strata2[k]:
            raise AssertionError(f"stratum {k} does not map bijectively")
    untouched = [x for x in f1.ground if x not in perm]
    free = [y for y in f1.ground if y not in set(perm.values())]
    for x, y in zip(sorted(untouched), sorted(free)):
        perm[x] = y

    inv_perm = {v: k for k, v in perm.items()}
    translation = b1 ^ frozenset(inv_perm[y] for y in b2)
    iso = CubeIsometry(tuple(f1.ground), translation, perm)
    for p in f1.sets:
        if iso.apply(p) != alpha[p]:
            raise AssertionError("extension fails to reproduce alpha on the family")
    return iso
