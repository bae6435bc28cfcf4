"""Graphs of media, partial-cube recognition, isomorphism, and cube isometries.

Recognition builds the Djokovic-Winkler classes one at a time (uv Theta xy
when d(u,x) + d(v,y) != d(u,y) + d(v,x)), one BFS per class, labels every
vertex by the classes that separate it from the least vertex, and certifies
that labeling isometric with a well-gradedness test, in O(dim * E) and
without a distance table.  The labels stay ints, one per vertex, as in a
medium's decision (``FamilyRepresentation``).  A bipartite graph is a
partial cube iff Theta is transitive on it (Winkler), and either check that
fails names three edges e Theta f, f Theta h, not e Theta h: a class that
reaches an edge of an earlier class, or a pair of vertices that no class at
the first separates, whose geodesic crosses one class twice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, count
from typing import Iterable, Mapping

from .errors import CapError, InputError, ParseError, json_list
from .families import (ADD_PREFIX, REMOVE_PREFIX, FamilyRepresentation, SetFamily, _digits, _geodesic,
                       _moves_separate, well_graded_witness)
from .represent import decide_medium
from .tokens import TokenSystem

#: Units of coordinate-search work one ``media_isomorphic`` call may spend:
#: one per candidate image tried and one per completed label checked.  The
#: reference media spend a little over one per state (linear 7: 6,260 for 5,040).
ISO_WORK_BUDGET = 1_000_000


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
        vset = frozenset(self.vertices)
        if len(vset) != len(self.vertices):
            raise InputError("duplicate vertex ids")
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
            vertices = tuple(str(v) for v in json_list(doc["vertices"], "graph 'vertices'"))
            edges = json_list(doc["edges"], "graph 'edges'", inner=True)
            edges = tuple((str(u), str(v)) for (u, v) in edges)
            labels = None
            if "labels" in doc:
                labels = doc["labels"]
                if not isinstance(labels, dict) or set(labels) != set(vertices):
                    raise ParseError("labels must be an object whose keys are exactly the vertices")
                labels = {v: frozenset(str(x) for x in json_list(xs, f"the label of {v!r}"))
                          for v, xs in labels.items()}
            return cls(vertices, edges, labels)
        except (TypeError, ValueError, InputError) as exc:
            raise ParseError(f"bad graph: {exc}") from None

    @classmethod
    def from_edge_list(cls, text: str) -> "LabeledGraph":
        """Whitespace edge-list: one 'u v' pair per line; vertex order is first appearance."""
        edges = []
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(f"edge line needs exactly two vertex ids: {line!r}")
            edges.append((parts[0], parts[1]))
        return cls(tuple(dict.fromkeys(v for e in edges for v in e)), tuple(edges))


def _dot_string(s: str) -> str:
    """s as a DOT quoted string: backslashes and double quotes escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: LabeledGraph) -> str:
    """Deterministic DOT export; vertex labels become tooltips."""
    lines = ["graph g {"]
    for v in g.vertices:
        attrs = ""
        if g.vertex_labels is not None:
            attrs = f" [tooltip={_dot_string('{' + ','.join(sorted(g.vertex_labels[v])) + '}')}]"
        lines.append(f"  {_dot_string(v)}{attrs};")
    for (u, v) in g.edges:
        attrs = ""
        if g.edge_labels is not None and (u, v) in g.edge_labels:
            attrs = f" [label={_dot_string(' / '.join(g.edge_labels[(u, v)]))}]"
        lines.append(f"  {_dot_string(u)} -- {_dot_string(v)}{attrs};")
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
            old = pair_of.setdefault(e, label)
            if old != label and old != label[::-1]:
                raise InputError(f"edge {e!r} carries two token pairs; not a medium")
    return LabeledGraph(ts.states, tuple(pair_of), edge_labels=pair_of)


@dataclass(frozen=True)
class PartialCubeResult(FamilyRepresentation):
    accepted: bool
    edge_classes: Mapping[tuple[str, str], str] | None = None
    witness: Mapping | None = None

    @property
    def class_count(self) -> int:
        return len(set(self.edge_classes.values())) if self.edge_classes else 0

    def to_json_dict(self) -> dict:
        if self.accepted:
            return {"partial_cube": True, "labels": self.label_map()}
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

    - when the class of a new least edge e reaches edges of earlier classes,
      the least of them f in a class with least edge h, the witness is
      [e, f, h];
    - when no class at p separates p from q, the first edge f of a geodesic
      from p to q lies in a class, with least edge h, that the geodesic
      crosses again, first at g; two edges of one geodesic are never in
      relation Theta, so the witness is [f, h, g].
    """
    if not g.vertices:
        raise InputError("empty graph")
    # vertices numbered in name order: as the edges are sorted, one pass
    # lists each vertex's neighbours in name order, each with its edge number
    names = sorted(g.vertices)
    number = dict(zip(names, count()))
    adj: list[list[tuple[int, int]]] = [[] for _ in names]
    for f, (u, v) in enumerate(g.edges):
        adj[number[u]].append((number[v], f))
        adj[number[v]].append((number[u], f))
    # single BFS from the least vertex, ``order`` its queue: connectivity,
    # bipartition, parents for odd-cycle extraction; it runs past the first
    # odd edge, kept as the witness, so that connectivity is tested on every vertex
    n = len(names)
    parent, up, depth = [0] * n, [0] * n, [0] + [-1] * (n - 1)
    order, odd = [0], None
    for u in order:
        for w, f in adj[u]:
            if depth[w] < 0:
                depth[w] = depth[u] + 1
                parent[w], up[w] = u, f
                order.append(w)
            elif (depth[w] ^ depth[u]) & 1 == 0 and odd is None:
                odd = (u, w)
    if len(order) != n:
        raise InputError("graph must be connected")
    if odd is not None:
        cycle = [names[v] for v in _odd_cycle(parent, depth, *odd)]
        return PartialCubeResult(False, witness={"kind": "odd-cycle", "cycle": cycle})
    # in a bipartite graph uv Theta xy iff u and v lie on different sides of
    # the cut {w : d(w,x) < d(w,y)}, which one BFS from both ends finds; it
    # meets each edge across the cut from both sides and keeps it from x's.
    # Classes are numbered by their least edge.  Disjoint cuts each hold a
    # BFS-tree edge, so at most S - 1 classes come before one overlaps.
    edges = g.edges
    cls: list[int | None] = [None] * len(edges)
    least: list[int] = []  # the least edge of each class
    toggles = [0] * n  # the classes with an edge at each vertex
    for e, (x, y) in enumerate(edges):
        if cls[e] is not None:
            continue
        width, clash = len(least), len(edges)
        side: list[int | None] = [None] * n
        side[number[x]], side[number[y]] = 0, 1
        queue = [number[x], number[y]]
        for u in queue:
            for w, f in adj[u]:
                if side[w] is None:
                    side[w] = side[u]
                    queue.append(w)
                elif side[w] > side[u]:
                    if cls[f] is None:
                        cls[f] = width
                        toggles[u] |= 1 << width
                        toggles[w] |= 1 << width
                    elif f < clash:
                        clash = f
        if clash < len(edges):
            return _theta_violation(edges, e, clash, least[cls[clash]])
        least.append(e)
    width = len(least)
    # labels along the BFS tree; as the classes are disjoint cuts, bit k of a
    # label says which side of cut k the vertex is on, so every edge flips
    # exactly its own class bit
    lab = [0] * n
    for w in order[1:]:
        lab[w] = lab[parent[w]] ^ 1 << cls[up[w]]
    labels = tuple(map(lab.__getitem__, order))
    pair = _moves_separate(labels, [toggles[v] for v in order], width)
    if pair is not None:
        # the class of the first step does not separate p from q, so the
        # geodesic flips its bit back on a later step
        steps = _geodesic(adj, order[pair[1]], order[pair[0]])
        k = cls[steps[0]]
        return _theta_violation(edges, steps[0], least[k], next(f for f in steps[1:] if cls[f] == k))
    coords = tuple(map(str, range(width)))
    return PartialCubeResult(True, ground=coords, names=coords, states=tuple(map(names.__getitem__, order)),
                             labels=labels, edge_classes=dict(zip(edges, map(coords.__getitem__, cls))))


def _theta_violation(edges, *triple):
    """The witness of three edges, given by number."""
    return PartialCubeResult(False, witness={"kind": "theta-violation", "edges": [list(edges[f]) for f in triple]})


def _odd_cycle(parent, depth, u, w):
    """The edge u-w closed into a cycle by the tree paths up from u and w."""
    left, right = [u], [w]
    while left[-1] != right[-1]:  # the deeper end climbs
        path = left if depth[left[-1]] >= depth[right[-1]] else right
        path.append(parent[path[-1]])
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
    label = dict(zip(pc.states, pc.labels))
    ups: list[dict[str, str]] = [{} for _ in pc.names]
    for u, v in g.edges:  # the ends' labels differ in one bit, the edge's class
        if label[u] > label[v]:
            u, v = v, u
        ups[(label[u] ^ label[v]).bit_length() - 1][u] = v
    return TokenSystem.from_pairs(g.vertices, ((ADD_PREFIX + k, REMOVE_PREFIX + k, up)
                                               for k, up in zip(pc.names, ups)))


# --- isomorphism -----------------------------------------------------------


def media_isomorphic(ts1: TokenSystem, ts2: TokenSystem):
    """A state/token isomorphism between two verified media, or None.

    A medium's well-graded representation is unique up to a cube isometry,
    so the media are isomorphic iff, once translations take a state s0 of
    ts1 and its image b to the empty set, a permutation pi of coordinates
    carries ts1's canonical labels (``decide_medium``) onto ts2's.  Colour
    refinement of both graphs' moves as one graph (``_joint_colours``, by
    splitting, O(E log S)) must leave every class with as many states of
    ts1 as of ts2; s0 has the rarest colour and b runs over ts2's states of
    that colour.  ts1's coordinates are numbered by first appearance in its
    labels, nearest s0 first.  The first label holding x, minus x, is x's
    anchor, so pi(x) must move the anchor's image, and every label whose last
    coordinate is x must then land on a state of ts2 of its own state's
    colour.  beta(t) is ts2's token moving the same way along pi(x).  Both
    inputs are verified first, so a non-medium raises InputError.  The
    searches over every b share one count of work, and past
    ``ISO_WORK_BUDGET`` units they raise CapError; each unit is at most one
    label image, so the budget bounds the time of the only step whose cost
    is not polynomial in the input.
    """
    states1, states2 = ts1.states, ts2.states
    n = len(states1)
    d1, d2 = decide_medium(ts1), decide_medium(ts2)
    if not (d1.is_medium and d2.is_medium):
        raise InputError("media_isomorphic expects verified media")
    if n != len(states2) or len(ts1.tokens) != len(ts2.tokens):
        return None
    # in a medium a token pair's moves are one Theta class of its graph, and
    # each edge is two moves, so equal move counts also mean equal edge counts
    moves1, moves2 = ts1._index_moves, ts2._index_moves
    if sorted(map(len, moves1.values())) != sorted(map(len, moves2.values())):
        return None
    colour1, colour2 = _joint_colours(ts1, ts2)
    if colour1 is None:
        return None
    width = len(d1.sides)
    bit2 = {t: 1 << y for y, pair in enumerate(d2.sides) for t in pair}
    go2: dict[str, list[int]] = {v: [] for v in states2}  # the coordinate bits moving each state
    ends = sorted((states2[j], states2[k], bit2[u]) for u, ms in moves2.items() for j, k in ms)
    for v, _, y in ends:  # in order of the target's name
        go2[v].append(y)
    tally = Counter(colour1.values())
    s0 = min(states1, key=lambda s: (tally[colour1[s]], s))
    base = d1.labels[ts1._index[s0]]
    shifted = [(s, m ^ base) for s, m in zip(states1, d1.labels)]
    seen, level, steps = 0, [0] * width, []  # steps: (coordinate, anchor, labels it completes)
    for s, m in sorted(shifted, key=lambda sm: (sm[1].bit_count(), sm[0])):
        if m & ~seen:  # m's geodesic from 0 passes a label one smaller, so m adds one new coordinate
            x = (m & ~seen).bit_length() - 1
            level[x] = len(steps)
            steps.append((x, m ^ 1 << x, []))
            seen |= m
        if m:
            steps[max(compress(level, _digits(m, width)))][2].append((m, colour1[s]))
    where2 = dict(zip(d2.labels, states2))
    work = count(1)
    for b in sorted(states2):
        shift = d2.labels[ts2._index[b]]
        if colour2[b] == colour1[s0]:
            pi = _coordinate_search(steps, go2, where2, colour2, shift, work)
            if pi is not None:
                break
    else:
        return None
    alpha = {s: where2[sum(compress(pi, _digits(m, width))) ^ shift] for s, m in shifted}
    beta = dict.fromkeys(ts1.tokens)
    for x, pair in enumerate(d1.sides):
        y = pi[x].bit_length() - 1
        for side, t in enumerate(pair):  # t keeps its side iff both translations agree on x
            beta[t] = d2.sides[y][side ^ (base >> x & 1) ^ (shift >> y & 1)]
    return alpha, beta


def _joint_colours(ts1, ts2):
    """Colour refinement of the graphs read off both move indexes, as one
    graph: each state's colour (its class number) by name, in the coarsest
    equitable partition, which rounds of recolouring from the degrees reach;
    or (None, None) as soon as a class holds unequal numbers of states of
    the two graphs, as the stable classes then would too.  Classes are
    split against one splitter class at a time, by each state's number of
    neighbours in it; a split class goes back on the queue whole if it waits
    there, else all its parts but the largest, whose counts the others imply
    (Hopcroft; Paige and Tarjan).  That is O(E log S) steps, where rounds
    cost E each for as long as the partition grows (500 rounds on a
    1,000-state path)."""
    n1 = len(ts1.states)
    if n1 != len(ts2.states):
        return None, None
    adj: list[list[int]] = [[] for _ in range(2 * n1)]
    for ts, shift in ((ts1, 0), (ts2, n1)):
        for ms in ts._index_moves.values():
            for i, j in ms:  # a medium's moves come in reverse pairs, so adj is symmetric
                adj[i + shift].append(j + shift)
    side = [1] * n1 + [-1] * n1
    colour = [0] * len(adj)
    members: list[set[int]] = [set(range(len(adj)))]
    queue, waiting = [0], {0}
    while queue:
        splitter = queue.pop()
        waiting.discard(splitter)
        touched: list[int] = []
        for j in members[splitter]:
            touched += adj[j]
        groups: dict[int, dict[int, list[int]]] = {}  # old class -> count -> states
        for i, c in Counter(touched).items():
            groups.setdefault(colour[i], {}).setdefault(c, []).append(i)
        for old, by_count in groups.items():
            parts = list(by_count.values())
            rest = len(members[old]) - sum(map(len, parts))
            if not rest:
                if len(parts) == 1:
                    continue
                rest = len(parts.pop())  # the last count group keeps the old class
            sizes = [(rest, old)]
            for part in parts:
                if sum(map(side.__getitem__, part)):
                    return None, None
                new = len(members)
                members[old].difference_update(part)
                members.append(set(part))
                for i in part:
                    colour[i] = new
                sizes.append((len(part), new))
            if old not in waiting:
                sizes.remove(max(sizes))
            for _, c in sizes:
                if c not in waiting:
                    waiting.add(c)
                    queue.append(c)
    return dict(zip(ts1.states, colour)), dict(zip(ts2.states, colour[n1:]))


def _coordinate_search(steps, go2, where2, colour2, shift, work):
    """A map pi from ts1's coordinates to ts2's, or None, by backtracking on
    an explicit stack: each step's coordinate goes to an unused one moving
    its anchor's image, and the labels it completes must land on states of
    their own colours in ts2's family.  ``pi[x]`` is the bit of x's image,
    0 while x is unmapped, and ``used`` holds the images as one int.  Each
    candidate image tried and each completed label checked is one unit of
    ``work`` (``_spend``)."""
    pi, used = [0] * len(steps), 0

    def image(m):
        return sum(compress(pi, _digits(m, len(pi)))) ^ shift

    def lands(m, c):
        _spend(work)
        return colour2.get(where2.get(image(m))) == c

    stack = [iter(go2[where2[shift]])]
    while stack:
        x, _, completed = steps[len(stack) - 1]
        used &= ~pi[x]  # back from a failed subtree: free x's image
        for y in stack[-1]:
            _spend(work)
            pi[x] = y
            if not used & y and all(lands(m, c) for m, c in completed):
                used |= y
                if len(stack) == len(steps):
                    return pi
                stack.append(iter(go2[where2[image(steps[len(stack)][1])]]))
                break
        else:
            pi[x] = 0
            stack.pop()
    return None


def _spend(work):
    """Count one unit of the shared counter ``work``; past the budget, raise CapError."""
    if next(work) > ISO_WORK_BUDGET:
        raise CapError(f"isomorphism search over its budget of {ISO_WORK_BUDGET} work units")


# --- isometry extension ---------------------------------------------------


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
        if set(self.perm) != gset or set(self.perm.values()) != gset:
            raise InputError("perm must be a permutation of the ground set")

    @classmethod
    def identity(cls, ground: Iterable[str]) -> "CubeIsometry":
        ground = tuple(ground)
        return cls(ground, frozenset(), {x: x for x in ground})

    def apply(self, s: Iterable[str]) -> frozenset[str]:
        s = frozenset(s)
        if not s <= self.perm.keys():  # the keys are the ground (``__post_init__``)
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

    Such a map is a cube isometry S -> perm(S ^ translation), so it is read
    off f1's edges: along every edge p -> p + {x} of f1 the images must
    differ in exactly one element y, and x -> y must be one injective map.
    Elements that move on no edge of f1 take the least remaining targets, in
    sorted order, and the translation sends the first member of f1 to its
    image.  The result must reproduce alpha on every member of f1.  With the
    well-gradedness tests this is O(|F| * |X|) set and bitset operations;
    any failure raises InputError.
    """
    if tuple(f1.ground) != tuple(f2.ground):
        raise InputError("families must share one ground set")
    if well_graded_witness(f1) is not None or well_graded_witness(f2) is not None:
        raise InputError("both families must be well graded")
    if set(alpha) != set(f1.sets) or set(alpha.values()) != set(f2.sets):
        raise InputError("alpha must be a bijection between the two families")
    ground = tuple(f1.ground)
    members = set(f1.sets)
    steps: dict[str, frozenset] = {}  # the image's toggle along each element's edges
    for p in f1.sets:
        for x in ground:
            if x not in p and (up := p | {x}) in members:
                step = alpha[p] ^ alpha[up]
                if len(step) != 1 or steps.setdefault(x, step) != step:
                    raise InputError("alpha is not distance-preserving")
    perm = {x: y for x, (y,) in steps.items()}
    targets = set(perm.values())
    if len(targets) != len(perm):
        raise InputError("alpha is not distance-preserving")
    free = sorted(y for y in ground if y not in targets)
    perm.update(zip(sorted(x for x in ground if x not in perm), free))
    inv_perm = {y: x for x, y in perm.items()}
    b1 = f1.sets[0]
    iso = CubeIsometry(ground, b1 ^ frozenset(map(inv_perm.__getitem__, alpha[b1])), perm)
    if any(iso.apply(p) != alpha[p] for p in f1.sets):
        raise InputError("alpha is not distance-preserving")
    return iso
