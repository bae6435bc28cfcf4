"""Exact output oracles, written apart from the code under test.

Each check takes the parsed output of one job plus what the benchmark knows
from constructing the input, and returns None when the output is right or a
one-line reason when it is not.  Nothing here imports tokenmedia.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

# --- set families and token systems ------------------------------------------


def is_well_graded(sets) -> bool:
    """Every ordered pair P != Q has a member one toggle from P toward Q."""
    members = set(sets)
    for p in members:
        for q in members:
            if p != q and not any(p ^ {x} in members for x in p ^ q):
                return False
    return True


def grows_well_graded(members: set, candidate: frozenset) -> bool:
    """Whether adding candidate to a well graded family keeps it well graded.

    Adding a set only adds first steps for pairs already present, so only
    pairs that involve the candidate need checking.
    """
    bigger = members | {candidate}
    for q in members:
        gap = candidate ^ q
        if not any(candidate ^ {x} in bigger for x in gap):
            return False
        if not any(q ^ {x} in bigger for x in gap):
            return False
    return True


def moves(action_row: dict) -> frozenset:
    return frozenset((s, v) for s, v in action_row.items() if s != v)


def m1_holds(doc: dict) -> bool:
    """Axiom M1 on a token-system document: each declared reverse is the unique
    token whose moves are the inverted moves of the token."""
    rev = {t["id"]: t["reverse"] for t in doc["tokens"]}
    mv = {t: moves(row) for t, row in doc["action"].items()}
    for t, m in mv.items():
        inverted = frozenset((v, s) for (s, v) in m)
        cands = [u for u in mv if mv[u] == inverted]
        if cands != [rev[t]]:
            return False
    return True


def edge_set(doc: dict) -> set:
    """Undirected state pairs joined by some token of a token-system document."""
    out = set()
    for row in doc["action"].values():
        for s, v in row.items():
            if s != v:
                out.add(frozenset((s, v)))
    return out


def _flips_one(a, b) -> bool:
    return len(set(a) ^ set(b)) == 1


def check_labels(doc: dict, labels: dict) -> str | None:
    """Labels are injective and every edge of the system flips one coordinate."""
    if set(labels) != set(doc["states"]):
        return "labels do not cover the states"
    if len({frozenset(v) for v in labels.values()}) != len(labels):
        return "labels are not injective"
    for e in edge_set(doc):
        u, v = tuple(e)
        if not _flips_one(labels[u], labels[v]):
            return f"edge {u}-{v} does not flip exactly one coordinate"
    return None


def check_represent(doc: dict, out: dict) -> str | None:
    """Replay the representation: each token adds or removes its element
    exactly when the result is a member, and fixes the state otherwise."""
    alpha = {s: frozenset(xs) for s, xs in out["alpha"].items()}
    bad = check_labels(doc, out["alpha"])
    if bad:
        return bad
    if alpha[out["base"]]:
        return "base state does not map to the empty set"
    members = {frozenset(s) for s in out["family"]["sets"]}
    if members != set(alpha.values()):
        return "family is not the image of alpha"
    for t, row in doc["action"].items():
        x, pol = out["beta"][t]["element"], out["beta"][t]["polarity"]
        for s, v in row.items():
            image = alpha[s]
            moved = image | {x} if pol == "add" else image - {x}
            expected = moved if moved != image and moved in members else image
            if alpha[v] != expected:
                return f"token {t} at state {s} disagrees with its coordinate"
    return None


def check_graph(doc: dict, out: dict) -> str | None:
    if out["vertices"] != doc["states"]:
        return "graph vertices are not the states"
    if {frozenset(e) for e in out["edges"]} != edge_set(doc):
        return "graph edges are not the moved pairs"
    return check_labels(doc, out["labels"])


def check_iso(first: dict, second: dict, out: dict) -> str | None:
    """Replay the state and token maps over both action tables."""
    alpha, beta = out["alpha"], out["beta"]
    if sorted(alpha) != sorted(first["states"]) or sorted(alpha.values()) != sorted(second["states"]):
        return "alpha is not a bijection of the states"
    if sorted(beta) != sorted(first["action"]) or sorted(beta.values()) != sorted(second["action"]):
        return "beta is not a bijection of the tokens"
    act2 = second["action"]
    for t, row in first["action"].items():
        for s, v in row.items():
            if alpha[v] != act2[beta[t]][alpha[s]]:
                return f"token {t} at state {s} is not transported"
    return None


def check_linear_medium(n: int, out: dict) -> str | None:
    """The medium of linear orders, rebuilt from its definition."""
    elements = [str(i) for i in range(1, n + 1)]
    perms = ["".join(p) for p in itertools.permutations(elements)]
    if sorted(out["states"]) != sorted(perms):
        return "states are not the permutations"
    want = {f"t:{x}<{y}": f"t:{y}<{x}" for x in elements for y in elements if x != y}
    if {t["id"]: t["reverse"] for t in out["tokens"]} != want:
        return "tokens or reverse pairs are wrong"
    for t, row in out["action"].items():
        x, y = t[2:].split("<")
        for p, image in row.items():
            i = p.find(y)
            swapped = p[:i] + x + y + p[i + 2:] if p[i + 1:i + 2] == x else p
            if image != swapped:
                return f"token {t} at {p} is not the adjacent swap"
    ground = [f"{x}<{y}" for i, x in enumerate(elements) for y in elements[i + 1:]]
    if out["family"]["ground"] != ground:
        return "family ground is not the base pairs"
    for p, got in zip(out["states"], out["family"]["sets"]):
        enc = [g for g in ground if p.index(g[0]) < p.index(g[2])]
        if got != enc:
            return f"family set of {p} is not its encoding"
    return None


# --- graphs ----------------------------------------------------------------


def adjacency(edges):
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def check_partial_cube(edges, out: dict) -> str | None:
    """An accepted labeling is injective, flips one coordinate per edge, and
    is isometric: label distance equals graph distance for every pair."""
    labels = out["labels"]
    adj = adjacency(edges)
    if set(labels) != set(adj):
        return "labels do not cover the vertices"
    bit = {x: 1 << i for i, x in enumerate(sorted({x for xs in labels.values() for x in xs}))}
    mask = {v: sum(bit[x] for x in xs) for v, xs in labels.items()}
    if len(set(mask.values())) != len(mask):
        return "labels are not injective"
    for u in adj:
        mu = mask[u]
        for w, d in _distances(adj, u).items():
            if (mu ^ mask[w]).bit_count() != d:
                return f"label distance of {u},{w} is not the graph distance"
    return None


def check_not_partial_cube(edges, out: dict, bipartite: bool) -> str | None:
    """A rejection carries a witness that replays on the graph."""
    if out.get("partial_cube") is not False:
        return "graph accepted as a partial cube"
    witness = out["witness"]
    adj = adjacency(edges)
    kind = witness.get("kind")
    if kind == "odd-cycle":
        cycle = witness["cycle"]
        if bipartite or len(cycle) % 2 == 0:
            return "odd-cycle witness on a bipartite graph or of even length"
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if b not in adj.get(a, ()):
                return f"odd-cycle witness uses a non-edge {a}-{b}"
    elif not bipartite:
        return f"non-bipartite graph rejected with a {kind} witness"
    elif kind == "theta-violation":
        e1, e2, e3 = witness["edges"]
        for u, v in (e1, e2, e3):
            if v not in adj.get(u, ()):
                return "theta witness uses a non-edge"
        dist = {v: _distances(adj, v) for v in {x for e in (e1, e2, e3) for x in e}}

        def theta(e, f):
            (u, v), (x, y) = e, f
            return dist[u][x] + dist[v][y] != dist[u][y] + dist[v][x]

        if not (theta(e1, e2) and theta(e2, e3)) or theta(e1, e3):
            return "theta witness does not break transitivity"
    return None


# --- line arrangements ---------------------------------------------------------


def line_triples(doc_lines) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [(Fraction(d["a"]), Fraction(d["b"]), Fraction(d["c"])) for d in doc_lines]


def mosaic_lines(kind: str, radius: int) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Window of a mosaic family as documented: every line of each pencil
    whose distance from the origin is at most the radius."""
    pencils = {"triangular": [(0, 1), (-1, 1), (-1, 2)],
               "truncated-square": [(1, 0), (0, 1), (1, 1), (1, -1)]}[kind]
    out = []
    for a, b in pencils:
        t = 0
        while t * t <= radius * radius * (a * a + b * b):
            for c in ((-t, t) if t else (0,)):
                out.append((Fraction(a), Fraction(b), Fraction(c)))
            t += 1
    return out


def crossing(l1, l2):
    """The exact crossing point of two lines a*x + b*y + c = 0, or None if parallel."""
    (a1, b1, c1), (a2, b2, c2) = l1, l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    return ((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)


def arrangement_counts(lines) -> tuple[int, int]:
    """Region and region-graph edge counts from one exact pass over line pairs.

    Regions: 1 + L + sum over crossing points p of (m_p - 1), with m_p the
    lines through p.  Edges: each line is cut into one more piece than it has
    distinct crossing points, and each piece separates two regions.
    """
    through: dict = {}
    on_line = [set() for _ in lines]
    for i, j in itertools.combinations(range(len(lines)), 2):
        point = crossing(lines[i], lines[j])
        if point is None:
            continue
        through.setdefault(point, set()).update((i, j))
        on_line[i].add(point)
        on_line[j].add(point)
    regions = 1 + len(lines) + sum(len(m) - 1 for m in through.values())
    edges = sum(len(points) + 1 for points in on_line)
    return regions, edges


def check_arrangement(lines, out: dict) -> str | None:
    if line_triples(out["lines"]) != list(lines):
        return "output lines differ from the input lines"
    want_regions, want_edges = arrangement_counts(lines)
    regions = out["regions"]
    if len(regions) != want_regions:
        return f"{len(regions)} regions, expected {want_regions}"
    by_name = {}
    for r in regions:
        signs = r["signs"]
        x, y = Fraction(r["witness"][0]), Fraction(r["witness"][1])
        for (a, b, c), s in zip(lines, signs):
            value = a * x + b * y + c
            if value == 0 or (value > 0) != (s == "+"):
                return f"witness of region {signs} is not strictly on its side"
        positive = [i + 1 for i, s in enumerate(signs) if s == "+"]
        if r["positive"] != [str(i) for i in positive]:
            return f"positive indices of region {signs} are wrong"
        by_name["{" + ",".join(map(str, positive)) + "}"] = signs
    if len(by_name) != len(regions):
        return "two regions share a sign vector"
    graph = out["graph"]
    if sorted(graph["vertices"]) != sorted(by_name):
        return "graph vertices are not the regions"
    if len(graph["edges"]) != want_edges:
        return f"{len(graph['edges'])} region-graph edges, expected {want_edges}"
    for u, v in graph["edges"]:
        if sum(p != q for p, q in zip(by_name[u], by_name[v])) != 1:
            return f"edge {u}-{v} does not cross exactly one line"
    if len(out["system"]["states"]) != want_regions:
        return "medium states are not the regions"
    return None
