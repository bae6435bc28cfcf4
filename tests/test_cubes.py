import itertools
import json
import random
import timeit
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from tokenmedia import cli
from tokenmedia.arrangements import enumerate_regions, mosaic_window, region_adjacency
from tokenmedia.cubes import (
    CubeIsometry,
    LabeledGraph,
    NotPartialCube,
    _geodesic,
    _odd_cycle,
    extend_isometry,
    graph_to_medium,
    is_partial_cube,
    media_isomorphic,
    medium_graph,
    to_dot,
)
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, distance, family_medium, is_well_graded, translate
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import straight_message

from conftest import (
    adjacency,
    assert_theta_violation,
    bfs_distances,
    dense_action,
    hexagon_family,
    hexagon_variant_family,
    power_set_family,
    random_wg_family,
    staircase_family,
    two_state,
    wg_families,
)
from name_partial_cube import PartialCubeResult, name_partial_cube


def three_loop_odd_cycle(parent, depth, u, w):
    """The former ``_odd_cycle``, kept as the oracle: the deeper end climbs
    to the other's depth, then both climb together until they meet."""
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
    return left + right[-2::-1]


def theta_scan_partial_cube(g: LabeledGraph) -> PartialCubeResult:
    """The reference recognizer: the O(E^2) Djokovic-Winkler Theta scan over
    an all-pairs distance table, the labeling BFS over the Theta classes and
    an exhaustive isometry check of that labeling."""
    if not g.vertices:
        raise InputError("empty graph")
    adj = adjacency(g)
    s0 = min(g.vertices)
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
        return PartialCubeResult(False, witness={"kind": "odd-cycle",
                                                 "cycle": three_loop_odd_cycle(parent, depth, *odd)})

    dist = {v: bfs_distances(adj, v) for v in g.vertices}
    edges = g.edges
    m = len(edges)
    masks = [0] * m
    for i in range(m):
        x, y = edges[i]
        dx, dy = dist[x], dist[y]
        masks[i] |= 1 << i  # Theta is reflexive
        for j in range(i + 1, m):
            u, v = edges[j]
            if dx[u] + dy[v] != dx[v] + dy[u]:
                masks[i] |= 1 << j
                masks[j] |= 1 << i

    for i in range(m):
        mi = masks[i]
        rest = mi & ~((1 << (i + 1)) - 1)  # check each related pair once
        while rest:
            b = rest & -rest
            rest ^= b
            j = b.bit_length() - 1
            if masks[j] != mi:
                d = masks[j] ^ mi
                k = (d & -d).bit_length() - 1
                if masks[j] >> k & 1:
                    triple = (edges[i], edges[j], edges[k])
                else:
                    triple = (edges[j], edges[i], edges[k])
                return PartialCubeResult(
                    False,
                    witness={"kind": "theta-violation", "edges": [list(e) for e in triple]},
                )

    # classes ordered by least edge; coordinate k sits on the side away from s0
    class_id: dict[int, str] = {}
    edge_classes: dict[tuple[str, str], str] = {}
    for i in range(m):
        cid = class_id.setdefault(masks[i], str(len(class_id)))
        edge_classes[edges[i]] = cid
    labels: dict[str, frozenset[str]] = {s0: frozenset()}
    order = [s0]
    queue = deque([s0])
    seen = {s0}
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                e = (u, w) if u < w else (w, u)
                labels[w] = labels[u] ^ {edge_classes[e]}
                order.append(w)
                queue.append(w)

    failure = isometry_failure(g, dist, labels, edge_classes)
    if failure is not None:
        return PartialCubeResult(False, witness=failure)
    return PartialCubeResult(True, labels=labels, edge_classes=edge_classes)


def isometry_failure(g, dist, labels, edge_classes):
    """The first vertex pair whose label distance is not its graph distance, or None."""
    bit = {cid: 1 << n for n, cid in enumerate(dict.fromkeys(edge_classes.values()))}
    lab_mask = {v: _or_bits(labels[v], bit) for v in g.vertices}
    verts = sorted(g.vertices)
    for a in range(len(verts)):
        da = dist[verts[a]]
        ma = lab_mask[verts[a]]
        for b in range(a + 1, len(verts)):
            if (ma ^ lab_mask[verts[b]]).bit_count() != da[verts[b]]:
                return {
                    "kind": "isometry-failure",
                    "pair": [verts[a], verts[b]],
                    "graph_distance": da[verts[b]],
                    "label_distance": (ma ^ lab_mask[verts[b]]).bit_count(),
                }
    return None


def _or_bits(s, bit):
    m = 0
    for x in s:
        m |= bit[x]
    return m


def k3():
    return LabeledGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


def c5():
    vs = tuple("abcde")
    return LabeledGraph(vs, tuple((vs[i], vs[(i + 1) % 5]) for i in range(5)))


def k23():
    left, right = ("a1", "a2"), ("b1", "b2", "b3")
    return LabeledGraph(left + right, tuple((a, b) for a in left for b in right))


class TestMediumGraph:
    def test_two_state_single_edge(self):
        g = medium_graph(two_state())
        assert g.edges == (("S", "T"),)
        assert g.edge_labels[("S", "T")] == ("t", "t~")

    def test_hexagon_is_a_six_cycle(self):
        g = medium_graph(family_medium(hexagon_family()))
        degrees = sorted(sum(1 for e in g.edges if v in e) for v in g.vertices)
        assert degrees == [2] * 6
        assert is_partial_cube(g).accepted

    def test_variant_graph_differs(self):
        g = medium_graph(family_medium(hexagon_variant_family()))
        degrees = sorted(sum(1 for e in g.edges if v in e) for v in g.vertices)
        assert degrees == [2, 2, 2, 2, 3, 3]

    def test_linear_medium_3_is_a_six_cycle(self):
        ts, _ = linear_medium(3)
        g = medium_graph(ts)
        assert len(g.edges) == 6
        assert all(sum(1 for e in g.edges if v in e) == 2 for v in g.vertices)


class TestPartialCubeRecognition:
    def test_six_cycle_accepts_with_three_classes(self):
        g = medium_graph(family_medium(hexagon_family()))
        pc = is_partial_cube(g)
        assert pc.accepted
        assert len(set(pc.edge_classes.values())) == 3
        sizes = sorted(len(pc.alpha[v]) for v in g.vertices)
        assert sizes == [0, 1, 1, 2, 2, 3]
        assert is_well_graded(SetFamily(("0", "1", "2"), tuple({pc.alpha[v] for v in g.vertices})))

    def test_k3_rejected_with_odd_cycle(self):
        pc = is_partial_cube(k3())
        assert not pc.accepted
        cycle = pc.witness["cycle"]
        assert len(cycle) % 2 == 1
        edges = set(k3().edges)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert ((u, v) if u < v else (v, u)) in edges

    def test_c5_rejected(self):
        pc = is_partial_cube(c5())
        assert not pc.accepted and pc.witness["kind"] == "odd-cycle"

    def test_k23_rejected_with_verifiable_theta_violation(self):
        # the overlap rule: the class of a1-b2 reaches a2-b3, which the class
        # of a1-b1 holds already
        g = k23()
        with mock.patch("tokenmedia.cubes._geodesic", wraps=_geodesic) as geodesic:
            pc = is_partial_cube(g)
        assert not geodesic.called
        assert pc.witness == {"kind": "theta-violation",
                              "edges": [["a1", "b2"], ["a2", "b3"], ["a1", "b1"]]}
        assert_theta_violation(g, pc.witness["edges"])
        assert_same_recognition(g)

    def test_k23_three_side_first_fails_the_certificate(self):
        # the two classes, of a0-b0 and a0-b1, are disjoint, but a1 and a2
        # get one label, so no class at a1 separates them; the geodesic
        # a1-b0-a2 crosses the class of a0-b1 twice
        left, right = ("a0", "a1", "a2"), ("b0", "b1")
        g = LabeledGraph(left + right, tuple((a, b) for a in left for b in right))
        with mock.patch("tokenmedia.cubes._geodesic", wraps=_geodesic) as geodesic:
            pc = is_partial_cube(g)
        geodesic.assert_called_once()
        assert pc.witness == {"kind": "theta-violation",
                              "edges": [["a1", "b0"], ["a0", "b1"], ["a2", "b0"]]}
        assert_theta_violation(g, pc.witness["edges"])
        assert_same_recognition(g)

    def test_linear7_with_a_k23_vertex_is_rejected_without_a_distance_table(self):
        # 5,041 vertices: an all-pairs table would hold 25M entries, so the
        # witness is replayed from BFS runs at its own endpoints only
        g = with_k23_vertex(medium_graph(linear_medium(7)[0]))
        pc = is_partial_cube(g)
        assert pc.witness["kind"] == "theta-violation"
        assert_theta_violation(g, pc.witness["edges"])

    def test_k23_has_no_small_isometric_labeling(self):
        # independent brute force: anchor one vertex at the empty set and try
        # every assignment of labels over five coordinates
        verts = ("b1", "a1", "a2", "b2", "b3")
        d = {}
        for u in verts:
            for v in verts:
                if u == v:
                    dd = 0
                elif u[0] == v[0]:
                    dd = 2
                else:
                    dd = 1
                d[(u, v)] = dd
        coords = list(range(5))
        singles = [frozenset([c]) for c in coords]
        pairs = [frozenset(p) for p in itertools.combinations(coords, 2)]
        found = False
        for la1, la2 in itertools.product(singles, repeat=2):
            for lb2, lb3 in itertools.product(pairs, repeat=2):
                labels = {"b1": frozenset(), "a1": la1, "a2": la2, "b2": lb2, "b3": lb3}
                if all(
                    len(labels[u] ^ labels[v]) == d[(u, v)]
                    for u, v in itertools.combinations(verts, 2)
                ):
                    found = True
        assert not found

    def test_connected_graph_with_odd_cycle_gets_odd_cycle_witness(self):
        # the BFS meets the odd edge b-c before it reaches d and e
        g = LabeledGraph.from_edge_list("a b\nb c\nc a\nc d\nd e\n")
        pc = is_partial_cube(g)
        assert not pc.accepted and pc.witness["kind"] == "odd-cycle"
        assert sorted(pc.witness["cycle"]) == ["a", "b", "c"]

    def test_disconnected_rejected(self):
        g = LabeledGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        with pytest.raises(InputError, match="connected"):
            is_partial_cube(g)

    def test_corpus_graphs_are_partial_cubes(self, corpus):
        for name, ts in corpus:
            g = medium_graph(ts)
            assert is_partial_cube(g).accepted, name
            assert_same_recognition(g)


def path_graph(n):
    """The path v0 - v1 - ... - v(n-1), from an edge list."""
    return LabeledGraph.from_edge_list("".join(f"v{k} v{k + 1}\n" for k in range(n - 1)))


class TestIntLabels:
    """A recognizer result keeps one int label per vertex, as the medium
    decision does; its label sets are built only when ``alpha`` is read."""

    def test_labels_are_ints_and_printing_builds_no_set(self):
        g = medium_graph(linear_medium(5)[0])
        pc = is_partial_cube(g)
        assert pc.accepted and len(pc.labels) == 120 and all(type(x) is int for x in pc.labels)
        assert pc.names == pc.ground == tuple(str(k) for k in range(pc.class_count))
        assert pc.to_json_dict() == name_partial_cube(g).to_json_dict()
        assert "alpha" not in vars(pc)
        alpha = pc.alpha  # built on first read, then kept
        assert vars(pc)["alpha"] is alpha and list(alpha) == list(pc.states)

    @pytest.mark.parametrize("build", [k23, c5], ids=["k23", "c5"])
    def test_a_rejected_graph_has_no_labels(self, build):
        pc = is_partial_cube(build())
        assert not pc.accepted
        assert pc.labels == () and pc.alpha is None and pc.family is None

    def test_a_600_vertex_path_peaks_within_3_mb(self):
        # its frozenset labels, 179,700 class names in all, peaked at about 12 MB
        g = path_graph(600)
        tracemalloc.start()
        try:
            pc = is_partial_cube(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pc.accepted and pc.class_count == 599
        assert peak <= 3_000_000, peak

    def test_pcube_prints_and_draws_the_oracle_labels(self, corpus, tmp_path, capsys):
        # stdout and the DOT tooltips against the frozenset labels of the name route
        for name, ts in [*corpus, ("linear-4", linear_medium(4)[0])]:
            g = medium_graph(ts)
            path, dot = tmp_path / "graph.json", tmp_path / "graph.dot"
            path.write_text(json.dumps(g.to_json_dict()))
            code = cli.main(["pcube", str(path), "--dot", str(dot)])
            out, err = capsys.readouterr()
            want = name_partial_cube(g)
            assert (code, err) == (0, ""), name
            assert out == json.dumps(want.to_json_dict(), sort_keys=True, indent=2) + "\n", name
            assert dot.read_text() == to_dot(LabeledGraph(g.vertices, g.edges, want.labels)), name


def random_bfs_tree(rng, n):
    """Parents and depths of a random tree on 0, .., n-1 rooted at 0, each
    vertex's parent one of the vertices a level above it, as in a BFS."""
    parent, depth, levels = [None], [0], [[0]]
    for v in range(1, n):
        level = rng.randrange(1, len(levels) + 1)
        parent.append(rng.choice(levels[level - 1]))
        depth.append(level)
        if level == len(levels):
            levels.append([])
        levels[level].append(v)
    return parent, depth


class TestOddCycle:
    def test_matches_the_three_loops_on_random_trees(self):
        rng = random.Random(46)
        ancestors = 0
        for _ in range(2_000):
            parent, depth = random_bfs_tree(rng, rng.randint(1, 40))
            names = [f"v{v}" for v in range(len(parent))]
            named_parent = {names[v]: None if p is None else names[p] for v, p in enumerate(parent)}
            named_depth = dict(zip(names, depth))
            for _ in range(5):
                u, w = rng.randrange(len(parent)), rng.randrange(len(parent))
                if rng.random() < 0.3:  # w an ancestor of u, or u itself
                    w = u
                    for _ in range(rng.randint(0, depth[u])):
                        w = parent[w]
                    ancestors += 1
                    u, w = (w, u) if rng.random() < 0.5 else (u, w)
                cycle = _odd_cycle(parent, depth, u, w)
                assert cycle == three_loop_odd_cycle(parent, depth, u, w)
                assert _odd_cycle(named_parent, named_depth, names[u], names[w]) == \
                    three_loop_odd_cycle(named_parent, named_depth, names[u], names[w]) == [names[v] for v in cycle]
        assert ancestors >= 2_000


@st.composite
def bipartite_graphs(draw):
    """Connected bipartite graphs on 1-10 vertices: a random tree plus random
    edges between its two colour classes, the vertices named at random."""
    n = draw(st.integers(1, 10))
    names = [f"v{k}" for k in draw(st.permutations(range(n)))]
    depth = [0]
    edges = []
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        depth.append(depth[p] + 1)
        edges.append((names[p], names[i]))
    across = [(names[a], names[b]) for a, b in itertools.combinations(range(n), 2)
              if (depth[a] ^ depth[b]) & 1]
    if across:
        edges += draw(st.lists(st.sampled_from(across), max_size=10))
    return LabeledGraph(tuple(names), tuple(edges))


@st.composite
def family_graphs(draw):
    """The graph of a well graded family's medium, as it is or with a new
    vertex "w" added: joined to three neighbours of one vertex (a K2,3, so
    no partial cube), or a two-edge detour between two vertices of one
    colour class."""
    fam = draw(wg_families(size=draw(st.sampled_from([None, 8, 16]))))
    if len(fam.sets) == 1:
        return LabeledGraph(("{}",), ())
    g = medium_graph(family_medium(fam))
    adj = adjacency(g)
    kind = draw(st.sampled_from(["plain", "k23", "detour"]))
    hubs = [v for v in g.vertices if len(adj[v]) >= 3]
    if kind == "k23" and hubs:
        hub = draw(st.sampled_from(hubs))
        ends = draw(st.permutations(adj[hub]))[:3]
    else:
        depth = bfs_distances(adj, g.vertices[0])
        alike = [(u, v) for u, v in itertools.combinations(g.vertices, 2)
                 if (depth[u] ^ depth[v]) & 1 == 0]
        if kind == "plain" or not alike:
            event("family")
            return LabeledGraph(g.vertices, g.edges)
        kind = "detour"
        ends = draw(st.sampled_from(alike))
    event(f"family + {kind}")
    return LabeledGraph(g.vertices + ("w",), g.edges + tuple(("w", x) for x in ends))


def assert_same_recognition(g):
    """The same verdict as the Theta scan; on acceptance the same labels and
    classes, on rejection the same witness kind, and an odd cycle or a
    theta-violation triple that checks out against the distance table."""
    fast, slow = is_partial_cube(g), theta_scan_partial_cube(g)
    assert fast.accepted == slow.accepted
    dist = {v: bfs_distances(adjacency(g), v) for v in g.vertices}
    if fast.accepted:
        assert fast.to_json_dict() == slow.to_json_dict()
        assert list(fast.alpha.items()) == list(slow.labels.items())
        assert list(fast.edge_classes.items()) == list(slow.edge_classes.items())
        assert isometry_failure(g, dist, fast.alpha, fast.edge_classes) is None
    elif fast.witness["kind"] == "theta-violation":
        assert slow.witness["kind"] == "theta-violation"
        assert_theta_violation(g, fast.witness["edges"], dist)
    else:
        assert fast.witness == slow.witness
    return fast


class TestClassRouteAgainstThetaScan:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(bipartite_graphs(), family_graphs()))
    def test_same_result(self, g):
        pc = assert_same_recognition(g)
        event("accepted" if pc.accepted else f"rejected: {pc.witness['kind']}")

    @pytest.mark.parametrize("build, classes", [
        (lambda: linear_medium(7)[0], 21),
        (lambda: family_medium(power_set_family("abcdefgh")), 8),
    ], ids=["linear7", "cube8"])
    def test_reference_sizes_match_the_decision(self, build, classes):
        # both routes name coordinates by least edge, from the least state
        ts = build()
        pc = is_partial_cube(medium_graph(ts))
        assert pc.accepted and pc.class_count == classes
        assert pc.alpha == decide_medium(ts).alpha


@st.composite
def any_graphs(draw):
    """Graphs on 1-9 vertices with any edges, the vertices named at random:
    most are disconnected or have an odd cycle."""
    n = draw(st.integers(1, 9))
    names = [f"v{k}" for k in draw(st.permutations(range(n)))]
    pairs = list(itertools.combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=14)) if pairs else []
    return LabeledGraph(tuple(names), tuple(edges))


def assert_matches_name_route(g):
    """The result of the name-keyed route ``name_partial_cube``, exactly: the
    verdict, the labels and edge classes in their order, the witness, or the
    same InputError."""
    try:
        want = name_partial_cube(g)
    except InputError as exc:
        with pytest.raises(InputError) as err:
            is_partial_cube(g)
        assert str(err.value) == str(exc)
        return None
    got = is_partial_cube(g)
    assert (got.accepted, got.witness) == (want.accepted, want.witness)
    if want.accepted:
        assert list(got.alpha.items()) == list(want.labels.items())
        assert list(got.edge_classes.items()) == list(want.edge_classes.items())
    return got


def mosaic_graph(kind, radius):
    arr = mosaic_window(kind, radius)
    return region_adjacency(arr, enumerate_regions(arr))


def with_k23_vertex(g):
    """g with a new vertex "w" joined to three neighbours of its first vertex."""
    ends = adjacency(g)[g.vertices[0]][:3]
    return LabeledGraph(g.vertices + ("w",), g.edges + tuple(("w", x) for x in ends))


class TestNumberedRouteAgainstNameRoute:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(bipartite_graphs(), family_graphs(), any_graphs()))
    def test_same_result(self, g):
        pc = assert_matches_name_route(g)
        event("disconnected" if pc is None else "accepted" if pc.accepted
              else f"rejected: {pc.witness['kind']}")

    @pytest.mark.parametrize("n", range(2, 8))
    def test_linear_media(self, n):
        assert assert_matches_name_route(medium_graph(linear_medium(n)[0])).accepted

    def test_cube8(self):
        assert assert_matches_name_route(medium_graph(family_medium(power_set_family("abcdefgh")))).accepted

    @pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
    @pytest.mark.parametrize("radius", [1, 2, 6, 12])
    def test_mosaic_windows(self, kind, radius):
        assert assert_matches_name_route(mosaic_graph(kind, radius)).accepted

    @pytest.mark.parametrize("build", [
        k23,
        lambda: LabeledGraph(("a0", "a1", "a2", "b0", "b1"),
                             tuple((a, b) for a in ("a0", "a1", "a2") for b in ("b0", "b1"))),
        lambda: with_k23_vertex(medium_graph(linear_medium(5)[0])),
        lambda: with_k23_vertex(mosaic_graph("triangular", 6)),
        k3,
        c5,
        lambda: LabeledGraph.from_edge_list("a b\nb c\nc a\nc d\nd e\n"),
        lambda: LabeledGraph(("a", "b", "c", "d"), (("a", "b"), ("c", "d"))),
    ], ids=["k23", "k23-three-side", "linear5+k23", "triangular6+k23", "k3", "c5", "odd-tail",
            "disconnected"])
    def test_negatives(self, build):
        pc = assert_matches_name_route(build())
        assert pc is None or not pc.accepted


class TestGraphToMedium:
    def test_single_edge(self):
        ts = graph_to_medium(LabeledGraph(("u", "v"), (("u", "v"),)))
        assert len(ts.states) == 2 and len(ts.tokens) == 2

    def test_path_of_length_two(self):
        ts = graph_to_medium(LabeledGraph(("u", "v", "w"), (("u", "v"), ("v", "w"))))
        assert len(ts.states) == 3 and len(ts.tokens) == 4
        assert decide_medium(ts).is_medium

    def test_reject_carries_witness(self):
        with pytest.raises(NotPartialCube) as err:
            graph_to_medium(k3())
        assert err.value.witness["kind"] == "odd-cycle"

    def test_round_trip_is_isomorphic(self, corpus):
        for name, ts in corpus:
            g = medium_graph(ts)
            again = graph_to_medium(LabeledGraph(g.vertices, g.edges))
            assert decide_medium(again).is_medium, name
            assert media_isomorphic(ts, again) is not None, name


class TestMediaIsomorphism:
    def test_hexagon_vs_variant(self):
        a = family_medium(hexagon_family())
        b = family_medium(hexagon_variant_family())
        assert media_isomorphic(a, b) is None

    def test_identity(self):
        ts = family_medium(staircase_family())
        alpha, beta = media_isomorphic(ts, ts)
        act = dense_action(ts)
        for t in ts.tokens:
            for s in ts.states:
                assert alpha[act[t][s]] == act[beta[t]][alpha[s]]

    def test_translated_power_set_media(self):
        fam = power_set_family("ab")
        shifted = translate(fam, {"a"})
        found = media_isomorphic(family_medium(fam), family_medium(shifted))
        assert found is not None

    def test_token_bijection_respects_reverses(self):
        ts, _ = linear_medium(3)
        other = family_medium(hexagon_family())
        found = media_isomorphic(ts, other)
        assert found is not None
        alpha, beta = found
        for t in ts.tokens:
            assert beta[ts.reverse[t]] == other.reverse[beta[t]]


class TestEdgeLabelsAndGeodesics:
    def test_edge_token_pairs_are_theta_constant(self, corpus):
        for name, ts in corpus:
            g = medium_graph(ts)
            pc = is_partial_cube(g)
            by_pair = {}
            for e, (t, tr) in g.edge_labels.items():
                by_pair.setdefault(frozenset((t, tr)), set()).add(pc.edge_classes[e])
            # same token pair <-> same class
            classes = [v for v in by_pair.values()]
            assert all(len(v) == 1 for v in classes), name
            flat = [next(iter(v)) for v in classes]
            assert len(set(flat)) == len(flat), name

    def test_straight_messages_realize_graph_distance(self, corpus):
        rng = random.Random(31)
        for name, ts in corpus:
            g = medium_graph(ts)
            adj = adjacency(g)
            states = list(ts.states)
            for _ in range(15):
                s, v = rng.sample(states, 2)
                msg = straight_message(ts, s, v)
                assert len(msg) == bfs_distances(adj, s)[v], name


class TestCubeIsometry:
    def test_identity_apply(self):
        iso = CubeIsometry.identity(("a", "b"))
        assert iso.apply({"a"}) == frozenset("a")

    def test_translation_apply(self):
        iso = CubeIsometry(("a", "b"), frozenset("a"), {"a": "a", "b": "b"})
        assert iso.apply({"a", "b"}) == frozenset("b")

    def test_compose_with_inverse_is_identity(self):
        rng = random.Random(3)
        ground = tuple("abcde")
        iso = CubeIsometry(ground, frozenset("bd"), dict(zip(ground, rng.sample(ground, 5))))
        both = iso.compose(iso.invert())
        for _ in range(20):
            s = frozenset(x for x in ground if rng.random() < 0.5)
            assert both.apply(s) == s
            assert iso.invert().apply(iso.apply(s)) == s

    def test_compose_order(self):
        ground = ("a", "b")
        f = CubeIsometry(ground, frozenset("a"), {"a": "b", "b": "a"})
        g = CubeIsometry(ground, frozenset("b"), {"a": "a", "b": "b"})
        s = frozenset("a")
        assert g.compose(f).apply(s) == g.apply(f.apply(s))

    def test_apply_costs_the_set_not_the_ground(self):
        # the subset test against a frozenset of the ground, built per call,
        # made a one-element set about 175 times slower at |X| = 10,000
        def best(size):
            iso = CubeIsometry.identity(f"x{k}" for k in range(size))
            return min(timeit.repeat(lambda: iso.apply(("x7",)), number=2000, repeat=5))

        small, large = best(100), best(10_000)
        assert large <= 5 * small, (small, large)

    def test_apply_rejects_a_set_outside_the_ground(self):
        with pytest.raises(InputError, match="outside the ground"):
            CubeIsometry.identity(("a", "b")).apply({"a", "c"})

    def test_ground_mismatch(self):
        f = CubeIsometry.identity(("a",))
        g = CubeIsometry.identity(("b",))
        with pytest.raises(InputError):
            f.compose(g)


class TestExtendIsometry:
    def test_tiny_relabeling(self):
        ground = ("a", "b")
        f1 = SetFamily.of(ground, [set(), {"a"}])
        f2 = SetFamily.of(ground, [set(), {"b"}])
        alpha = {frozenset(): frozenset(), frozenset("a"): frozenset("b")}
        iso = extend_isometry(f1, f2, alpha)
        assert iso.perm["a"] == "b"
        assert iso.apply(frozenset("a")) == frozenset("b")

    def test_identity_on_staircase(self):
        fam = staircase_family()
        alpha = {s: s for s in fam.sets}
        iso = extend_isometry(fam, fam, alpha)
        assert iso.translation == frozenset()
        assert all(iso.perm[x] == x for x in fam.ground)

    def test_random_isometries_reconstructed(self):
        rng = random.Random(2024)
        ground = tuple("abcde")
        for _ in range(60):
            fam = random_wg_family(rng, ground, rng.randint(2, 9))
            shift = frozenset(x for x in ground if rng.random() < 0.5)
            perm = dict(zip(ground, rng.sample(ground, len(ground))))
            sigma = CubeIsometry(ground, shift, perm)
            image = SetFamily(ground, tuple(sigma.apply(s) for s in fam.sets))
            alpha = {s: sigma.apply(s) for s in fam.sets}
            iso = extend_isometry(fam, image, alpha)
            for s in fam.sets:
                assert iso.apply(s) == alpha[s]
            probes = [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(12)]
            for p in probes:
                for q in probes:
                    assert distance(iso.apply(p), iso.apply(q)) == distance(p, q)

    def test_rejects_non_isometry(self):
        ground = ("a", "b")
        f1 = SetFamily.of(ground, [set(), {"a"}, {"a", "b"}])
        f2 = SetFamily.of(ground, [set(), {"a"}, {"b"}])
        alpha = dict(zip(f1.sets, f2.sets))
        with pytest.raises(InputError, match="distance"):
            extend_isometry(f1, f2, alpha)

    def test_rejects_ground_mismatch(self):
        f1 = SetFamily.of("ab", [set(), {"a"}])
        f2 = SetFamily.of("ac", [set(), {"a"}])
        with pytest.raises(InputError, match="ground"):
            extend_isometry(f1, f2, dict(zip(f1.sets, f2.sets)))


def test_dot_export_mentions_labels():
    g = medium_graph(two_state())
    pc = is_partial_cube(g)
    labeled = LabeledGraph(g.vertices, g.edges, pc.alpha, g.edge_labels)
    dot = to_dot(labeled)
    assert '"S" -- "T"' in dot
    assert "tooltip" in dot


def test_dot_export_escapes_quotes_and_backslashes():
    assert to_dot(LabeledGraph(('a"b', "c"), (('a"b', "c"),))) == \
        'graph g {\n  "a\\"b";\n  "c";\n  "a\\"b" -- "c";\n}\n'
    u, v = "x\\", 'y"'
    g = LabeledGraph((u, v), ((u, v),), {u: frozenset(), v: frozenset({'e"\\'})},
                     {(u, v): ('p\\', 'q"')})
    assert to_dot(g) == ('graph g {\n  "x\\\\" [tooltip="{}"];\n  "y\\"" [tooltip="{e\\"\\\\}"];\n'
                         '  "x\\\\" -- "y\\"" [label="p\\\\ / q\\""];\n}\n')
