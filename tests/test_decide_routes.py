"""The token-pair decision against the Djokovic-Winkler reference route,
and the isomorphism search against its vertex-scan reference.

``decide_medium`` labels states by token pairs; ``theta_decision`` labels
them by the Theta classes of the state graph, here found by the Theta-scan
oracle ``theta_scan_partial_cube`` so that the reference shares no
recognition code with the library.  Both must give the same verdict and the
same canonical representation.  On a system that fails M1 or is
disconnected they give the same witness; past those ``decide_medium`` names
the first failing axiom, read off token-pair potentials, whose witness must
replay, and ``pair_rejection`` checks that the Theta route rejects too.
``media_isomorphic`` searches over coordinates of the canonical labels; it
must find a map exactly when the vertex-by-vertex ``scan_graph_iso`` on the
two graphs does, every map it returns must replay both action tables, and it
must agree with networkx on the graphs.  Colour refinement prunes that
search: the spider tests bound the lines it may run, and one test gives
every state one colour to reach the search's dead ends.  The search's work
units (``cubes._spend``) must grow linearly with the states, and past
``ISO_WORK_BUDGET`` of them it is a cap.
"""

import random
import sys
from collections import deque
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from tokenmedia import cubes
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.cubes import LabeledGraph, media_isomorphic, medium_graph
from tokenmedia.errors import CapError, InputError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import TokenSystem, reverse_defect

from conftest import adjacency, corpus_media, dense_action, lines_at_most, two_state, wg_families
from frozenset_labels import SetDecision, assert_reads_the_same
from test_cubes import theta_scan_partial_cube
from test_exact_check import assert_witness_replays


# --- the Djokovic-Winkler reference decision ----------------------------------


def pair_rejection(ts: TokenSystem) -> SetDecision:
    """The Theta route's rejection of a system the token-pair route rejected
    after M1 and connectivity."""
    decision = theta_route(ts)
    if decision.is_medium:
        raise AssertionError("the token-pair route rejected a system the Theta route accepts")
    return decision


def theta_decision(ts: TokenSystem) -> SetDecision:
    """The Djokovic-Winkler reference decision: exact M1 check, then ``theta_route``."""
    defect = reverse_defect(ts)
    return theta_route(ts) if defect is None else SetDecision(False, witness=defect)


def theta_route(ts: TokenSystem) -> SetDecision:
    """The Djokovic-Winkler route on a system that passed M1.

    Connectivity, partial-cube recognition of the state graph, then a
    per-token match against the add/remove reduction of its coordinate (the
    fixed-point direction of this match is what rules out systems whose
    graph is a partial cube but whose action is wrong).  On yes, the
    partial-cube labeling is the representation.
    """
    states = ts.states
    edges = set()
    for ms in ts._index_moves.values():
        for i, j in ms:
            s, v = states[i], states[j]
            edges.add((s, v) if s < v else (v, s))
    reached = {states[0]}
    queue = deque(reached)
    adj: dict[str, list[str]] = {s: [] for s in states}
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
    if len(reached) != len(states):
        stranded = next(s for s in states if s not in reached)
        return SetDecision(
            False,
            witness={"axiom": "M2", "source": states[0], "target": stranded},
        )
    graph = LabeledGraph(states, tuple(edges))
    pc = theta_scan_partial_cube(graph)
    if not pc.accepted:
        return SetDecision(False, witness={"kind": "not-partial-cube", "graph": dict(pc.witness)})
    labels = pc.labels
    realized = {labels[s] for s in states}
    beta: dict[str, tuple[str, str]] = {}
    for t, ms in ts._index_moves.items():
        coord = None
        polarity = None
        for i, j in ms:
            delta = labels[states[j]] ^ labels[states[i]]
            x = next(iter(delta))
            pol = "add" if x in labels[states[j]] else "remove"
            if coord is None:
                coord, polarity = x, pol
            elif (coord, polarity) != (x, pol):
                return SetDecision(
                    False,
                    witness={"kind": "action-mismatch", "token": t,
                             "detail": "moves cross several cube coordinates"},
                )
        moved = {i for i, _ in ms}
        for i, s in enumerate(states):
            if i in moved:
                continue
            lab = labels[s]
            if polarity == "add":
                stuck = coord not in lab and (lab | {coord}) in realized
            else:
                stuck = coord in lab and (lab - {coord}) in realized
            if stuck:
                return SetDecision(
                    False,
                    witness={"kind": "action-mismatch", "token": t, "state": s,
                             "detail": "token fixes a state its coordinate reduction moves"},
                )
        beta[t] = (coord, polarity)
    ground = tuple(sorted({cid for cid in pc.edge_classes.values()}, key=int))
    family = SetFamily(ground, tuple(labels[s] for s in states))
    alpha = {s: labels[s] for s in states}
    return SetDecision(True, family=family, alpha=alpha, beta=beta)


def assert_same_decision(ts):
    fast, slow = decide_medium(ts), theta_decision(ts)
    if fast.is_medium or slow.witness.get("axiom"):
        assert_reads_the_same(fast, slow)
    else:
        pair_rejection(ts)
        assert_witness_replays(ts, fast.witness["axiom"], fast.witness)


@st.composite
def families(draw):
    """Any family of at least two sets over at most six elements."""
    ground = "abcdef"[:draw(st.integers(1, 6))]
    masks = draw(st.sets(st.integers(0, (1 << len(ground)) - 1), min_size=2, max_size=16))
    sets = [frozenset(x for i, x in enumerate(ground) if m >> i & 1) for m in sorted(masks)]
    return SetFamily(tuple(ground), tuple(sets))


@st.composite
def small_systems(draw):
    """Token systems on 3-4 states with 1-2 declared reverse pairs."""
    states = tuple("ABCD"[:draw(st.integers(3, 4))])
    pairs = draw(st.integers(1, 2))
    tokens = tuple(f"{side}{k}" for k in range(pairs) for side in ("t", "u"))
    action = {t: dict(zip(states, draw(st.lists(st.sampled_from(states), min_size=len(states),
                                                 max_size=len(states)))))
              for t in tokens}
    assume(all(any(row[s] != s for s in states) for row in action.values()))
    reverse = {f"t{k}": f"u{k}" for k in range(pairs)}
    reverse.update({u: t for t, u in list(reverse.items())})
    return TokenSystem(states, tokens, action, reverse)


@settings(max_examples=300, deadline=None)
@given(families())
def test_family_media_agree(fam):
    assert_same_decision(family_medium(fam))


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_small_systems_agree(ts):
    assert_same_decision(ts)


def test_corpus_agrees(corpus):
    for name, ts in corpus:
        assert decide_medium(ts).is_medium, name
        assert_same_decision(ts)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_linear_media_agree(n):
    ts, _ = linear_medium(n)
    assert_same_decision(ts)


@pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
def test_mosaic_region_media_agree(kind):
    assert_same_decision(arrangement_medium(mosaic_window(kind, 1)))


def square_with(changes):
    """The medium of the 4-cycle {}, {a}, {b}, {a,b} with some action entries replaced."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = dense_action(good)
    for t, s, v in changes:
        action[t][s] = v
    return TokenSystem(good.states, good.tokens, action, good.reverse)


NON_MEDIA = {
    # add:a refuses to move {b}; the remaining graph is a path, a partial cube
    "lazy-four-cycle": lambda: square_with([("add:a", "{b}", "{b}"), ("rem:a", "{a,b}", "{a,b}")]),
    # pair a adds a at {} but removes it at {a,b}: labels fine, polarity mixed
    "twisted-square": lambda: square_with([("add:a", "{b}", "{b}"), ("add:a", "{a,b}", "{b}"),
                                           ("rem:a", "{a,b}", "{a,b}"), ("rem:a", "{b}", "{a,b}")]),
    # an induced path of the 3-cube whose ends are at distance 2, not 4
    "snake": lambda: family_medium(SetFamily.of("abc", [set(), {"a"}, {"a", "b"}, {"a", "b", "c"},
                                                        {"b", "c"}])),
}


@pytest.mark.parametrize("name", sorted(NON_MEDIA))
def test_non_media_are_rejected_by_both(name):
    ts = NON_MEDIA[name]()
    assert not decide_medium(ts).is_medium
    assert_same_decision(ts)
    with pytest.raises(InputError):
        media_isomorphic(ts, ts)


def relabel(ts, rng):
    """A copy of ts with fresh state and token names, both listed in a shuffled order."""
    state_name = dict(zip(ts.states, rng.sample([f"s{i}" for i in range(len(ts.states))],
                                                 len(ts.states))))
    token_name = dict(zip(ts.tokens, rng.sample([f"k{i}" for i in range(len(ts.tokens))],
                                                 len(ts.tokens))))
    states = tuple(rng.sample(sorted(state_name.values()), len(ts.states)))
    tokens = tuple(rng.sample(sorted(token_name.values()), len(ts.tokens)))
    action = {token_name[t]: {state_name[s]: state_name[v] for s, v in row.items()}
              for t, row in dense_action(ts).items()}
    reverse = {token_name[t]: token_name[r] for t, r in ts.reverse.items()}
    return TokenSystem(states, tokens, action, reverse)


def assert_replays(ts, other, alpha, beta):
    """(alpha, beta) is a bijection carrying ts's action table onto other's, and back."""
    assert sorted(alpha.values()) == sorted(other.states)
    assert sorted(beta.values()) == sorted(other.tokens)
    act, other_act = dense_action(ts), dense_action(other)
    for t in ts.tokens:
        for s in ts.states:
            assert alpha[act[t][s]] == other_act[beta[t]][alpha[s]]
    state_back = {v: s for s, v in alpha.items()}
    token_back = {u: t for t, u in beta.items()}
    for u in other.tokens:
        for v in other.states:
            assert state_back[other_act[u][v]] == act[token_back[u]][state_back[v]]


def test_isomorphism_of_relabelled_copies_replays():
    rng = random.Random(2005)
    media = [ts for _, ts in corpus_media()] + [linear_medium(4)[0]]
    for ts in media:
        for _ in range(3):
            other = relabel(ts, rng)
            assert_replays(ts, other, *media_isomorphic(ts, other))


# --- the coordinate search against the vertex-scan reference ----------------


def joint_refinement(g1, adj1, g2, adj2):
    """Degree refinement run on both graphs with one palette: the colours of
    the two graphs, or (None, None) once their colour counts differ."""
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
            return (n1, n2) if sorted(n1.values()) == sorted(n2.values()) else (None, None)
        col1, col2 = n1, n2
    return col1, col2


def scan_graph_iso(g1, adj1, col1, g2, adj2, col2):
    """The reference search over vertices: recursive, and it rescans every
    vertex to pick the next one, O(S * deg) per step."""
    n = len(g1.vertices)
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    mapping: dict[str, str] = {}
    inverse: dict[str, str] = {}
    vs2 = sorted(g2.vertices)

    def pick():
        best, best_key = None, None
        for u in g1.vertices:
            if u in mapping:
                continue
            k = sum(1 for w in adj1[u] if w in mapping)
            key = (-k, u)
            if best_key is None or key < best_key:
                best, best_key = u, key
        return best

    def extend():
        if len(mapping) == n:
            return True
        u = pick()
        anchored = [mapping[w] for w in adj1[u] if w in mapping]
        if anchored:
            cands = set(adj2[anchored[0]])
            for a in anchored[1:]:
                cands &= adj2[a]
            cands = sorted(cands)
        else:
            cands = vs2
        deg = len(adj1[u])
        want = len(anchored)
        for v in cands:
            if v in inverse or col2[v] != col1[u] or len(adj2[v]) != deg:
                continue
            if sum(1 for w in adj2[v] if w in inverse) != want:
                continue
            mapping[u] = v
            inverse[v] = u
            if extend():
                return True
            del mapping[u]
            del inverse[v]
        return False

    return dict(mapping) if extend() else None


def scan_media_iso(ts, other):
    """The vertex scan on the two media graphs: a state map, or None."""
    if len(ts.states) != len(other.states):
        return None
    g1, g2 = medium_graph(ts), medium_graph(other)
    adj1 = {v: frozenset(ws) for v, ws in adjacency(g1).items()}
    adj2 = {v: frozenset(ws) for v, ws in adjacency(g2).items()}
    col1, col2 = joint_refinement(g1, adj1, g2, adj2)
    return None if col1 is None else scan_graph_iso(g1, adj1, col1, g2, adj2, col2)


def assert_same_verdict(ts, other):
    """``media_isomorphic`` finds a map iff the vertex scan does, and the map replays."""
    found = media_isomorphic(ts, other)
    assert (found is None) == (scan_media_iso(ts, other) is None)
    if found is not None:
        assert_replays(ts, other, *found)


def search_media():
    return ([ts for _, ts in corpus_media()]
            + [linear_medium(n)[0] for n in (3, 4, 5)]
            + [arrangement_medium(mosaic_window(kind, 1))
               for kind in ("triangular", "truncated-square")])


def test_search_matches_scan_on_named_media():
    rng = random.Random(6)
    media = search_media()
    for ts in media:
        for other in [ts] + [relabel(ts, rng) for _ in range(3)]:
            assert_same_verdict(ts, other)
        for other in media:  # equal sizes, mostly not isomorphic
            if other is not ts and len(other.states) == len(ts.states):
                assert_same_verdict(ts, other)


@settings(max_examples=150, deadline=None)
@given(wg_families(), st.integers(0, 2**32 - 1))
def test_search_matches_scan_on_family_media(fam, seed):
    ts = family_medium(fam)
    assert_same_verdict(ts, relabel(ts, random.Random(seed)))


@pytest.fixture
def recursion_limit_300():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    yield
    sys.setrecursionlimit(old)


def test_search_leaves_the_recursion_limit_alone(recursion_limit_300):
    ts = linear_medium(6)[0]
    other = relabel(ts, random.Random(720))
    assert_replays(ts, other, *media_isomorphic(ts, other))
    assert sys.getrecursionlimit() == 300


def chain(n):
    """The medium of a chain of n states, one coordinate per step."""
    ground = tuple(f"c{i}" for i in range(n - 1))
    return family_medium(SetFamily(ground, tuple(frozenset(ground[:k]) for k in range(n))))


def test_chain_of_200_states(recursion_limit_300):
    # 199 coordinates, one search level each, deeper than the recursion limit
    ts = chain(200)
    other = relabel(ts, random.Random(200))
    assert_replays(ts, other, *media_isomorphic(ts, other))


@pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_mosaic_windows(kind, radius):
    ts = arrangement_medium(mosaic_window(kind, radius))
    for seed in range(3):
        other = relabel(ts, random.Random(seed))
        assert_replays(ts, other, *media_isomorphic(ts, other))


def one_colour(ts1, ts2):
    """Colours that split nothing, as if refinement could not tell states apart."""
    return dict.fromkeys(ts1.states, 0), dict.fromkeys(ts2.states, 0)


@pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
def test_search_moves_past_states_that_are_no_image(kind):
    # with one colour b runs over every state, so the search must fail at
    # states that are no image of s0 and go on; on two trees it fails at all
    ts = arrangement_medium(mosaic_window(kind, 2))
    other = relabel(ts, random.Random(2))
    forked = family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "be"]))
    spur = family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "ade"]))
    search, results = cubes._coordinate_search, []

    def recorded(*args):
        results.append(search(*args))
        return results[-1]

    with mock.patch.object(cubes, "_joint_colours", one_colour), \
            mock.patch.object(cubes, "_coordinate_search", recorded):
        found = media_isomorphic(ts, other)
        assert results[0] is None and results[-1] is not None
        assert_replays(ts, other, *found)
        results.clear()
        assert media_isomorphic(forked, spur) is None
        assert len(results) == len(spur.states) and not any(results)


def test_linear_medium_7():
    ts = linear_medium(7)[0]
    other = relabel(ts, random.Random(5040))
    assert_replays(ts, other, *media_isomorphic(ts, other))


def test_triangular_window_12():
    # 3,192 states: the budget bounds the search's work, not the states
    ts = arrangement_medium(mosaic_window("triangular", 12))
    other = relabel(ts, random.Random(12))
    assert_replays(ts, other, *media_isomorphic(ts, other))


def test_search_builds_no_graph():
    ts = linear_medium(4)[0]
    other = relabel(ts, random.Random(24))
    # two trees with one degree sequence and one move count per token:
    # colour refinement, not the degree tally, tells them apart
    forked = family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "be"]))
    spur = family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "ade"]))
    assert scan_media_iso(forked, spur) is None
    with mock.patch("tokenmedia.cubes.medium_graph", side_effect=AssertionError), \
            mock.patch("tokenmedia.cubes.is_partial_cube", side_effect=AssertionError):
        assert_replays(ts, other, *media_isomorphic(ts, other))
        assert media_isomorphic(forked, spur) is None


def spider(legs):
    """The tree medium of paths of the given lengths joined at the empty set."""
    ground, sets = [], [frozenset()]
    for i, length in enumerate(legs):
        leg = [f"x{i}.{j}" for j in range(length)]
        ground += leg
        sets += [frozenset(leg[:j + 1]) for j in range(length)]
    return family_medium(SetFamily(tuple(ground), tuple(sets)))


def search_lines_at_most(bound):
    """Fail once ``_coordinate_search`` has run more than ``bound`` lines."""
    return lines_at_most({cubes._coordinate_search.__code__}, bound, "the coordinate search")


def test_spiders_with_one_degree_tally_answer_none_without_a_search():
    # a centre of degree 12 with one leg of length 3, against one with two legs
    # of length 2: equal degree tallies and move counts, and any map of the
    # centre's coordinates fails only two levels past the centre
    long_leg, two_legs = spider([3] + [1] * 11), spider([2, 2] + [1] * 10)
    assert scan_media_iso(long_leg, two_legs) is None
    with search_lines_at_most(0):
        assert media_isomorphic(long_leg, two_legs) is None


@pytest.mark.parametrize("legs", [[3] + [1] * 11, [3, 3] + [1] * 10])
@pytest.mark.parametrize("seed", range(3))
def test_spiders_with_long_legs_replay(legs, seed):
    # 12 legs in all; with two long legs only the centre has a colour of its
    # own, so s0 is the centre, and a leaf coordinate tried for a long leg
    # costs 10! maps of the others unless the colours rule it out at once
    ts = spider(legs)
    other = relabel(ts, random.Random(seed))
    with search_lines_at_most(2000) as count:
        found = media_isomorphic(ts, other)
    assert count[0] > 0
    assert_replays(ts, other, *found)


def search_work(ts, other):
    """The units of work ``media_isomorphic(ts, other)`` spends, and its answer."""
    spend, spent = cubes._spend, [0]

    def counted(work):
        spent[0] += 1
        spend(work)

    with mock.patch.object(cubes, "_spend", counted):
        found = media_isomorphic(ts, other)
    return spent[0], found


@pytest.mark.parametrize("small, large", [
    (lambda: chain(100), lambda: chain(200)),
    (lambda: arrangement_medium(mosaic_window("triangular", 4)),
     lambda: arrangement_medium(mosaic_window("triangular", 8))),
    (lambda: arrangement_medium(mosaic_window("truncated-square", 4)),
     lambda: arrangement_medium(mosaic_window("truncated-square", 8))),
], ids=["chain", "triangular", "truncated-square"])
def test_search_work_grows_linearly(small, large):
    # from n states to N, the work may grow by at most 1.1 N / n: 2.2x at
    # twice the states (a window of twice the radius has about four times)
    (a, work_a), (b, work_b) = [(ts, search_work(ts, relabel(ts, random.Random(7)))[0])
                                for ts in (small(), large())]
    assert 0 < work_b <= 1.1 * len(b.states) / len(a.states) * work_a


def test_a_unit_is_a_candidate_or_a_label():
    # two states: one coordinate, one candidate image for it, one label it completes
    ts = two_state()
    other = relabel(ts, random.Random(2))
    assert search_work(ts, other)[0] == 2


def test_search_past_its_budget_is_a_cap():
    ts = linear_medium(5)[0]
    other = relabel(ts, random.Random(120))
    work, found = search_work(ts, other)
    assert_replays(ts, other, *found)
    with mock.patch.object(cubes, "ISO_WORK_BUDGET", work - 1), pytest.raises(CapError):
        media_isomorphic(ts, other)
    with mock.patch.object(cubes, "ISO_WORK_BUDGET", work):
        assert media_isomorphic(ts, other) == found
    # with one colour the search runs from every state of the second tree,
    # and all of those searches share one count
    forked = family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "be"]))
    spur = family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "ade"]))
    with mock.patch.object(cubes, "_joint_colours", one_colour):
        work, found = search_work(forked, spur)
        assert found is None
        with mock.patch.object(cubes, "ISO_WORK_BUDGET", work - 1), pytest.raises(CapError):
            media_isomorphic(forked, spur)


@st.composite
def equal_size_wg_pairs(draw):
    """Two well graded families over at most five elements with equal set
    counts: the second is an isometric image of the first, or grown apart."""
    fam = draw(wg_families())
    size = len(fam.sets)
    if draw(st.booleans()):
        letters = list(fam.ground)
        image = dict(zip(letters, draw(st.permutations(letters))))
        shift = frozenset(x for x in fam.ground if draw(st.booleans()))
        sets = [frozenset(image[x] for x in s ^ shift) for s in fam.sets]
        return fam, SetFamily(fam.ground, tuple(sets))
    other = draw(wg_families(size))
    assume(len(other.sets) == size)
    return fam, other


@settings(max_examples=200, deadline=None)
@given(equal_size_wg_pairs())
def test_isomorphism_agrees_with_networkx(pair):
    nx = pytest.importorskip("networkx")
    a, b = map(family_medium, pair)
    graphs = []
    for ts in (a, b):
        g = nx.Graph()
        g.add_nodes_from(ts.states)
        g.add_edges_from(medium_graph(ts).edges)
        graphs.append(g)
    found = media_isomorphic(a, b)
    event("not isomorphic" if found is None else "isomorphic")
    assert (found is None) == (not nx.is_isomorphic(*graphs))
    if found is not None:
        assert_replays(a, b, *found)
