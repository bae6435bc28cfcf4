"""M4 off separating components by straight sets, against the BFS per state
it replaced.

``represent._m4_search`` decides M4 on a component that fails the
separation test with one least fixpoint over bitsets of the component's
states: the states each state reaches by a straight walk.  The oracle is the
former search, kept verbatim as ``bfs_m4_search``: a BFS from every state
and a list of each state's straight targets.  On every separation-failing
component of random paired systems, of family systems, of linear media with
sets dropped, of ``two_level_path`` and of long paths both must return the
same witness, or both None.  A line budget keeps the search near-linear on a
long path, where the BFS from every state runs about 17,000,000 lines.
"""

import random

from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from tokenmedia import represent
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem, reverse_defect

from conftest import CodesIn, lines_at_most
from test_exact_check import two_level_path
from tuple_potentials import fresh


def bfs_m4_search(ts, ev, comp):
    """M4 on a component that fails the separation test, by a BFS from every
    state: t occurs in a straight message into v iff some t-move a -> b has a
    walk from b to v as long as the L1 distance of their potentials that does
    not move t's coordinate against t, that is, iff moreover v agrees with b
    on the threshold bit the move toggles."""
    lab = ev.lab
    straight = {}
    for b in comp:
        dist = {b: 0}
        queue = [b]
        for u in queue:
            for j, _ in ev.out[u]:
                if j not in dist:
                    dist[j] = dist[u] + 1
                    queue.append(j)
        straight[b] = [v for v in comp if dist[v] == (lab[b] ^ lab[v]).bit_count()]
    first = {}  # (t, v) -> the first t-move (a, b) that starts a straight message into v
    for a in comp:
        for b, t in ev.out[a]:
            bit = lab[a] ^ lab[b]
            for v in straight[b]:
                if not (lab[v] ^ lab[b]) & bit:
                    first.setdefault((t, v), (a, b))
    for (t, v), move in first.items():
        back = first.get((ts.reverse[t], v))
        if back is not None:
            return represent._m4_witness(ts, ev, t, move, v, back)
    return None


def long_path(steps):
    """A path on ``steps`` + 8 states: ``steps`` - 1 straight steps on
    distinct token pairs, then ``two_level_path``'s steps x+ a+ b+ a- c+ a+
    b- x+.  M1 and M3 hold, the separation test fails (the gadget's v0 and
    v3 differ only in b) and M4 holds; ``long_path(1)`` is ``two_level_path``
    with other names."""
    path = [f"s{i}" for i in range(steps + 8)]
    tokens = [f"p{i}+" for i in range(steps - 1)] + ["x+", "a+", "b+", "a-", "c+", "a+", "b-", "x+"]
    forward: dict = {}
    for u, v, t in zip(path, path[1:], tokens):
        if t[-1] == "+":
            forward.setdefault(t[:-1], {})[u] = v
        else:
            forward[t[:-1]][v] = u
    return TokenSystem.from_pairs(tuple(path), ((c + "+", c + "-", ms) for c, ms in forward.items()))


def dropped_linear(n):
    """``linear_medium(n)``'s family with about a tenth of its sets dropped
    (``random.Random(7)``): a non-medium whose separation test fails."""
    fam = linear_medium(n)[1]
    rng = random.Random(7)
    return family_medium(SetFamily(fam.ground, tuple(s for s in fam.sets if rng.random() >= 0.1)))


def separation_failing(ts):
    """The potentials of a fresh copy of ts and its components that fail the
    separation test; no components when M1 or M3 fails."""
    ts = fresh(ts)
    if reverse_defect(ts) is not None:
        return ts, None, []
    ev = represent._potentials(ts)
    if ev.m3 is not None:
        return ts, ev, []
    represent._component_checks(ts, ev)  # which a disconnected system's decision skips
    return ts, ev, [comp for comp, found in zip(ev.comps, ev.separation) if found]


def assert_same_as_the_bfs_search(ts):
    """Both searches give one witness, or None, on every component of ts
    that fails the separation test; returns the witnesses."""
    ts, ev, comps = separation_failing(ts)
    found = [represent._m4_search(ts, ev, comp) for comp in comps]
    assert found == [bfs_m4_search(ts, ev, comp) for comp in comps]
    return found


@st.composite
def paired_systems(draw):
    """4-9 states and 2-4 token pairs drawn, each pair's forward moves a
    random partial matching of the states and its backward moves their
    inverses.  A pair with which M1 or M3 would fail is left out: about one
    draw in ten passes both with every pair kept."""
    n = draw(st.integers(4, 9))
    states = tuple(f"s{i}" for i in range(n))
    pairs = []
    for p in range(draw(st.integers(2, 4))):
        order = draw(st.permutations(states))
        k = draw(st.integers(1, n // 2))
        pair = f"t{p}", f"u{p}", dict(zip(order[:k], order[k:2 * k]))
        ts = TokenSystem.from_pairs(states, [*pairs, pair])
        if reverse_defect(ts) is None and represent._potentials(ts).m3 is None:
            pairs.append(pair)
    return TokenSystem.from_pairs(states, pairs)


@settings(max_examples=300, deadline=None)
@given(ts=paired_systems())
@example(ts=two_level_path())
def test_paired_systems_match_the_bfs_search(ts):
    assume(separation_failing(ts)[2])
    for w in assert_same_as_the_bfs_search(ts):
        event("M4 fails" if w else "M4 holds")


@settings(max_examples=200, deadline=None)
@given(masks=st.sets(st.integers(0, 15), min_size=4, max_size=10))
def test_family_systems_match_the_bfs_search(masks):
    # the system of an arbitrary family of subsets of abcd, about half of
    # them with a component off the separation test; M4 holds on every
    # family system, for a consistent message adding x ends at a set with x
    ts = family_medium(SetFamily.of("abcd", [{x for i, x in enumerate("abcd") if m >> i & 1}
                                             for m in sorted(masks)]))
    assume(separation_failing(ts)[2])
    assert assert_same_as_the_bfs_search(ts) == [None] * len(separation_failing(ts)[2])


def test_two_level_path_and_long_paths_match_the_bfs_search():
    for ts in (two_level_path(), long_path(1), long_path(40)):
        assert assert_same_as_the_bfs_search(ts) == [None]


def test_dropped_linear_medium_matches_the_bfs_search():
    ts = dropped_linear(6)
    assert len(ts.states) == 643
    assert assert_same_as_the_bfs_search(ts) == [None]


def test_search_on_a_long_path_runs_in_few_lines():
    # 1,008 states: the BFS from every state ran about 17,000,000 lines
    # here, and the fixpoint takes a few sweeps of one line per move
    ts, ev, comps = separation_failing(long_path(1000))
    assert len(ts.states) == 1008 and len(comps) == 1
    with lines_at_most(CodesIn(represent.__file__), 100_000, "the search") as count:
        assert represent._m4_search(ts, ev, comps[0]) is None
    assert count[0] > 0
