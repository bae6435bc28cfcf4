"""Shared builders: canonical small media and random well-graded families."""

from __future__ import annotations

import contextlib
import math
import os
import random
import sys
from collections import deque
from unittest import mock

import pytest
from hypothesis import strategies as st

import tokenmedia
from tokenmedia import tokens
from tokenmedia.families import SetFamily, family_medium, well_graded_witness
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem

import walks


def adjacency(g) -> dict[str, tuple[str, ...]]:
    """Each vertex of the graph g with its neighbours in name order."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for (u, v) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return {v: tuple(sorted(ws)) for v, ws in adj.items()}


def bfs_distances(adj, source) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def assert_theta_violation(g, edges, dist=None):
    """``edges`` = [e, f, h] are edges of g with e Theta f, f Theta h and not
    e Theta h.  ``dist`` maps vertices to their distance tables; without it,
    one BFS runs from each endpoint of the three edges."""
    e, f, h = (tuple(x) for x in edges)
    assert {e, f, h} <= set(g.edges)
    if dist is None:
        adj = adjacency(g)
        dist = {v: bfs_distances(adj, v) for v in {*e, *f, *h}}

    def theta(e1, e2):
        (x, y), (u, v) = e1, e2
        return dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]

    assert theta(e, f) and theta(f, h) and not theta(e, h)


@contextlib.contextmanager
def lines_at_most(codes, bound, what):
    """Fail once the frames running any of the code objects ``codes`` have
    run more than ``bound`` lines in all."""
    count, outer = [0], sys.gettrace()

    def local(frame, event, arg):
        if event == "line":
            count[0] += 1
            if count[0] > bound:
                raise AssertionError(f"{what} ran over {bound} lines")
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        yield count
    finally:
        sys.settrace(outer)


class CodesIn:
    """The code objects run from the file or directory ``path``, matched by
    file name, so that comprehensions and nested functions count too."""

    def __init__(self, path):
        self.path = path

    def __contains__(self, code):
        return code.co_filename.startswith(self.path)


PACKAGE_CODES = CodesIn(os.path.dirname(tokenmedia.__file__) + os.sep)


def assert_lines_grow_at_most(ratio, call, small, large):
    """The lines run in ``tokenmedia`` by call(small) and by call(large): the
    second count must be at most ``ratio`` times the first.  Build both
    inputs before the call, fresh, so that nothing stored on them is read
    and no construction is counted.  Returns both counts."""
    counts = []
    for arg in (small, large):
        with lines_at_most(PACKAGE_CODES, math.inf, "the call") as count:
            call(arg)
        counts.append(count[0])
    assert 0 < counts[1] <= ratio * counts[0], counts
    return counts


def dense_action(ts) -> dict[str, dict[str, str]]:
    """The dense table of ts as its JSON document writes it: ``[t][s]`` is the
    image of state s under token t, every row in state order with its fixed
    points.  Each call builds the whole table afresh."""
    return ts.to_json_dict()["action"]


def reverse_candidates(ts) -> dict[str, list[str]]:
    """Each token's reverse candidates, in token order: the tokens whose moves
    are exactly its inverted moves, found through the move index by move set.
    The oracle of M1 and of the pairing ``tokens.reduction`` gives."""
    moves = {t: frozenset(ms) for t, ms in ts._index_moves.items()}
    by_moves: dict[frozenset, list[str]] = {}
    for t, ms in moves.items():
        by_moves.setdefault(ms, []).append(t)
    return {t: by_moves.get(frozenset((j, i) for i, j in ms), []) for t, ms in moves.items()}


def two_state() -> TokenSystem:
    return TokenSystem(
        ("S", "T"),
        ("t", "t~"),
        {"t": {"S": "T", "T": "T"}, "t~": {"T": "S", "S": "S"}},
        {"t": "t~", "t~": "t"},
    )


def path3() -> TokenSystem:
    """P - Q - R, the three-state chain medium."""
    return TokenSystem(
        ("P", "Q", "R"),
        ("f1", "b1", "f2", "b2"),
        {
            "f1": {"P": "Q", "Q": "Q", "R": "R"},
            "b1": {"Q": "P", "P": "P", "R": "R"},
            "f2": {"Q": "R", "P": "P", "R": "R"},
            "b2": {"R": "Q", "P": "P", "Q": "Q"},
        },
        {"f1": "b1", "b1": "f1", "f2": "b2", "b2": "f2"},
    )


def twisted_square() -> TokenSystem:
    """The 4-cycle medium with pair a adding at {} but removing at {a,b}: a
    non-medium on which M1 and M2 hold."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = dense_action(good)
    for t, s, v in [("add:a", "{b}", "{b}"), ("add:a", "{a,b}", "{b}"),
                    ("rem:a", "{a,b}", "{a,b}"), ("rem:a", "{b}", "{a,b}")]:
        action[t][s] = v
    return TokenSystem(good.states, good.tokens, action, good.reverse)


def no_walks():
    """Patch every message walk to raise when called: the bounded walks kept as
    oracles in ``walks`` and the straight-message search of ``tokenmedia.tokens``."""
    def raising(name):
        return mock.Mock(side_effect=AssertionError(f"{name} ran"))

    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.multiple(walks, **{
        name: raising(name) for name in ("bounded_report", "violates_m2", "violates_m3", "violates_m4")}))
    stack.enter_context(mock.patch.object(tokens, "_straight_search", raising("_straight_search")))
    return stack


def union6() -> TokenSystem:
    """Two disjoint copies of ``linear_medium(6)`` that share their tokens:
    1,440 states on which M1, M3 and M4 hold and M2 fails."""
    ts, _ = linear_medium(6)
    states = tuple(f"{copy}{s}" for copy in "ab" for s in ts.states)
    action = {t: {f"{copy}{s}": f"{copy}{v}" for copy in "ab" for s, v in row.items()}
              for t, row in dense_action(ts).items()}
    return TokenSystem(states, ts.tokens, action, ts.reverse)


def hexagon_family() -> SetFamily:
    """The six middle layers of the 3-cube; its medium graph is a 6-cycle."""
    return SetFamily.of("abc", [{"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}])


def hexagon_variant_family() -> SetFamily:
    """Same state and token counts as the hexagon but a different graph."""
    return SetFamily.of("abc", [{"a"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"}, {"a", "b", "c"}])


def staircase_family() -> SetFamily:
    """A well graded family with ranks 1, 1, 3."""
    return SetFamily.of("abc", [set(), {"a"}, {"b"}, {"a", "b"}, {"a", "b", "c"}])


def power_set_family(ground: str) -> SetFamily:
    sets = []
    for mask in range(1 << len(ground)):
        sets.append({x for i, x in enumerate(ground) if mask >> i & 1})
    return SetFamily.of(ground, sets)


def random_subsets(rng: random.Random, ground, count) -> SetFamily:
    universe = list(ground)
    seen: set[frozenset] = set()
    while len(seen) < count:
        seen.add(frozenset(x for x in universe if rng.random() < 0.5))
    return SetFamily(tuple(ground), tuple(sorted(seen, key=lambda s: (len(s), sorted(s)))))


def random_wg_family(rng: random.Random, ground, size) -> SetFamily:
    """Grow a well graded family by unit steps, reverting growth that breaks it."""
    ground = tuple(ground)
    base = frozenset(x for x in ground if rng.random() < 0.5)
    sets = [base]
    attempts = 0
    while len(sets) < size and attempts < 40 * size:
        attempts += 1
        anchor = sets[rng.randrange(len(sets))]
        cand = anchor ^ {ground[rng.randrange(len(ground))]}
        if cand in sets:
            continue
        trial = SetFamily(ground, tuple(sets) + (cand,))
        if well_graded_witness(trial) is None:
            sets.append(cand)
    return SetFamily(ground, tuple(sets))


@st.composite
def wg_families(draw, size=None):
    """Well graded families over at most five elements, grown by unit steps
    that keep the family well graded; with ``size``, grown until the family
    has that many sets or 4 * size steps were drawn."""
    ground = "abcde"[:draw(st.integers(1 if size is None else (size - 1).bit_length(), 5))]
    sets = [frozenset(x for x in ground if draw(st.booleans()))]
    for _ in range(draw(st.integers(1, 12)) if size is None else 4 * size):
        if len(sets) == size:
            break
        cand = draw(st.sampled_from(sets)) ^ {draw(st.sampled_from(ground))}
        if cand not in sets and well_graded_witness(SetFamily(ground, (*sets, cand))) is None:
            sets.append(cand)
    return SetFamily(tuple(ground), tuple(sets))


def corpus_media():
    """Named verified media used by the cross-module property tests."""
    out = [
        ("two-state", two_state()),
        ("path3", path3()),
        ("hexagon", family_medium(hexagon_family())),
        ("hexagon-variant", family_medium(hexagon_variant_family())),
        ("staircase", family_medium(staircase_family())),
        ("cube3", family_medium(power_set_family("abc"))),
    ]
    rng = random.Random(1105)
    for i in range(3):
        fam = random_wg_family(rng, "abcde", 9)
        out.append((f"random-wg-{i}", family_medium(fam)))
    return out


@pytest.fixture(scope="session")
def corpus():
    return corpus_media()
