"""``media_isomorphic`` and its coordinate search as they were before the
search ran on the decision's int labels and sides: the differential oracle
of ``tests/test_int_iso.py``.

This route reads the frozenset labels ``decision.alpha``, translates them
by set difference, keeps ``pi`` as a dict of coordinate names and decodes
each token's image from the (coordinate, polarity) strings of
``decision.beta``.  Everything below ``_spend`` is kept verbatim, with the
entry point renamed and the import of ``decide_medium`` moved to the top.
``_joint_colours`` and ``_spend`` forward to the library's at call time,
so a test that patches ``cubes._joint_colours``, ``cubes._spend`` or
``cubes.ISO_WORK_BUDGET`` patches both routes.
"""

from __future__ import annotations

from collections import Counter
from itertools import count

from tokenmedia import cubes
from tokenmedia.errors import InputError
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import TokenSystem


def _joint_colours(ts1, ts2):
    return cubes._joint_colours(ts1, ts2)


def _spend(work):
    cubes._spend(work)


def set_media_isomorphic(ts1: TokenSystem, ts2: TokenSystem):
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
    go2: dict[str, list[str]] = {v: [] for v in states2}  # the coordinates moving each state
    ends = sorted((states2[j], states2[k], d2.beta[u][0]) for u, ms in moves2.items() for j, k in ms)
    for v, _, y in ends:  # in order of the target's name
        go2[v].append(y)
    tally = Counter(colour1.values())
    s0 = min(states1, key=lambda s: (tally[colour1[s]], s))
    base = d1.alpha[s0]
    shifted = {s: m ^ base for s, m in d1.alpha.items()}
    order = sorted(states1, key=lambda s: (len(shifted[s]), s))
    level: dict[str, int] = {}
    steps: list[tuple[str, frozenset, list]] = []  # (coordinate, anchor, labels it completes)
    for s in order:  # the last step up from the empty set to s's label adds its new coordinate
        m = shifted[s]
        for x in m - level.keys():
            level[x] = len(steps)
            steps.append((x, m - {x}, []))
        if m:
            steps[max(map(level.__getitem__, m))][2].append((m, colour1[s]))
    where2 = {m: v for v, m in d2.alpha.items()}
    work = count(1)
    for b in sorted(states2):
        shift = d2.alpha[b]
        if colour2[b] == colour1[s0]:
            pi = _coordinate_search(steps, go2, where2, colour2, shift, work)
            if pi is not None:
                break
    else:
        return None
    alpha = {s: where2[frozenset(map(pi.__getitem__, m)) ^ shift] for s, m in shifted.items()}
    # keyed by coordinate and whether the token adds it once its family is translated
    token2 = {(y, (pol == "add") != (y in shift)): u for u, (y, pol) in d2.beta.items()}
    beta = {t: token2[(pi[x], (pol == "add") != (x in base))] for t, (x, pol) in d1.beta.items()}
    return alpha, beta


def _coordinate_search(steps, go2, where2, colour2, shift, work):
    """A map pi from ts1's coordinates to ts2's, or None, by backtracking on
    an explicit stack: each step's coordinate goes to an unused one moving
    its anchor's image, and the labels it completes must land on states of
    their own colours in ts2's family.  Each candidate image tried and each
    completed label checked is one unit of ``work`` (``_spend``)."""
    pi: dict[str, str] = {}
    used: set[str] = set()

    def image(m):
        return frozenset(map(pi.__getitem__, m)) ^ shift

    def lands(m, c):
        _spend(work)
        return colour2.get(where2.get(image(m))) == c

    stack = [iter(go2[where2[shift]])]
    while stack:
        x, _, completed = steps[len(stack) - 1]
        used.discard(pi.pop(x, None))  # back from a failed subtree: free x's image
        for y in stack[-1]:
            _spend(work)
            pi[x] = y
            if y not in used and all(lands(m, c) for m, c in completed):
                used.add(y)
                if len(stack) == len(steps):
                    return pi
                stack.append(iter(go2[where2[image(steps[len(stack)][1])]]))
                break
        else:
            pi.pop(x, None)
            stack.pop()
    return None
