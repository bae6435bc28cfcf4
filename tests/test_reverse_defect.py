"""M1 in one pass against the frozenset route it replaced.

``tokens.reverse_defect`` walks the tokens in token order once: each
declared reverse must hold exactly the token's moves inverted, and tokens
with equal moves are looked for only once a token passes.
``frozenset_reverse_defect``, the former route, grouped the move set of
every token first and read each token's candidates off the groups.  Both
must give the same witness: kind, token, declared reverse, state, message,
and the candidates in the same order.
"""

import itertools
import random

import pytest

from tokenmedia import tokens
from tokenmedia.arrangements import arrangement_medium, enumerate_regions, mosaic_window, region_adjacency
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem

from conftest import reverse_candidates

STATES = ("A", "B", "C")
REV2 = {"t": "u", "u": "t"}
REV4 = {"t": "u", "u": "t", "v": "w", "w": "v"}
REV_AB = {"a": "b", "b": "a"}


def frozenset_reverse_defect(ts):
    """The former ``reverse_defect``: each token's candidates from the
    move sets of all tokens, grouped before the first token is read."""
    if ts.reverse is None:
        return {"axiom": "M1", "kind": "missing-reverse-pairing"}
    for t, cands in reverse_candidates(ts).items():
        declared = ts.reverse[t]
        if declared not in cands:
            return tokens._declared_breach(ts, t, declared)
        if len(cands) > 1:
            return {"axiom": "M1", "kind": "ambiguous-reverse", "token": t, "candidates": cands}
    return None


def assert_same_witness(ts):
    got = tokens.reverse_defect(ts)
    assert got == frozenset_reverse_defect(ts)
    if got is not None:
        assert list(got) == list(frozenset_reverse_defect(ts))  # the same fields, in the same order
    return got


def three_state_actions():
    """The 26 non-identity self-maps of the three states, as dense rows."""
    rows = (dict(zip(STATES, img)) for img in itertools.product(STATES, repeat=3))
    return [row for row in rows if any(row[s] != s for s in STATES)]


def test_every_two_token_system_of_the_criterion_1_space():
    kinds = set()
    for a0, a1 in itertools.product(three_state_actions(), repeat=2):
        witness = assert_same_witness(TokenSystem(STATES, ("t", "u"), {"t": a0, "u": a1}, REV2))
        kinds.add(None if witness is None else witness["kind"])
    assert kinds == {None, "declared-not-reverse", "ambiguous-reverse"}  # two equal swaps are twins


def inverse_row(row):
    """The row that undoes every move of ``row``, or None when two states share an image."""
    back = {v: s for s, v in row.items() if v != s}
    if len(back) != sum(v != s for s, v in row.items()):
        return None
    return {s: back.get(s, s) for s in STATES}


@pytest.mark.parametrize("reverse", [REV4, {"t": "w", "w": "t", "u": "v", "v": "u"}])
def test_a_seeded_sample_of_four_token_systems(reverse):
    # uniform draws pass M1 about once in 2,000, so half the tokens of the
    # second half of the sample are drawn as the inverse of their reverse
    rng = random.Random(33)
    actions = three_state_actions()
    kinds = set()
    for k in range(4000):
        action = dict(zip("tuvw", rng.choices(actions, k=4)))
        if k >= 2000:
            for t in "tuvw":
                if t < reverse[t] and rng.random() < 0.5 and (back := inverse_row(action[t])) is not None:
                    action[reverse[t]] = back
        witness = assert_same_witness(TokenSystem(STATES, tuple("tuvw"), action, reverse))
        kinds.add(None if witness is None else witness["kind"])
    assert kinds == {None, "declared-not-reverse", "ambiguous-reverse"}


def moves_system(toks, moves, reverse):
    return TokenSystem(STATES, toks, reverse=reverse, moves=moves)


FORTH, BACK, AWAY = {"A": "B"}, {"B": "A"}, {"A": "C"}


def test_ambiguity_before_a_breach_in_token_order():
    # a passes, and b and its twin b2 both undo it; x breaks later
    moves = {"a": FORTH, "b": BACK, "b2": BACK, "x": AWAY}
    ts = moves_system(("a", "b", "b2", "x"), moves, {"a": "b", "b": "a", "b2": "x", "x": "b2"})
    assert assert_same_witness(ts) == {"axiom": "M1", "kind": "ambiguous-reverse", "token": "a",
                                       "candidates": ["b", "b2"]}


def test_ambiguity_after_a_breach_in_token_order():
    moves = {"a": FORTH, "b": BACK, "b2": BACK, "x": AWAY}
    ts = moves_system(("x", "b2", "a", "b"), moves, {"a": "b", "b": "a", "b2": "x", "x": "b2"})
    witness = assert_same_witness(ts)
    assert (witness["kind"], witness["token"], witness["declared"]) == ("declared-not-reverse", "x", "b2")


def test_twins_found_from_the_second_pair():
    # the first pair has no twin; the second pair's tokens are two equal swaps
    swap = {"A": "B", "B": "A"}
    moves = {"a": FORTH, "b": BACK, "s": swap, "s2": swap}
    ts = moves_system(("a", "b", "s", "s2"), moves, {"a": "b", "b": "a", "s": "s2", "s2": "s"})
    assert assert_same_witness(ts) == {"axiom": "M1", "kind": "ambiguous-reverse", "token": "s",
                                       "candidates": ["s", "s2"]}


def test_a_breach_of_the_second_token_of_a_pair_is_met_at_the_first():
    # b moves A to B back and also C to A: a's inverted moves are not b's
    moves = {"a": FORTH, "b": {"B": "A", "C": "A"}}
    witness = assert_same_witness(moves_system(("a", "b"), moves, REV_AB))
    assert (witness["token"], witness["message"]) == ("a", ["b", "a"])


@pytest.mark.parametrize("first, second", [
    ({"A": "C", "B": "C"}, {"C": "A"}),  # a merges two states; b undoes one of them
    ({"C": "A"}, {"A": "C", "B": "C"}),  # the merge declared second
    ({"A": "C", "B": "C"}, {"A": "C", "B": "C"}),  # both merge
])
def test_non_injective_tokens(first, second):
    witness = assert_same_witness(moves_system(("a", "b"), {"a": first, "b": second}, REV_AB))
    assert witness["kind"] == "declared-not-reverse"


def test_a_system_with_no_pairing():
    ts = moves_system(("a", "b"), {"a": FORTH, "b": BACK}, None)
    assert assert_same_witness(ts) == {"axiom": "M1", "kind": "missing-reverse-pairing"}


def test_media_have_no_defect():
    arr = mosaic_window("triangular", 2)
    regions = enumerate_regions(arr)
    for ts in (linear_medium(5)[0], arrangement_medium(arr, regions, region_adjacency(arr, regions))):
        assert assert_same_witness(ts) is None
