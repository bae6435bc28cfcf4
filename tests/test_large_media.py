"""The near-linear routes for large media against the routes they replaced.

- ``families._moves_separate`` does one AND per set bit of a state's
  toggles, with the holders of each bit read off the transposed label bit
  matrix; ``reference_moves_separate`` is the former scan over every bit.
- ``cubes._joint_colours`` splits classes against one splitter class at a
  time; ``joint_refinement`` (``test_decide_routes``) recolours every state
  in every round.  Both must reach the same partition, or both answer None.
"""

import random

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tokenmedia import cubes
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.cubes import medium_graph
from tokenmedia.families import SetFamily, _moves_separate, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem

from conftest import adjacency, lines_at_most, power_set_family, wg_families
from test_decide_routes import equal_size_wg_pairs, joint_refinement, relabel


# --- separation, per move against per bit ------------------------------------


def reference_moves_separate(lab, toggles, width):
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


@st.composite
def random_labels(draw):
    """Labels and toggles of any bits below the width: mostly failing."""
    width = draw(st.integers(0, 9))
    size = draw(st.integers(0, 12))
    word = st.integers(0, (1 << width) - 1)
    return (draw(st.lists(word, min_size=size, max_size=size)),
            draw(st.lists(word, min_size=size, max_size=size)), width)


@st.composite
def family_labels(draw):
    """The labels and realized toggles of a set family, as
    ``well_graded_witness`` builds them: passing when it is well graded."""
    fam = draw(st.one_of(wg_families(), wg_families().map(
        lambda f: SetFamily(f.ground, f.sets[:-1] or f.sets))))
    bit = {x: 1 << i for i, x in enumerate(fam.ground)}
    masks = [sum(map(bit.__getitem__, s)) for s in fam.sets]
    present = set(masks)
    toggles = [sum(b for b in bit.values() if m ^ b in present) for m in masks]
    if draw(st.booleans()):  # a toggle that no move makes
        p = draw(st.integers(0, len(masks) - 1))
        toggles[p] |= 1 << draw(st.integers(0, len(bit) - 1))
    return masks, toggles, len(bit)


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_labels(), family_labels()))
def test_per_move_separation_matches_the_per_bit_scan(case):
    found = _moves_separate(*case)
    event("fails" if found else "passes")
    assert found == reference_moves_separate(*case)


def test_separation_passes_and_fails_on_named_labels():
    cube = [[m for m in range(8)], [7] * 8, 3]
    assert _moves_separate(*cube) is None is reference_moves_separate(*cube)
    gap = [[0, 3], [0, 0], 2]  # {} and {a, b}: no step of either stays inside
    assert _moves_separate(*gap) == (0, 1) == reference_moves_separate(*gap)
    assert _moves_separate([], [], 0) is None


# --- colour refinement, by splitting against rounds ---------------------------


def partition(col1, col2):
    """The classes of both graphs' states under one colouring, as sets of
    (graph, state) pairs."""
    classes: dict = {}
    for g, col in enumerate((col1, col2)):
        for v, c in col.items():
            classes.setdefault(c, set()).add((g, v))
    return {frozenset(c) for c in classes.values()}


def assert_same_refinement(ts1, ts2):
    g1, g2 = medium_graph(ts1), medium_graph(ts2)
    adj1 = {v: frozenset(ws) for v, ws in adjacency(g1).items()}
    adj2 = {v: frozenset(ws) for v, ws in adjacency(g2).items()}
    old = joint_refinement(g1, adj1, g2, adj2)
    new = cubes._joint_colours(ts1, ts2)
    assert (old[0] is None) == (new[0] is None)
    if new[0] is not None:
        assert partition(*new) == partition(*old)
    return new[0] is not None


@settings(max_examples=200, deadline=None)
@given(st.one_of(equal_size_wg_pairs(), st.tuples(wg_families(), wg_families())))
@example((SetFamily.of("abcd", [set(), {"b"}, {"c"}, {"d"}, {"b", "c"}, {"a", "b", "c"}]),
          SetFamily.of("abcd", [set(), {"b"}, {"a"}, {"a", "b"}, {"c"}, {"b", "d"}])))
def test_splitting_matches_the_rounds_on_random_pairs(pair):
    # the example: equal degree counts, and one round apart on a 4-cycle the
    # two degree-3 states are opposite in one graph and adjacent in the other
    agree = assert_same_refinement(*map(family_medium, pair))
    event("one partition" if agree else "both None")


REFERENCE_MEDIA = {
    "linear-7": lambda: linear_medium(7)[0],
    "8-cube": lambda: family_medium(power_set_family("abcdefgh")),
    "triangular-5": lambda: arrangement_medium(mosaic_window("triangular", 5)),
    "truncated-square-5": lambda: arrangement_medium(mosaic_window("truncated-square", 5)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MEDIA))
def test_splitting_matches_the_rounds_at_the_reference_sizes(name):
    ts = REFERENCE_MEDIA[name]()
    assert assert_same_refinement(ts, relabel(ts, random.Random(len(ts.states))))


def test_splitting_answers_none_with_the_rounds_on_equal_sizes():
    # a mosaic window against a path of as many states: the degree tallies
    # already differ
    tri = arrangement_medium(mosaic_window("triangular", 2))
    n = len(tri.states)
    path = family_medium(SetFamily(tuple(map(str, range(n - 1))),
                                   tuple(frozenset(map(str, range(k))) for k in range(n))))
    assert not assert_same_refinement(tri, path)


def chain(n, seed):
    """The path medium on n states with short names, listed in a shuffled
    order; ``seed`` 0 keeps the path's order."""
    names = [f"s{i}" for i in range(n)]
    rng = random.Random(seed)
    states = rng.sample(names, n) if seed else names
    return TokenSystem.from_pairs(states, ((f"u{i}", f"d{i}", {names[i]: names[i + 1]})
                                           for i in range(n - 1)))


def refinement_codes():
    """``_joint_colours``'s code and every code object built inside it."""
    codes, todo = set(), [cubes._joint_colours.__code__]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return codes


def test_refinement_of_a_long_chain_pair_runs_in_few_lines():
    # a 1,000-state path against a shuffled copy: 500 colours, one more per
    # round, so recolouring every state in each round runs about 6,000,000
    # lines, where splitting against one class at a time runs about 63,000
    a, b = chain(1000, 0), chain(1000, 7)
    with lines_at_most(refinement_codes(), 120_000, "colour refinement") as count:
        col1, col2 = cubes._joint_colours(a, b)
    assert count[0] > 0
    assert len(set(col1.values())) == 500
    assert all(col1[f"s{i}"] == col1[f"s{999 - i}"] == col2[f"s{i}"] for i in range(1000))
