"""The decision and the exact axioms read off threshold labels, against the
routes they replaced.

``decide_medium`` and ``check_axioms`` both read ``represent._potentials``:
one threshold label per state, built along the BFS tree with a bit given
out per (coordinate, value) the first time a tree step crosses it.  The
oracle is the former pair-bitmask decision and tuple potentials, kept
verbatim in ``tuple_potentials``: every system must get a decision that
reads the same (``assert_reads_the_same``: verdict, witness, alpha, beta,
family and document), the same M2-M4 witnesses, the same coordinates (the
bits a label holds in a pair's field, counted from the component's least
value) and the same threshold labels up to the order of their bits.  A path
on one pair with S states near a power of two takes a coordinate through S
values in one field, up from the root or down from it, beside another
pair's field or alone.  A line budget keeps the labeling at O(S + k) lines
per component, and a memory budget keeps a long chain's labels small.
"""

from functools import reduce
from operator import or_
import tracemalloc

from hypothesis import event, example, given, settings
from hypothesis import strategies as st
import pytest

from tokenmedia import represent
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem, reverse_defect

import tuple_potentials
from conftest import CodesIn, corpus_media, lines_at_most, twisted_square, union6, wg_families
from frozenset_labels import assert_reads_the_same
from test_exact_check import family_systems, m1_systems, open_square, small_systems, two_level_path
from test_large_media import chain
from tuple_potentials import fresh


def assert_same_as_the_tuple_route(ts):
    """Decision, witnesses, coordinates and labels of a fresh copy of ts on
    both routes; returns the packed potentials, or None when M1 fails."""
    new, old = fresh(ts), fresh(ts)
    decision = represent.decide_medium(new)
    assert_reads_the_same(decision, tuple_potentials._pair_decision(old))
    if reverse_defect(ts) is not None:
        return None
    ev, ref = represent._potentials(new), tuple_potentials._potentials(old)
    # which also tests the components of a disconnected system, as the decision does not
    assert represent._axiom_witnesses(new, ev) == tuple_potentials._axiom_witnesses(old)
    assert ev.comps == ref.comps and ev.parent == ref.parent and ev.pair == ref.pair
    for comp in ev.comps:
        least = [min(ref.pot[i][x] for i in comp) for x in range(len(ev.fields))]
        assert [tuple((ev.lab[i] & f).bit_count() for f in ev.fields) for i in comp] == \
            [tuple(c - lo for c, lo in zip(ref.pot[i], least)) for i in comp]
        assert bit_columns([ev.lab[i] for i in comp]) == \
            bit_columns(tuple_potentials._thresholds(ref, comp)[0])
    assert ev.m3 == ref.m3
    if ev.m3 is None:
        assert ev.separation == ref.separation and ev.bounds == ref.bounds
    return ev


def bit_columns(labels):
    """The labels' bits as columns, each one bit over all the labels, sorted;
    a bit no label holds is left out."""
    columns = (tuple(label >> b & 1 for label in labels) for b in range(max(labels).bit_length()))
    return sorted(column for column in columns if any(column))


MEDIA = {
    **{f"linear-{n}": lambda n=n: linear_medium(n)[0] for n in range(3, 7)},
    **{f"{kind}-{r}": lambda kind=kind, r=r: arrangement_medium(mosaic_window(kind, r))
       for kind in ("triangular", "truncated-square") for r in (1, 2)},
}


@pytest.mark.parametrize("name", [name for name, _ in corpus_media()] + sorted(MEDIA))
def test_media_match_the_tuple_route(name):
    ts = dict(corpus_media()).get(name) or MEDIA[name]()
    ev = assert_same_as_the_tuple_route(ts)
    assert represent.decide_medium(ts).is_medium and len(ev.comps) == 1


@pytest.mark.parametrize("make", [two_level_path, union6, twisted_square, open_square])
def test_non_media_match_the_tuple_route(make):
    assert_same_as_the_tuple_route(make())


def spans_three_values(ev):
    """Some coordinate takes three or more values within one component: its
    field holds two or more of the component's bits."""
    bits = [reduce(or_, (ev.lab[i] for i in comp)) for comp in ev.comps]
    return any((held & f).bit_count() > 1 for held in bits for f in ev.fields)


@settings(max_examples=300, deadline=None)
@given(ts=st.one_of(family_systems(), small_systems(), m1_systems()))
@example(ts=TokenSystem.from_pairs(("a", "b", "c", "d"), [("p", "q", {"a": "b", "c": "d"})]))
@example(ts=TokenSystem.from_pairs(("a", "b", "c"), [("p", "q", {"a": "b", "b": "c"})]))
def test_random_systems_match_the_tuple_route(ts):
    # the examples: two components, and one pair whose coordinate spans three values
    ev = assert_same_as_the_tuple_route(ts)
    if ev is None:
        event("fails M1")
    else:
        event("disconnected" if len(ev.comps) > 1 else "connected")
        if ev.m3 is None and spans_three_values(ev):
            event("a coordinate spans three or more values")


@settings(max_examples=100, deadline=None)
@given(fam=wg_families())
def test_well_graded_families_match_the_tuple_route(fam):
    if len(fam.sets) < 2:
        fam = SetFamily(fam.ground, (*fam.sets, fam.sets[0] ^ {fam.ground[0]}))
    assert_same_as_the_tuple_route(family_medium(fam))


def one_pair_path(n, down, neighbour):
    """n states s0, s1, ... in a path from the root s0.  Pair p moves every
    step, up from s0 or (``down``) down from it, so its coordinate reaches
    +-(n - 1).  With a ``neighbour``, the last step is pair q's instead and
    q's field sits below or above p's."""
    states = tuple(f"s{i}" for i in range(n))
    last = n - 1 if neighbour else n
    forward = {states[i]: states[i + 1] for i in range(last - 1)}
    p = ("p+", "p-", forward) if not down else ("p-", "p+", {v: s for s, v in forward.items()})
    if not neighbour:
        return TokenSystem.from_pairs(states, [p])
    q = ("q+", "q-", {states[-2]: states[-1]})
    return TokenSystem.from_pairs(states, [q, p] if neighbour == "below" else [p, q])


@pytest.mark.parametrize("neighbour", [None, "below", "above"])
@pytest.mark.parametrize("down", [False, True])
@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65])
def test_coordinates_at_the_ends_of_their_fields(n, down, neighbour):
    ts = one_pair_path(n, down, neighbour)
    ev = assert_same_as_the_tuple_route(ts)
    f = ev.fields[ev.pair["p+"][0]]
    assert {(ev.lab[i] & f).bit_count() for i in range(n)} == set(range(n - 1 if neighbour else n))
    assert ev.separation == [None]  # a path: every move toward q lowers the distance
    assert represent.decide_medium(ts).witness["axiom"] == "M4"  # p moves at every level


def test_potentials_of_a_long_chain_run_in_few_lines():
    # 1,000 states on 999 pairs: the tuple route's threshold labels were a
    # sum over every pair per state, about 3,000,000 lines; built along the
    # tree they take one line per step
    ts = chain(1000, 0)
    with lines_at_most(CodesIn(represent.__file__), 200_000, "the potentials") as count:
        ev = represent._potentials(ts)
    assert count[0] > 0
    assert ev.m3 is None and ev.separation == [None] and ev.bounds == [None]


def test_potentials_of_a_long_chain_keep_little_memory():
    # 2,000 states on 1,999 pairs: the packed potentials, a 13-bit field
    # per pair in every state's int, peaked at about 24 MB; the threshold
    # labels peak at about 10 MB, most of it the separation test's transpose
    ts = chain(2000, 0)
    tracemalloc.start()
    try:
        ev = represent._potentials(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.m3 is None and ev.separation == [None] and ev.bounds == [None]
    assert peak <= 12_000_000, peak


def test_decision_of_a_very_long_chain_keeps_within_150_mb():
    # 10,000 states on 9,999 pairs: the transpose of the whole label matrix
    # as one string of S x width digits peaked at about 227 MB; a block of
    # rows at a time it peaks at about 70 MB
    ts = chain(10000, 0)
    tracemalloc.start()
    try:
        ev = represent._potentials(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.m3 is None and ev.separation == [None] and ev.bounds == [None]
    assert peak <= 150_000_000, peak


def test_m3_names_the_earlier_tokens_move_though_the_walk_meets_it_later():
    # two triangles off the root a: the walk meets the disagreeing move of
    # the later token late at b (level 1) before that of the earlier token
    # early at e (level 2); the scan in token order named e's move first
    states = ("a", "b", "c", "d", "e", "f")
    ts = TokenSystem.from_pairs(states, [
        ("early", "early'", {"e": "f"}), ("late", "late'", {"b": "c"}), ("x", "x'", {"a": "b"}),
        ("y", "y'", {"a": "c"}), ("z", "z'", {"a": "d"}), ("w", "w'", {"d": "e"}),
        ("v", "v'", {"d": "f"})])
    ev = assert_same_as_the_tuple_route(ts)
    assert ev.m3["kind"] == "ineffective-but-not-vacuous"
    assert (ev.m3["state"], ev.m3["message"][0]) == ("e", "early")


def test_m3_names_the_repeated_label_of_the_first_component():
    # two components, each a path p, q, p' beside a step q from its root,
    # so two states of each share a label; the second component's states
    # come first in state order after the first root
    def loop(a, b, c, d, e, k):
        return [(f"p{k}", f"p{k}'", {a: b, d: c}), (f"q{k}", f"q{k}'", {b: c, a: e})]
    states = ("a", "f", "g", "h", "i", "j", "b", "c", "d", "e")
    ts = TokenSystem.from_pairs(states, loop("a", "b", "c", "d", "e", 0) + loop("f", "g", "h", "i", "j", 1))
    ev = assert_same_as_the_tuple_route(ts)
    assert len(ev.comps) == 2 and ev.comps[0][0] == 0
    assert ev.m3["kind"] == "vacuous-but-effective"
    assert {ev.m3["state"], ev.m3["end"]} == {"d", "e"}
