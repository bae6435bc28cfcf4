"""The isomorphism search on int labels against the frozenset search it
replaced.

``media_isomorphic`` translates the decision's int labels by XOR, keeps each
coordinate's image as one bit and reads each token's image off the
decision's ``sides``.  The oracle is the former route, kept in
``set_isomorphism``: frozenset labels, a dict of coordinate names and the
polarity strings of ``beta``.  Both must return the same maps in the same
order, or both None, spend the same units of work (``cubes._spend``) and so
hit ``ISO_WORK_BUDGET`` at the same patched budget: on relabelled copies of
the reference media, on drawn pairs of well-graded families, with every
state given one colour, and on pairs that are not isomorphic.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings

from tokenmedia import cubes
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.cubes import media_isomorphic
from tokenmedia.errors import CapError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium

from conftest import hexagon_family, hexagon_variant_family, power_set_family
from set_isomorphism import set_media_isomorphic
from test_decide_routes import chain, equal_size_wg_pairs, one_colour, relabel, spider

ROUTES = (media_isomorphic, set_media_isomorphic)


def search_work(route, ts, other):
    """The units of work ``route(ts, other)`` spends, and its answer."""
    spend, spent = cubes._spend, [0]

    def counted(work):
        spent[0] += 1
        spend(work)

    with mock.patch.object(cubes, "_spend", counted):
        found = route(ts, other)
    return spent[0], found


def assert_same_search(ts, other):
    """Both routes give the same answer, in the same order, for the same
    work, and both are capped one unit below it; the answer is returned."""
    (work, found), (old_work, old_found) = (search_work(route, ts, other) for route in ROUTES)
    assert work == old_work
    assert found == old_found
    if found is not None:
        assert [list(m.items()) for m in found] == [list(m.items()) for m in old_found]
    for route in ROUTES:
        with mock.patch.object(cubes, "ISO_WORK_BUDGET", work):
            assert route(ts, other) == found
        if work:
            with mock.patch.object(cubes, "ISO_WORK_BUDGET", work - 1), pytest.raises(CapError):
                route(ts, other)
    return found


def forked_and_spur():
    """Two trees with one degree sequence and one move count per token."""
    return (family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "be"])),
            family_medium(SetFamily.of("abcde", [set(), "a", "b", "c", "ad", "ade"])))


NAMED_MEDIA = {
    **{f"linear{n}": lambda n=n: linear_medium(n)[0] for n in range(2, 8)},
    "cube8": lambda: family_medium(power_set_family("abcdefgh")),
    "chain200": lambda: chain(200),
    **{f"{kind}{radius}": lambda kind=kind, radius=radius: arrangement_medium(mosaic_window(kind, radius))
       for kind in ("triangular", "truncated-square") for radius in (1, 2, 6, 12)},
}


@pytest.mark.parametrize("name", sorted(NAMED_MEDIA))
def test_relabelled_copies(name):
    ts = NAMED_MEDIA[name]()
    other = relabel(ts, random.Random(len(ts.states)))
    assert assert_same_search(ts, other) is not None


@settings(max_examples=200, deadline=None)
@given(equal_size_wg_pairs())
def test_drawn_family_pairs(pair):
    assert_same_search(*map(family_medium, pair))


@pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
def test_one_colour_on_mosaic_windows(kind):
    ts = arrangement_medium(mosaic_window(kind, 2))
    with mock.patch.object(cubes, "_joint_colours", one_colour):
        assert assert_same_search(ts, relabel(ts, random.Random(2))) is not None


def test_one_colour_on_trees_and_linear_5():
    ts = linear_medium(5)[0]
    with mock.patch.object(cubes, "_joint_colours", one_colour):
        assert assert_same_search(*forked_and_spur()) is None
        assert assert_same_search(ts, relabel(ts, random.Random(120))) is not None


@pytest.mark.parametrize("pair", [
    forked_and_spur,
    lambda: (spider([3] + [1] * 11), spider([2, 2] + [1] * 10)),
    lambda: (family_medium(hexagon_family()), family_medium(hexagon_variant_family())),
    lambda: (chain(24), linear_medium(4)[0]),
    lambda: (arrangement_medium(mosaic_window("triangular", 1)),
             arrangement_medium(mosaic_window("truncated-square", 1))),
], ids=["trees", "spiders", "hexagons", "chain-linear4", "mosaics1"])
def test_pairs_that_are_not_isomorphic(pair):
    assert assert_same_search(*pair()) is None
