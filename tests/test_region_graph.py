"""The region graph and medium keyed by ints against the tuple route they
replace (``tests/tuple_region_graph.py``), and the family that ``arrangement``
and ``mosaic`` print, read off the regions with no ``SetFamily`` built."""

import json
import random

import pytest

from tokenmedia import cli
from tokenmedia.arrangements import (
    MOSAIC_KINDS,
    Arrangement,
    arrangement_medium,
    enumerate_regions,
    mosaic_window,
    region_adjacency,
    region_family,
)
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily

from test_arrangements import concurrent_triple, crossing_pair, random_degenerate_lines, random_generic_lines
from tuple_region_graph import tuple_arrangement_medium, tuple_region_adjacency


def graph_cases():
    rng = random.Random(37)
    yield pytest.param(crossing_pair(), id="crossing-pair")
    yield pytest.param(concurrent_triple(), id="concurrent-triple")
    for kind in MOSAIC_KINDS:
        for radius in range(1, 7):
            yield pytest.param(mosaic_window(kind, radius), id=f"{kind}-{radius}")
    for i in range(8):
        yield pytest.param(random_generic_lines(rng, 2 + i), id=f"generic-{i}")
        yield pytest.param(random_degenerate_lines(rng, 3 + i), id=f"degenerate-{i}")


def outcome(build):
    """What build returns, or the error it raises."""
    try:
        return build()
    except InputError as exc:
        return repr(exc)


@pytest.mark.parametrize("arr", graph_cases())
def test_region_graph_and_medium_match_the_tuple_route(arr):
    regions = enumerate_regions(arr)
    # all regions, a breadth-first prefix, every other region and all but the first
    for subset in (regions, regions[:2 * len(regions) // 3], regions[::2], regions[1:]):
        got, want = region_adjacency(arr, subset), tuple_region_adjacency(arr, subset)
        assert got.vertices == want.vertices and got.edges == want.edges
        assert list(got.edge_labels.items()) == list(want.edge_labels.items())
        assert got == want
        assert outcome(lambda: arrangement_medium(arr, subset, got)) == \
            outcome(lambda: tuple_arrangement_medium(arr, subset, want))
    assert arrangement_medium(arr) == tuple_arrangement_medium(arr)


def pipeline_runs():
    # two parallel pairs and a triple point, with rational coefficients
    lines = [(1, 0, 0), (2, 0, -1), (0, 1, 0), (0, "1/2", 1), (1, 1, 0), ("1/3", -1, "5/7")]
    yield pytest.param({"lines": [{"a": str(a), "b": str(b), "c": str(c)} for a, b, c in lines]},
                       id="arrangement")
    for kind in MOSAIC_KINDS:
        yield pytest.param((kind, 2), id=f"mosaic-{kind}-2")


@pytest.mark.parametrize("given", pipeline_runs())
def test_arrangement_and_mosaic_print_the_region_family_and_build_no_set_family(
        given, tmp_path, capsys, monkeypatch):
    if isinstance(given, dict):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(given))
        argv, arr = ["arrangement", str(path)], Arrangement.from_json_dict(given)
    else:
        kind, radius = given
        argv, arr = ["mosaic", kind, "--radius", str(radius)], mosaic_window(kind, radius)
    built, check = [], SetFamily.__post_init__

    def counting(self):
        check(self)
        built.append(self)

    monkeypatch.setattr(SetFamily, "__post_init__", counting)
    assert cli.main(argv) == 0
    assert built == []
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == region_family(arr, enumerate_regions(arr)).to_json_dict()
    assert len(built) == 1
