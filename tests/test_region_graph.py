"""The region graph and medium keyed by ints against the tuple route they
replace (``tests/tuple_region_graph.py``), the family that ``arrangement``
and ``mosaic`` print, read off the regions with no ``SetFamily`` built, and
the whole document they print, laid out from the cells' masks and int
witnesses, against the one built from the library's objects, with its medium
printed as its moves, which read back as the library's medium and pass ``check``."""

import json
import random
import sys

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
from tokenmedia.errors import InputError, ParseError
from tokenmedia.families import SetFamily
from tokenmedia.tokens import TokenSystem

from test_arrangements import concurrent_triple, crossing_pair, random_degenerate_lines, random_generic_lines
from test_cli_golden import DEGENERATE, SLANT, VERT
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


def command(given, tmp_path):
    """The argv that prints ``given``, an arrangement document or a mosaic (kind, radius),
    and the arrangement it prints."""
    if isinstance(given, dict):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(given))
        return ["arrangement", str(path)], Arrangement.from_json_dict(given)
    kind, radius = given
    return ["mosaic", kind, "--radius", str(radius)], mosaic_window(kind, radius)


@pytest.mark.parametrize("given", pipeline_runs())
def test_arrangement_and_mosaic_print_the_region_family_and_build_no_set_family(
        given, tmp_path, capsys, monkeypatch):
    argv, arr = command(given, tmp_path)
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


def library_document(arr):
    """What ``arrangement`` and ``mosaic`` print, built from the library's objects: the
    medium as its sparse ``"moves"`` document, each token's moves read off ``moves(t)``."""
    regions = enumerate_regions(arr)
    graph = region_adjacency(arr, regions)
    medium = arrangement_medium(arr, regions, graph)
    doc = {
        "lines": arr.to_json_dict()["lines"],
        "regions": [r.to_json_dict() for r in regions],
        "graph": graph.to_json_dict(),
        "system": {"states": list(medium.states),
                   "tokens": [{"id": t, "reverse": medium.reverse[t]} for t in medium.tokens],
                   "moves": {t: dict(medium.moves(t)) for t in medium.tokens}},
        "family": region_family(arr, regions).to_json_dict(),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def literal(rng):
    """A coefficient literal of either sign: an integer, a fraction, a decimal or an exponent."""
    whole = rng.randint(0, 4)
    return rng.choice(("", "-")) + rng.choice(
        (str(whole), f"{whole}/{rng.randint(2, 9)}", f"{whole}.{rng.randint(0, 99):02d}",
         f"{whole}e-{rng.randint(1, 2)}"))


def literal_arrangements(count, seed=38):
    """``count`` seeded arrangement documents of 2-8 lines written with such literals."""
    rng, docs = random.Random(seed), []
    while len(docs) < count:
        doc = {"lines": [{key: literal(rng) for key in "abc"} for _ in range(rng.randint(2, 8))]}
        try:
            Arrangement.from_json_dict(doc)
        except ParseError:  # a zero normal vector or two equal lines
            continue
        docs.append(doc)
    return docs


LITERAL_ARRANGEMENTS = literal_arrangements(24)


def printed(capsys, *argv):
    assert cli.main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


@pytest.mark.parametrize("doc", [pytest.param(arr.to_json_dict(), id=case.id) for case in graph_cases()
                                 for arr in case.values]
                         + [pytest.param(doc, id=f"literal-{i}") for i, doc in enumerate(LITERAL_ARRANGEMENTS)])
def test_arrangement_prints_the_document_of_the_library_objects(doc, tmp_path, capsys):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(doc))
    assert printed(capsys, "arrangement", str(path)) == library_document(Arrangement.from_json_dict(doc))


@pytest.mark.parametrize("kind", MOSAIC_KINDS)
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_mosaic_prints_the_document_of_the_library_objects(kind, radius, capsys):
    assert printed(capsys, "mosaic", kind, "--radius", str(radius)) == library_document(mosaic_window(kind, radius))


def test_the_literal_arrangements_reach_fraction_and_negative_witnesses():
    # every coefficient the benchmark parses is an integer literal, so only these
    # documents print witnesses n/d and negative ones from the CLI's own formatting
    witnesses = {str(w) for doc in LITERAL_ARRANGEMENTS
                 for r in enumerate_regions(Arrangement.from_json_dict(doc)) for w in r.witness}
    assert any(w.startswith("-") and "/" in w for w in witnesses)
    assert any(w[0].isdigit() and "/" in w for w in witnesses)
    assert any(w.startswith("-") and "/" not in w for w in witnesses)


def read_back_runs():
    for name, doc in (("degenerate", DEGENERATE), ("vertical", VERT), ("slant", SLANT)):
        yield pytest.param(doc, id=name)
    for kind in MOSAIC_KINDS:
        for radius in (1, 2, 3):
            yield pytest.param((kind, radius), id=f"mosaic-{kind}-{radius}")
    for i, doc in enumerate(LITERAL_ARRANGEMENTS):
        yield pytest.param(doc, id=f"literal-{i}")


@pytest.mark.parametrize("given", read_back_runs())
def test_the_printed_moves_read_back_as_the_medium_and_check_as_one(given, tmp_path, capsys, monkeypatch):
    argv, arr = command(given, tmp_path)
    system = json.loads(printed(capsys, *argv))["system"]
    assert sorted(system) == ["moves", "states", "tokens"]
    assert TokenSystem.from_json_dict(system) == arrangement_medium(arr)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    with open(path) as stdin:  # a file, with the descriptor "-" is read from
        monkeypatch.setattr(sys, "stdin", stdin)
        assert cli.main(["check", "-"]) == 0
