"""The one-pass JSON writer of the CLI against its oracle, the stdlib.

``cli.write_json(doc, fh)`` must write exactly
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, the layout every CLI
command prints and ``scripts/build_gallery.py`` writes.  The stdlib's
indented encoder is pure Python; the writer escapes strings with the C
``encode_basestring_ascii`` and builds each nested container with one join.
A token system's ``action`` view is laid out from its moves and must read
as ``json.dumps`` writes the system's dense table.
"""

import enum
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia import tokens
from tokenmedia.cli import write_json
from tokenmedia.tokens import TokenSystem

# Quotes, backslashes, control characters, non-ASCII text, astral and lone surrogate code points.
texts = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9 \U0001f600'),
    st.characters(),
    st.characters(categories=["Cs"]),
))


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


# Subclasses, which miss the writer's exact-type fast paths and which
# json.dumps writes as their base types.
class Text(str):
    pass


class Items(list):
    pass


class Table(dict):
    pass


scalars = st.one_of(
    texts,
    texts.map(Text),
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.sampled_from(Level),
    st.floats(allow_nan=True, allow_infinity=True),
)
strings = st.one_of(texts, texts.map(Text))
string_lists = st.one_of(
    st.lists(strings, max_size=4),
    st.lists(strings, max_size=4).map(tuple),
    st.lists(strings, max_size=4).map(Items),
)
# Keys a row template must escape or keep: braces, percent signs, quotes and non-ASCII text.
column_keys = st.one_of(st.text(st.sampled_from('{}%s"\\\xe9\u20ac\U0001f600 a'), max_size=4), texts)


@st.composite
def column_lists(draw):
    """Lists the writer may lay out by column: all string lists, or all dicts of one key
    set whose values under a key are all strings, all string lists or of mixed kinds,
    as lists, tuples or ``Items``, with empty members, and sometimes one member of
    another type or key set."""
    if draw(st.booleans()):
        members = draw(st.lists(string_lists, min_size=1, max_size=6))
    else:
        names = draw(st.lists(column_keys, min_size=1, max_size=4, unique=True))
        values = {k: draw(st.sampled_from([strings, string_lists, st.one_of(strings, string_lists, scalars)]))
                  for k in names}
        members = draw(st.lists(st.fixed_dictionaries(values).map(draw(st.sampled_from([dict, Table]))),
                                min_size=1, max_size=6))
    if draw(st.booleans()):
        odd = draw(st.one_of(scalars, string_lists, st.dictionaries(column_keys, strings, max_size=3)))
        members.insert(draw(st.integers(0, len(members))), odd)
    return draw(st.sampled_from([list, tuple, Items]))(members)


documents = st.recursive(
    st.one_of(scalars, column_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(inner, max_size=5).map(Items),
        st.lists(texts, max_size=5).map(tuple),
        st.dictionaries(strings, inner, max_size=5),
        st.dictionaries(strings, inner, max_size=5).map(Table),
    ),
    max_leaves=40,
)


def written(doc) -> str:
    out = io.StringIO()
    write_json(doc, out)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_writer_matches_the_stdlib(doc):
    assert written(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, -1, 2**64, -(2**70), 1.5, float("nan"), float("-inf"), True, None,
    {"": [], "a": {}, "b": [[], {}, ()]}, [{"k": [{"x": ()}]}],
    Text("t"), Items(), Table(), Level.HIGH, ["a", "b", 1], ["a", Text("b")], ("a", ["b"]),
    Table(b=Items(["x", Level.LOW]), a=(Text("y"), {"c": ()})), {"k": ("a", "b")},
    # laid out by column, or not: string lists, and dicts of one key set
    [["a", "b"], [], [Text("c")]], [["a"], ("b",)], [["a"], "b"], [["a"], [1]], [["a"], [["b"]]],
    [{"%s": "x", "{0}": ["y"], '"': []}, {"%s": "%d", "{0}": [], '"': ["%%"]}],
    [{"%%": "x", "a%": "%s"}, {"%%": "%", "a%": "y"}], [{"%(a)s": ["%"]}, {"%(a)s": []}],
    [{"\xe9": "a", "b": "c"}, {"b": "d", "\xe9": "e"}], [{"a": "b"}, {"a": "c", "b": "d"}],
    [{"a": "b"}, {"c": "d"}], [{"a": "b"}, {"a": ["c"]}], [{"a": "b"}, {"a": 1}], [{"a": "b"}, "c"],
    [{"a": "b"}, Table(a="c")], [{}, {}], [{"a": {"b": ["c"]}}, {"a": {"b": []}}],
    [{"a": {"b": "c"}}, {"a": {"d": "c"}}], ({"a": ("b",)}, {"a": ("c",)}),
])
def test_edge_documents(doc):
    assert written(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_ints_booleans_and_none_are_written_without_the_stdlib():
    doc = {"bound": 8, "holds": True, "fails": False, "witness": None,
           "big": [-(2**70), 0, Level.LOW], "nested": {"x": [None, True, 1]}}
    want = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with mock.patch.object(json, "dumps", side_effect=AssertionError("json.dumps called")):
        assert written(doc) == want
        assert written(Level.LOW) == "-3\n"


def test_a_key_that_is_not_a_string_raises_and_writes_nothing():
    # The stdlib would write the key 1 as "1"; no document of the program has such a key.
    out = io.StringIO()
    with pytest.raises(TypeError):
        write_json({"a": {1: "x"}}, out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("doc", [
    [{1: "x"}, {1: "y"}], [{"a": "x", 1: "y"}, {"a": "z", 1: "w"}], [{"a": {1: "x"}}, {"a": {1: "y"}}],
    [["a"], {1: "x"}],
])
def test_a_key_that_is_not_a_string_raises_in_a_list_of_dicts(doc):
    out = io.StringIO()
    with pytest.raises(TypeError):
        write_json(doc, out)
    assert out.getvalue() == ""


def test_nested_containers_reach_the_file_as_one_piece_each():
    class Recorder:
        def writelines(self, pieces):
            self.pieces = list(pieces)

    fh = Recorder()
    write_json({"b": "x", "a": {"c": ["d", 1]}}, fh)
    assert fh.pieces == ['{\n  ', '"a"', ': ', '{\n    "c": [\n      "d",\n      1\n    ]\n  }',
                         ',\n  ', '"b"', ': ', '"x"', '\n}', '\n']


@st.composite
def systems(draw):
    """Token systems with 2-6 states and 1-4 tokens of drawn moves.  State and
    token names are drawn texts, so they need escaping and their name order
    differs from their order in the system; tokens may come in reverse pairs."""
    states = draw(st.lists(texts, min_size=2, max_size=6, unique=True))
    toks = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    moves = {}
    for t in toks:
        sources = draw(st.lists(st.sampled_from(states), min_size=1, unique=True))
        moves[t] = {s: draw(st.sampled_from([v for v in states if v != s])) for s in sources}
    reverse = None
    if len(toks) % 2 == 0 and draw(st.booleans()):
        reverse = {}
        for t, u in zip(toks[::2], toks[1::2]):
            reverse[t], reverse[u] = u, t
    return TokenSystem(tuple(states), tuple(toks), reverse=reverse, moves=moves)


@settings(max_examples=200, deadline=None)
@given(ts=systems())
def test_the_action_view_is_written_as_its_dense_table(ts):
    # the top level, as linmedium prints a system, and nested under a key of a larger document
    doc = {"system": ts.to_json_dict(view=True), "family": {"sets": [[]]}, "lines": []}
    dense = {**doc, "system": ts.to_json_dict()}
    with mock.patch.object(tokens, "_dense_row", side_effect=AssertionError("a dense row was built")):
        # written from the moves, no dense row built
        assert written(ts.to_json_dict(view=True)) == json.dumps(dense["system"], sort_keys=True, indent=2) + "\n"
        assert written(doc) == json.dumps(dense, sort_keys=True, indent=2) + "\n"
