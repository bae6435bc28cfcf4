"""The JSON writer of the CLI and the dense-table template against their oracle, the stdlib.

``cli.write_json(doc, fh)`` must write exactly
``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``, the layout
every CLI command prints, with one write, and nothing when ``json.dumps``
refuses the document.  ``tokens._dense_table`` must write a system's dense
``action`` table as ``json.dumps`` writes it, and ``linmedium``, which lays
its table out with it, must print what ``write_json`` would print for its
dense document, in one write and without building a dense row.
"""

import contextlib
import enum
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia import cli, tokens
from tokenmedia.cli import write_json
from tokenmedia.linorders import linear_medium
from tokenmedia.tokens import TokenSystem

# Quotes, backslashes, control characters, non-ASCII text, astral and lone surrogate code points.
texts = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9 \U0001f600'),
    st.characters(),
    st.characters(categories=["Cs"]),
))


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


# Subclasses, which json.dumps writes as their base types.
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
# Keys of one kind per dict, which json.dumps sorts and writes as strings, or of mixed kinds,
# which it cannot sort.
keys = st.sampled_from([strings, st.integers(), st.one_of(st.integers(), st.booleans(), st.none()),
                        st.one_of(strings, st.integers())])

documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(inner, max_size=5).map(Items),
        st.dictionaries(strings, inner, max_size=5),
        st.dictionaries(strings, inner, max_size=5).map(Table),
        keys.flatmap(lambda k: st.dictionaries(k, inner, max_size=4)),
    ),
    max_leaves=40,
)


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


class Recorder:
    """A text file that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def written(doc) -> str:
    out = io.StringIO()
    write_json(doc, out)
    return out.getvalue()


def assert_written_as_dumps(doc):
    """``doc`` is written as ``json.dumps`` writes it, or refused as it refuses it."""
    try:
        want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    except (TypeError, ValueError) as exc:
        out = io.StringIO()
        with pytest.raises(type(exc)):
            write_json(doc, out)
        assert out.getvalue() == ""
    else:
        assert written(doc) == want


@settings(max_examples=200, deadline=None)
@given(doc=documents)
def test_writer_matches_the_stdlib(doc):
    assert_written_as_dumps(doc)


def assert_template_matches(ts):
    want = json.dumps(ts.to_json_dict()["action"], sort_keys=True, separators=(",", ":"))
    assert "".join(tokens._dense_table(ts)) == want


@settings(max_examples=200, deadline=None)
@given(ts=systems())
def test_the_dense_template_matches_the_stdlib(ts):
    assert_template_matches(ts)


def test_the_dense_template_of_linear_five():
    assert_template_matches(linear_medium(5)[0])


@pytest.mark.parametrize("n", range(2, 7))
def test_linmedium_prints_its_dense_document_in_one_write(n):
    ts, fam = linear_medium(n)
    want = json.dumps({**ts.to_json_dict(), "family": fam.to_json_dict()}, sort_keys=True, separators=(",", ":"))
    out = Recorder()
    with mock.patch.object(tokens, "_dense_row", side_effect=AssertionError("a dense row was built")), \
            contextlib.redirect_stdout(out):
        assert cli.main(["linmedium", str(n)]) == 0
    assert out.writes == [want + "\n"]


@pytest.mark.parametrize("doc", [
    {}, [], (), "", 0, -1, 2**64, -(2**70), 1.5, float("nan"), float("-inf"), True, None,
    {"": [], "a": {}, "b": [[], {}, ()]}, [{"k": [{"x": ()}]}],
    Text("t"), Items(), Table(), Level.HIGH, ["a", "b", 1], ["a", Text("b")], ("a", ["b"]),
    Table(b=Items(["x", Level.LOW]), a=(Text("y"), {"c": ()})), {"k": ("a", "b")},
    # lists of string lists, and of dicts of one key set, with keys a template would have to escape
    [["a", "b"], [], [Text("c")]], [["a"], ("b",)], [["a"], "b"], [["a"], [1]], [["a"], [["b"]]],
    [{"%s": "x", "{0}": ["y"], '"': []}, {"%s": "%d", "{0}": [], '"': ["%%"]}],
    [{"%%": "x", "a%": "%s"}, {"%%": "%", "a%": "y"}], [{"%(a)s": ["%"]}, {"%(a)s": []}],
    [{"\xe9": "a", "b": "c"}, {"b": "d", "\xe9": "e"}], [{"a": "b"}, {"a": "c", "b": "d"}],
    [{"a": "b"}, {"c": "d"}], [{"a": "b"}, {"a": ["c"]}], [{"a": "b"}, {"a": 1}], [{"a": "b"}, "c"],
    [{"a": "b"}, Table(a="c")], [{}, {}], [{"a": {"b": ["c"]}}, {"a": {"b": []}}],
    [{"a": {"b": "c"}}, {"a": {"d": "c"}}], ({"a": ("b",)}, {"a": ("c",)}),
    # keys json.dumps writes as strings, or cannot sort
    {1: "x", 10: "y", 2: "z"}, {None: 0, False: 1, 2.5: "x"}, {None: 0, "a": 1},
])
def test_edge_documents(doc):
    assert_written_as_dumps(doc)


def test_int_keys_are_written_as_strings_as_json_dumps_writes_them():
    assert written({"a": {2: "x", 10: "y"}}) == '{"a":{"2":"x","10":"y"}}\n'


def test_a_key_that_is_not_a_string_raises_and_writes_nothing():
    # json.dumps writes int keys as strings, and refuses a tuple
    out = io.StringIO()
    with pytest.raises(TypeError):
        write_json({"a": {(1,): "x"}}, out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("doc", [
    [{(1,): "x"}, {(1,): "y"}], [{"a": "x", 1: "y"}, {"a": "z", 1: "w"}], [{"a": {(1,): "x"}}, {"a": {(1,): "y"}}],
    [["a"], {(1,): "x"}],
])
def test_a_key_that_is_not_a_string_raises_in_a_list_of_dicts(doc):
    out = io.StringIO()
    with pytest.raises(TypeError):
        write_json(doc, out)
    assert out.getvalue() == ""


def cycle():
    loop = []
    loop.append(loop)
    return {"a": loop}


@pytest.mark.parametrize("doc", [
    {(1,): "x"}, {"a": {1, 2}}, cycle(),
    # a token system, which json.dumps refuses wherever it stands
    {"a": {"action": linear_medium(3)[0]}}, [linear_medium(3)[0]], linear_medium(3)[0],
    {"action": linear_medium(3)[0], "b": {(1,): "x"}}, {"action": linear_medium(3)[0], 1: "x"},
])
def test_a_document_json_dumps_refuses_writes_nothing(doc):
    out = io.StringIO()
    with pytest.raises((TypeError, ValueError)):
        write_json(doc, out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("doc", [{"b": "x", "a": {"c": ["d", 1]}}, linear_medium(3)[0].to_json_dict()])
def test_the_text_reaches_the_file_in_one_write(doc):
    fh = Recorder()
    write_json(doc, fh)
    assert fh.writes == [written(doc)]
