"""The one-pass JSON writer of the CLI against its oracle, the stdlib.

``cli.write_json(doc, fh)`` must write exactly
``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, the layout every CLI
command prints and ``scripts/build_gallery.py`` writes.  The stdlib's
indented encoder is pure Python; the writer escapes strings with the C
``encode_basestring_ascii`` and builds each nested container with one join.
"""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia.cli import write_json

# Quotes, backslashes, control characters, non-ASCII text, astral and lone surrogate code points.
texts = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9 \U0001f600'),
    st.characters(),
    st.characters(categories=["Cs"]),
))
scalars = st.one_of(
    texts,
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=True, allow_infinity=True),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
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
])
def test_edge_documents(doc):
    assert written(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_a_key_that_is_not_a_string_raises_and_writes_nothing():
    # The stdlib would write the key 1 as "1"; no document of the program has such a key.
    out = io.StringIO()
    with pytest.raises(TypeError):
        write_json({"a": {1: "x"}}, out)
    assert out.getvalue() == ""


def test_nested_containers_reach_the_file_as_one_piece_each():
    class Recorder:
        def writelines(self, pieces):
            self.pieces = list(pieces)

    fh = Recorder()
    write_json({"b": "x", "a": {"c": ["d", 1]}}, fh)
    assert fh.pieces == ['{\n  ', '"a"', ': ', '{\n    "c": [\n      "d",\n      1\n    ]\n  }',
                         ',\n  ', '"b"', ': ', '"x"', '\n}', '\n']
