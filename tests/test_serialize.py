"""`serialize.dumps` writes the canonical form itself; it must match the
standard library's indented, key-sorted output byte for byte."""

import enum
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefgraph.serialize import dumps

TEXT = st.text(
    st.one_of(
        st.characters(),  # any code point but surrogates, astral ones included
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t é€'),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-(2**64), min_value=-(2**200)),
    st.floats(),  # NaN, infinities and -0.0 included
    TEXT,
)
DOCUMENTS = st.dictionaries(
    TEXT,
    st.recursive(
        SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(TEXT, children, max_size=4),
        ),
        max_leaves=12,
    ),
    max_size=6,
)


class Shade(enum.IntEnum):
    DARK = 7


class Loud(str):
    def __str__(self):
        return self.upper()


def reference(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(DOCUMENTS)
@example({})
@example(
    {
        "empty": {"list": [], "dict": {}, "nested": [[], {}, [[]], {"k": {}}]},
        "text": "café \U0001f600   \x00\x1f \"quoted\" back\\slash",
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e300, 0.1],
        "ints": [0, -1, 2**64 + 1, -(2**70)],
        "flags": [True, False, None],
        "tuple": (1, "two", (3.0,), ()),
        "\U0001f600 key": 1,
    }
)
@example(
    {
        "nested": [[True, False, 0, -1, 2**70], [[True], [3]], {"b": False, "i": 0, "s": ""}],
        "by_key": {"t": True, "f": False, "n": -5, "list": [False, 1, True, "x"]},
        "subclasses": [Shade.DARK, Loud("quiet"), {"v": Shade.DARK, "w": Loud("x")}],
    }
)
def test_matches_json_dumps(document):
    assert dumps(document) == reference(document)


def test_non_string_keys_written_as_json_writes_them():
    for document in ({1: "a", 10: "b", 2: "c"}, {1.5: 0, -0.5: 1}, {True: 0}, {None: 0}):
        assert dumps(document) == reference(document)


@pytest.mark.parametrize("document", [{"a": {1, 2}}, {"a": [object()]}, {(1, 2): "tuple key"}])
def test_unsupported_types_raise_type_error(document):
    with pytest.raises(TypeError):
        dumps(document)
