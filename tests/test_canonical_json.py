"""The canonical JSON writer: byte-identical to the standard library's
``json.dumps(x, indent=2, sort_keys=True)`` on every value qparity emits."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qparity import to_canonical_json


def reference(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True)


FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
STRINGS = st.text() | st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é漢😀", "\ud800"])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | STRINGS
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(STRINGS, children)
    ),
    max_leaves=40,
)


@given(VALUES)
@settings(max_examples=150, deadline=None)
@example({"b": [1, 2.5, None], "a": {"y": True, "x": False}})
@example([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
def test_writer_equals_json_dumps(x):
    assert to_canonical_json(x) == reference(x)


class Color(enum.IntEnum):
    RED = 1


class Name(str, enum.Enum):
    ALICE = "alice"


@pytest.mark.parametrize(
    "x",
    [
        {},
        [],
        (),
        "",
        {"": {}, "a": [], "b": (), "c": [{}, [], ""]},
        [[[]]],
        {"k": [{"k": [{"k": {}}]}]},
        [np.float64(0.1), np.float64(-0.0), np.float64("inf"), np.float64("nan")],
        [Color.RED, Name.ALICE, True, 0, -(2**70)],
    ],
    ids=repr,
)
def test_explicit_values(x):
    assert to_canonical_json(x) == reference(x)


def test_deep_nesting():
    x = "leaf"
    for depth in range(60):
        x = {f"level{depth}": x, "n": depth} if depth % 2 else [depth, x, ()]
    assert to_canonical_json(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [{1, 2}, b"bytes", np.int64(3), [{"ok": {"nested": {1}}}]],
    ids=["set", "bytes", "np.int64", "nested set"],
)
def test_unsupported_value_raises_type_error_as_json_does(x):
    with pytest.raises(TypeError):
        reference(x)
    with pytest.raises(TypeError, match="not JSON serializable"):
        to_canonical_json(x)


@pytest.mark.parametrize("key", [1, 2.5, None, True, ("a", "b")], ids=repr)
def test_non_str_key_raises_type_error(key):
    with pytest.raises(TypeError):
        to_canonical_json({key: "value"})
    with pytest.raises(TypeError):
        to_canonical_json([{"ok": {key: 0}}])
    with pytest.raises(TypeError):
        to_canonical_json({"a": 0, key: 1})
