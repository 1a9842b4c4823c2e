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


NAME_KEYS = STRINGS.filter(lambda s: s != Name.ALICE.value) | st.just(Name.ALICE)
# Subclass scalars among every other kind, including str enum keys.
SUBCLASS_SCALARS = (
    st.sampled_from([Color.RED, Name.ALICE]) | FLOATS.map(np.float64) | st.booleans() | FLOATS
)
VALUES_WITH_SUBCLASSES = st.recursive(
    SCALARS | SUBCLASS_SCALARS,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(NAME_KEYS, children)
    ),
    max_leaves=40,
)


@given(VALUES_WITH_SUBCLASSES)
@settings(max_examples=150, deadline=None)
def test_writer_equals_json_dumps_with_subclass_scalars(x):
    assert to_canonical_json(x) == reference(x)


SUBCLASS_VALUES = [np.float64(0.1), np.float64(-0.0), np.float64("nan"), Color.RED, Name.ALICE]


@pytest.mark.parametrize(
    "x",
    [
        SUBCLASS_VALUES,
        {f"k{i}": v for i, v in enumerate(SUBCLASS_VALUES)},
        [0.5, True, 1.5, False, -2.0],
        {"a": 0.5, "b": True, "c": False, "d": -0.0},
        [math.nan, 1.0, math.inf, -math.inf, -0.0, 0.0],
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0},
        [[0.25, -0.0], [math.nan, math.inf], [-math.inf, 5e-324]],
        {Name.ALICE: 1, "b": [Name.ALICE], "a": {Name.ALICE: Color.RED}},
        {"a": [[], {}, ()], "b": {"c": {"d": [{}, [[]]]}}, "e": [{"f": ()}]},
        [[[[], {}], [()]], {"x": [{"y": {}}]}],
    ],
    ids=repr,
)
def test_inline_scalars_in_lists_and_dicts(x):
    assert to_canonical_json(x) == reference(x)


def test_deep_nesting():
    x = "leaf"
    for depth in range(60):
        x = {f"level{depth}": x, "n": depth} if depth % 2 else [depth, x, ()]
    assert to_canonical_json(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [{1, 2}, b"bytes", np.int64(3), [{"ok": {"nested": {1}}}], [0.5, "a", np.int64(3)],
     {"a": 1.0, "b": b"bytes"}],
    ids=["set", "bytes", "np.int64", "nested set", "np.int64 list item", "bytes dict value"],
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
