import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symdyn.report import _dump, jsonable


class Int(int):
    def __repr__(self):
        return "Int()"


class Str(str):
    pass


class Float(float):
    def __repr__(self):
        return "Float()"


def reference(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


TEXT = st.text(st.characters(blacklist_categories=("Cs",)))  # control and non-ASCII characters too
SCALARS = (
    TEXT
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
    | st.booleans()
    | st.none()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner)
    | st.dictionaries(TEXT, inner),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(VALUES)
def test_dump_is_json_dumps_sorted_with_indent_2(x):
    assert _dump(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        {},
        [],
        {"b": [], "a": {}},
        [[1, 2], ["é\n", None, True]],
        {"rows": ["0|1", "10|"], "markers": [[0, 2], [], [1]]},
        [0.5, float("nan"), -0.0],
    ],
)
def test_dump_on_edge_cases(x):
    assert _dump(x) == reference(x)


@pytest.mark.parametrize("x", [object(), {"a": Fraction(1, 2)}, [1, {2, 3}]])
def test_dump_refuses_what_json_refuses(x):
    with pytest.raises(TypeError):
        reference(x)
    with pytest.raises(TypeError):
        _dump(x)


@pytest.mark.parametrize("x", [Int(2), Str("a"), Float(0.5), (1, 2), [Int(2)], {"a": (1,)}])
def test_dump_refuses_what_jsonable_never_returns(x):
    with pytest.raises(TypeError):
        _dump(x)


class Rendered:
    def render(self):
        return "text"


@pytest.mark.parametrize("x, name", [(object(), "object"), (Rendered(), "Rendered"), (Int(2), "Int"), ([1, {2}], "set")])
def test_jsonable_refuses_what_it_cannot_render(x, name):
    with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
        jsonable(x)
