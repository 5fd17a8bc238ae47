"""canonical_json against the json module it replaces, as the oracle."""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocbias.report import canonical_json


def oracle_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
)

# Keys of one type per dict, since sort_keys cannot order mixed types.
keyed_dicts = st.one_of(
    *(
        st.dictionaries(keys, st.none() | st.integers() | st.text(), max_size=4)
        for keys in (
            st.integers(),
            st.floats(allow_nan=False),
            st.booleans(),
            st.none(),
        )
    )
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.text(), max_size=5),
        st.lists(st.text() | children, max_size=5),
        st.dictionaries(st.text(), children, max_size=5),
        keyed_dicts,
    ),
    max_leaves=40,
)


@settings(max_examples=500, deadline=None)
@given(values)
def test_matches_json_dumps(value):
    assert canonical_json(value) == oracle_json(value)


class Level(enum.IntEnum):
    LOW = 1


class Tag(str, enum.Enum):
    SKY = "sky"


class Ratio(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[[]]],
        {"x": [{"y": []}]},
        [Level.LOW, Tag.SKY, Ratio(0.5), Ratio(math.inf)],
        {Level.LOW: Tag.SKY, 2: [Tag.SKY, "tree"]},
        {Tag.SKY: (Level.LOW,), "a": Ratio(-0.0)},
    ],
    ids=repr,
)
def test_fixed_cases(value):
    assert canonical_json(value) == oracle_json(value)


@pytest.mark.parametrize(
    "value",
    [object(), {"a": {1, 2}}, [b"bytes"], {("tuple", "key"): 1}, {"a": [1, object()]}],
    ids=["object", "set", "bytes", "tuple-key", "nested-object"],
)
def test_unserializable_raises_type_error(value):
    with pytest.raises(TypeError):
        oracle_json(value)
    with pytest.raises(TypeError):
        canonical_json(value)
