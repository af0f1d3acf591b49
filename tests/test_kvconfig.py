"""The key=value format: a value is written only if it reads back
exactly as given, and everything written reads back unchanged."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrlab.kvconfig import format_kv, parse_kv_text

SCALARS = st.one_of(st.booleans(), st.integers(), st.floats(), st.text())


@given(st.dictionaries(st.text(), st.one_of(SCALARS, st.lists(SCALARS, max_size=4)), max_size=6))
def test_format_kv_round_trips_whatever_it_accepts(data):
    try:
        text = format_kv(data)
    except ValueError:
        return
    assert parse_kv_text(text) == data


# keys and values of the kind configs and export sidecars carry; every one
# of these must be accepted
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True)
PLAIN = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.from_regex(r"s_[A-Za-z0-9_:.+-]{0,12}", fullmatch=True),
)


@given(st.dictionaries(NAMES, st.one_of(PLAIN, st.lists(PLAIN, max_size=4)), max_size=8))
def test_format_kv_accepts_config_like_values(data):
    assert parse_kv_text(format_kv(data)) == data


@pytest.mark.parametrize(
    "value",
    ["1", "true", "x,y", " s ", "a#b", "a\nb", math.nan, [[1, 2]], ["", "x"]],
    ids=["int_text", "bool_text", "comma", "blanks", "hash", "newline", "nan", "nested_list", "empty_item"],
)
def test_format_kv_refuses_values_it_would_mangle(value):
    with pytest.raises(ValueError, match="'field'"):
        format_kv({"field": value})


@pytest.mark.parametrize("key", ["a=b", "a#b", " a", "a\nb"], ids=["equals", "hash", "blank", "newline"])
def test_format_kv_refuses_keys_it_would_mangle(key):
    with pytest.raises(ValueError, match="would not read back"):
        format_kv({key: 1})


@pytest.mark.parametrize("value", [[], [32], ["bump"], (1.5,)], ids=["empty", "int", "str", "float_tuple"])
def test_short_lists_read_back_as_lists(value):
    assert parse_kv_text(format_kv({"k": value})) == {"k": list(value)}
