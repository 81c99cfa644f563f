"""records.write_json lays every document out as json.dumps(..., indent=1)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from orbitcodes.records import write_json


def written(value) -> str:
    parts = []
    write_json(parts.append, value)
    return "".join(parts)


scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 100, 2 ** 100)
           | st.floats() | st.text())
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(st.integers(), max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(values)
def test_write_json_matches_json_dumps(value):
    assert written(value) == json.dumps(value, indent=1)


def test_write_json_keys_escape_as_json_dumps():
    value = {'say "hi"': [1], "naïve ∞": {"\\": [], "": {}}, "\n": (True, None, -0.0)}
    assert written(value) == json.dumps(value, indent=1)


# the items of selfdual --format json: a primary hit (m, params, words) and
# a further minimal hit (m, size, dims, orbit_count, constant_dimension)
SELFDUAL_ITEMS = {
    "two-words": ({"m": 5, "params": (4, 2, 2, 4), "words": [(0, 1), (2, 3)]},
                  {"m": 5, "size": 2, "dims": (2,), "orbit_count": 1,
                   "constant_dimension": True}),
    "no-distance": ({"m": 1, "params": (3, 1, 1, None), "words": [(0,)]},
                    {"m": 1, "size": 1, "dims": (1,), "orbit_count": 1,
                     "constant_dimension": True}),
    "mixed": ({"m": 21, "params": (6, 14, 2), "words": [(0,), (40, 41), (62,)]},
              {"m": 21, "size": 14, "dims": (1, 3, 5), "orbit_count": 3,
               "constant_dimension": False}),
}


@pytest.mark.parametrize("items", SELFDUAL_ITEMS.values(), ids=SELFDUAL_ITEMS)
def test_write_json_lays_out_selfdual_items(items):
    doc = {"q": 2, "n": 6, "constant_dimension_single_generator": [items[0]],
           "other_minimal": [items[1]]}
    assert written(doc) == json.dumps(doc, indent=1)


def test_write_json_writes_iterators_as_lists():
    words = [(0, 1, 4), (2, 3), ()]
    doc = {"m": 3, "generators": iter(words), "none": iter(()), "maps": map(list, words)}
    expected = {"m": 3, "generators": words, "none": [], "maps": words}
    assert written(doc) == json.dumps(expected, indent=1)
