import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discretepl.io import dump_json, long_int_strings

_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308])
#: ints longer than CPython's 4,300-digit limit on int-to-str conversion
_LONG_INTS = st.builds(lambda digits, sign, tail: sign * (10**digits + tail), st.integers(4300, 4400), st.sampled_from([1, -1]), st.integers(0, 10**9))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1, True, False])
    | st.integers()
    | _LONG_INTS
    | st.floats()
    | _EDGE_FLOATS
    | st.text()  # non-ASCII letters and control characters included
)
_JSON_READY = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_READY)
@example([True, 1, False, 0, {"1": True, "0": 0}, (), {}, []])
@example({"\x00é☃\U0001f600\n\t": ["\x1fé\x7f", {"": -0.0}]})
def test_dump_json_is_the_indented_sorted_json_dumps(value):
    with long_int_strings():
        assert dump_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 3), {"P": [Fraction(1, 3)]}], ids=["top-level", "nested"])
def test_dump_json_rejects_a_fraction_as_json_dumps_does(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_json(value)
