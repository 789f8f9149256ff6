"""The server's JSON codec: orjson and the stdlib agree on every float64, bit for bit.

The server decodes bodies and encodes responses with ``orjson``; clients
(the stdlib one in ``run_self_test``, the benchmark's, ``curl`` scripts)
mostly encode and decode with ``json``.  A column must arrive as the
float64 values the client encoded, and an ``h`` must decode to the values
the server solved, so each direction must round-trip every finite double.
Malformed bodies are covered over HTTP in ``test_server.py``.
"""

import json

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve.server import MAX_JSON_DEPTH, ProjectionServer, _nests_deeper_than

_EDGE_VALUES = [
    0.0, -0.0,
    5e-324, -5e-324,                      # smallest subnormal
    2.225073858507201e-308,               # largest subnormal
    2.2250738585072014e-308,              # smallest normal, 17 digits
    1.7976931348623157e308, -1.7976931348623157e308,
    0.30000000000000004, 1 / 3, 0.1, 1e22, 1e23,
    2**53 + 1, -(2**63), 2**64, 10**30,   # integers past float64's exact range
]

# A double parsed from 17 significant digits and any exponent that stays finite.
_SEVENTEEN_DIGITS = st.builds(
    lambda digits, exponent: float(f"0.{digits}e{exponent}"),
    st.integers(10**16, 10**17 - 1),
    st.integers(-340, 308),
)

_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and ±0.0 included
    _SEVENTEEN_DIGITS,
    st.integers(-(2**70), 2**70),
    st.sampled_from(_EDGE_VALUES),
)


@settings(max_examples=300, deadline=None)
@given(column=st.lists(_VALUES, min_size=1, max_size=32))
@example(column=_EDGE_VALUES)
def test_orjson_columns_equal_json_loads_bit_for_bit(column):
    body = json.dumps({"columns": [column, column[::-1]]}).encode()
    got = ProjectionServer._extract_columns(ProjectionServer._parse_json(body), body)
    want = np.asarray(json.loads(body)["columns"], dtype=np.float64).T
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and ±0.0 included
    _SEVENTEEN_DIGITS,
    st.sampled_from([v for v in _EDGE_VALUES if isinstance(v, float)]),
)


@settings(max_examples=300, deadline=None)
@given(h=st.lists(_FLOATS, min_size=1, max_size=32))
@example(h=[v for v in _EDGE_VALUES if isinstance(v, float)])
def test_orjson_responses_decode_bit_for_bit(h):
    # ``h`` is sent as ``.tolist()`` of float64 values; stdlib and orjson
    # clients must both read back exactly those bits, signed zeros included.
    want = np.asarray(h, dtype=np.float64)
    body = orjson.dumps({"h": [h, h[::-1]]})
    for decoded in (json.loads(body), orjson.loads(body)):
        got = np.asarray(decoded["h"][0], dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        assert np.asarray(decoded["h"][1]).tobytes() == want[::-1].tobytes()


@pytest.mark.parametrize("body, deeper", [
    (b"", False),
    (b"[" * MAX_JSON_DEPTH + b"]" * MAX_JSON_DEPTH, False),
    (b"[" * (MAX_JSON_DEPTH + 1) + b"]" * (MAX_JSON_DEPTH + 1), True),
    (b'{"a":' * 2000 + b"1" + b"}" * 2000, True),
    (json.dumps([[1.0]] * 5000).encode(), False),                  # wide, 2 deep
    (b'{"s": "' + b"[" * 5000 + b'"}', False),                     # openers in a string
    (b'{"s": "\\"' + b"]" * 5000 + b'", "a": '                      # an escaped quote does
     + b"[" * 2000 + b"]" * 2000 + b"}", True),                     # not end the string
    (b'{"s": "\\\\", "a": ' + b"[" * 2000 + b"]" * 2000 + b"}", True),  # "\\" does
], ids=["empty", "at-limit", "past-limit", "objects", "wide", "in-string",
        "escaped-quote", "escaped-backslash"])
def test_nesting_guard(body, deeper):
    assert _nests_deeper_than(body, MAX_JSON_DEPTH) is deeper
