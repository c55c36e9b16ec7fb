"""Fuzz tests for every wire decoder: arbitrary bytes must either parse
into a valid object or raise ValueError — never crash, never produce a
corrupt structure."""

import pytest
from hypothesis import given, strategies as st

from repro.core.token import Token
from repro.testbed.tokenserver import (
    CapacityRequest,
    CapacityResponse,
    LocationRequest,
    LocationResponse,
)


@given(st.binary(max_size=64))
def test_token_decode_never_crashes(payload):
    try:
        token = Token.decode(payload)
    except ValueError:
        return
    # Parsed tokens must satisfy every invariant.
    ids = token.vm_ids
    assert list(ids) == sorted(set(ids))
    assert len(token) == len(ids) >= 1
    assert token.ids.tolist() == list(ids)
    assert len(token.levels) == len(ids)
    assert all(0 <= level <= 255 for level in token.levels.tolist())
    # And re-encode to the identical payload (canonical form).
    assert token.encode() == payload


@given(st.binary(max_size=32))
@pytest.mark.parametrize(
    "cls", [LocationRequest, LocationResponse, CapacityRequest, CapacityResponse]
)
def test_control_messages_never_crash(cls, payload):
    try:
        message = cls.decode(payload)
    except ValueError:
        return
    # Round-trip stability for whatever parsed.
    assert cls.decode(message.encode()) == message


@given(
    st.sets(st.integers(0, 2**32 - 1), min_size=1, max_size=64),
    st.data(),
)
def test_token_roundtrip_with_random_levels(ids, data):
    token = Token(ids)
    levels = [data.draw(st.integers(0, 255)) for _ in token.vm_ids]
    token.set_levels(token.ids, levels)
    decoded = Token.decode(token.encode())
    assert decoded.vm_ids == token.vm_ids
    assert decoded.levels.tolist() == token.levels.tolist() == levels
