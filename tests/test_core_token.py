"""Tests for the token structure and its wire format (§V-A, §V-B2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.token import MAX_LEVEL_VALUE, Token, TokenEntry


class TestTokenEntry:
    def test_valid(self):
        entry = TokenEntry(vm_id=5, level=3)
        assert entry.vm_id == 5 and entry.level == 3

    def test_id_range(self):
        with pytest.raises(ValueError):
            TokenEntry(vm_id=2**32)

    def test_level_range(self):
        with pytest.raises(ValueError):
            TokenEntry(vm_id=1, level=256)


class TestTokenBasics:
    def test_ids_sorted_and_deduped(self):
        token = Token([5, 1, 3, 3])
        assert token.vm_ids == (1, 3, 5)
        assert len(token) == 3
        assert token.lowest_id == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Token([])

    def test_levels_initialized_zero(self):
        token = Token([1, 2])
        assert token.level_of(1) == 0 and token.level_of(2) == 0

    def test_set_and_raise_level(self):
        token = Token([1, 2])
        token.set_level(1, 3)
        assert token.level_of(1) == 3
        assert not token.raise_level(1, 2)  # lower: ignored (Algorithm 1 rule)
        assert token.level_of(1) == 3
        assert token.raise_level(1, 5)
        assert token.level_of(1) == 5

    def test_set_level_bounds(self):
        token = Token([1])
        with pytest.raises(ValueError):
            token.set_level(1, 300)
        with pytest.raises(KeyError):
            token.set_level(9, 1)

    def test_membership_management(self):
        token = Token([1, 3])
        token.add_vm(2, level=1)
        assert token.vm_ids == (1, 2, 3)
        token.remove_vm(3)
        assert token.vm_ids == (1, 2)
        with pytest.raises(ValueError):
            token.add_vm(2)
        with pytest.raises(KeyError):
            token.remove_vm(99)

    def test_cannot_remove_last(self):
        token = Token([1])
        with pytest.raises(ValueError):
            token.remove_vm(1)


class TestCirculation:
    def test_successor_wraps(self):
        token = Token([1, 5, 9])
        assert token.successor(1) == 5
        assert token.successor(5) == 9
        assert token.successor(9) == 1

    def test_successor_by_value(self):
        token = Token([1, 5, 9])
        assert token.successor(3) == 5
        assert token.successor(10) == 1

    def test_vms_at_level(self):
        token = Token([1, 2, 3])
        token.set_level(2, 3)
        assert token.vms_at_level(3) == [2]
        assert token.vms_at_level(0) == [1, 3]

    def test_max_recorded_level(self):
        token = Token([1, 2])
        assert token.max_recorded_level() == 0
        token.set_level(2, 2)
        assert token.max_recorded_level() == 2


class TestWireFormat:
    def test_entry_size_is_five_bytes(self):
        token = Token([1, 2, 3])
        assert token.wire_size == 15
        assert len(token.encode()) == 15

    def test_roundtrip(self):
        token = Token([7, 100, 2**31])
        token.set_level(100, 3)
        decoded = Token.decode(token.encode())
        assert decoded.vm_ids == token.vm_ids
        for vm_id in token.vm_ids:
            assert decoded.level_of(vm_id) == token.level_of(vm_id)

    def test_reject_bad_size(self):
        with pytest.raises(ValueError, match="multiple"):
            Token.decode(b"\x00" * 7)
        with pytest.raises(ValueError):
            Token.decode(b"")

    def test_reject_unsorted(self):
        token_a = Token([5])
        token_b = Token([1])
        payload = token_a.encode() + token_b.encode()
        with pytest.raises(ValueError, match="ascending"):
            Token.decode(payload)

    @given(
        st.sets(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
        st.integers(0, MAX_LEVEL_VALUE),
    )
    def test_roundtrip_property(self, ids, level):
        token = Token(ids)
        token.set_level(token.lowest_id, level)
        decoded = Token.decode(token.encode())
        assert decoded.vm_ids == token.vm_ids
        assert decoded.level_of(token.lowest_id) == level


# -- the array token against a dict model -------------------------------------

IDS = st.integers(0, 40)
LEVELS = st.integers(0, 300)  # beyond 255 must raise


class TokenMachine(RuleBasedStateMachine):
    """Every public operation of :class:`Token` against ``id -> level``.

    The version must bump exactly once per state-changing call, and a
    rejected call must leave the token (and its version) untouched.
    """

    @initialize(ids=st.sets(IDS, min_size=1, max_size=12))
    def boot(self, ids):
        self.token = Token(ids)
        self.model = {vm_id: 0 for vm_id in ids}
        self.version = self.token.version

    def changed(self, did_change=True):
        self.version += 1 if did_change else 0
        assert self.token.version == self.version

    @rule(vm_id=IDS, level=LEVELS)
    def add_vm(self, vm_id, level):
        if vm_id in self.model or level > MAX_LEVEL_VALUE:
            with pytest.raises(ValueError):
                self.token.add_vm(vm_id, level)
            return self.changed(False)
        self.token.add_vm(vm_id, level)
        self.model[vm_id] = level
        self.changed()

    @rule(vm_id=IDS)
    def remove_vm(self, vm_id):
        if vm_id not in self.model:
            with pytest.raises(KeyError):
                self.token.remove_vm(vm_id)
        elif len(self.model) == 1:
            with pytest.raises(ValueError):
                self.token.remove_vm(vm_id)
        else:
            self.token.remove_vm(vm_id)
            del self.model[vm_id]
            return self.changed()
        self.changed(False)

    @rule(vm_id=IDS, level=LEVELS)
    def set_level(self, vm_id, level):
        if vm_id not in self.model:
            with pytest.raises(KeyError):
                self.token.set_level(vm_id, level)
        elif level > MAX_LEVEL_VALUE:
            with pytest.raises(ValueError):
                self.token.set_level(vm_id, level)
        else:
            self.token.set_level(vm_id, level)
            old, self.model[vm_id] = self.model[vm_id], level
            return self.changed(old != level)
        self.changed(False)

    @rule(vm_id=IDS, level=LEVELS)
    def raise_level(self, vm_id, level):
        if vm_id not in self.model:
            with pytest.raises(KeyError):
                self.token.raise_level(vm_id, level)
        elif self.model[vm_id] >= level:
            assert self.token.raise_level(vm_id, level) is False
        elif level > MAX_LEVEL_VALUE:
            with pytest.raises(ValueError):
                self.token.raise_level(vm_id, level)
        else:
            assert self.token.raise_level(vm_id, level) is True
            self.model[vm_id] = level
            return self.changed()
        self.changed(False)

    @rule(data=st.data())
    def set_levels(self, data):
        ids = data.draw(
            st.lists(
                st.sampled_from(sorted(self.model)) | IDS,
                unique=True,
                max_size=8,
            )
        )
        current = st.sampled_from(sorted(set(self.model.values())))
        levels = [data.draw(current | LEVELS) for _ in ids]
        if any(v not in self.model for v in ids):
            with pytest.raises(KeyError):
                self.token.set_levels(np.array(ids), np.array(levels))
        elif any(level > MAX_LEVEL_VALUE for level in levels):
            with pytest.raises(ValueError):
                self.token.set_levels(np.array(ids), np.array(levels))
        else:
            self.token.set_levels(np.array(ids), np.array(levels))
            new = {**self.model, **dict(zip(ids, levels))}
            did_change = new != self.model
            self.model = new
            return self.changed(did_change)
        self.changed(False)

    @rule(value=st.integers(-1, 42))
    def successor(self, value):
        ids = sorted(self.model)
        later = [v for v in ids if v > value]
        assert self.token.successor(value) == (later or ids)[0]

    @rule(value=st.integers(-1, 42))
    def rotation_from(self, value):
        ids = sorted(self.model)
        head = [v for v in ids if v >= value]
        assert self.token.rotation_from(value) == head + ids[: len(ids) - len(head)]

    @rule(level=LEVELS)
    def vms_at_level(self, level):
        want = sorted(v for v, l in self.model.items() if l == level)
        assert self.token.vms_at_level(level) == want

    @rule()
    def levels_present(self):
        assert self.token.levels_present() == sorted(set(self.model.values()))
        assert self.token.max_recorded_level() == max(self.model.values())

    @rule()
    def wire_round_trip(self):
        decoded = Token.decode(self.token.encode())
        assert [(e.vm_id, e.level) for e in decoded.entries()] == sorted(
            self.model.items()
        )

    @invariant()
    def token_describes_the_model(self):
        ids = sorted(self.model)
        assert self.token.vm_ids == tuple(ids)
        assert self.token.ids.tolist() == ids
        assert self.token.levels.tolist() == [self.model[v] for v in ids]
        assert len(self.token) == len(ids)
        assert self.token.lowest_id == ids[0]
        for vm_id in (ids[0], ids[-1], ids[-1] + 1):
            assert (vm_id in self.token) == (vm_id in self.model)


TestTokenMachine = TokenMachine.TestCase
TestTokenMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)


def test_array_views_are_read_only():
    token = Token([1, 2])
    with pytest.raises(ValueError):
        token.ids[0] = 5
    with pytest.raises(ValueError):
        token.levels[0] = 3
