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

from repro.cluster.vm import MAX_VM_ID
from repro.core.token import MAX_LEVEL_VALUE, Token


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
        assert token.levels.tolist() == [0, 0]

    def test_set_levels(self):
        token = Token([1, 2])
        token.set_levels([1], [3])
        assert token.levels.tolist() == [3, 0]
        token.set_levels([2, 1], [5, 2])  # any order, lower levels too
        assert token.levels.tolist() == [2, 5]

    def test_set_levels_bounds(self):
        token = Token([1])
        with pytest.raises(ValueError):
            token.set_levels([1], [300])
        with pytest.raises(KeyError):
            token.set_levels([9], [1])
        assert token.levels.tolist() == [0]

    def test_set_levels_is_all_or_nothing(self):
        token = Token([1, 2])
        with pytest.raises(KeyError):
            token.set_levels([1, 9], [2, 2])
        with pytest.raises(ValueError):
            token.set_levels([1, 2], [2, 300])
        with pytest.raises(ValueError, match="aligned"):
            token.set_levels([1, 2], [2])
        assert token.levels.tolist() == [0, 0]

    def test_ids_and_levels_are_read_only(self):
        token = Token([1, 2])
        with pytest.raises(ValueError):
            token.ids[0] = 7
        with pytest.raises(ValueError):
            token.levels[0] = 7
        assert token.vm_ids == (1, 2) and token.levels.tolist() == [0, 0]

    def test_id_range(self):
        with pytest.raises(ValueError):
            Token([2**32])
        with pytest.raises(ValueError):
            Token([-1, 3])
        with pytest.raises(ValueError):
            Token([1]).admit([2**32], np.array([1, 2**32]))

    def test_refusals_leave_the_token_unchanged(self):
        token = Token([1, 5])
        token.set_levels([5], [2])
        for call, vm_ids, column, error in (
            (token.admit, [2**32], np.array([1, 5, 2**32]), ValueError),
            (token.admit, [5], np.array([1, 5, 5]), ValueError),
            (token.admit, [3], np.array([1, 5, 3]), ValueError),
            (token.admit, [3], np.array([1, 3, 5], np.int32), ValueError),
            (token.retire, [9], np.array([1, 5]), KeyError),
            (token.retire, [1, 5], np.empty(0, np.int64), ValueError),
        ):
            with pytest.raises(error):
                call(vm_ids, column)
            assert token.vm_ids == (1, 5) and token.levels.tolist() == [0, 2]

    def test_levels_follow_membership_changes(self):
        token = Token([1, 5])
        token.set_levels([5], [2])
        token.admit([3], np.array([1, 3, 5]))
        token.set_levels([3], [1])
        assert token.levels.tolist() == [0, 1, 2]
        token.retire([1], np.array([3, 5]))
        assert token.vm_ids == (3, 5) and token.levels.tolist() == [1, 2]

    def test_membership_management(self):
        token = Token([1, 3])
        token.admit([2], np.array([1, 2, 3]))
        assert token.vm_ids == (1, 2, 3)
        token.retire([3], np.array([1, 2]))
        assert token.vm_ids == (1, 2)
        assert 3 not in token
        with pytest.raises(ValueError):
            token.admit([2], np.array([1, 2, 2]))
        with pytest.raises(KeyError):
            token.retire([99], np.array([1, 2]))

    def test_cannot_remove_last(self):
        token = Token([1])
        with pytest.raises(ValueError):
            token.retire([1], np.empty(0, dtype=np.int64))

    def test_an_id_column_is_kept_not_copied(self):
        column = np.array([2, 4, 9], dtype=np.int64)
        token = Token(column)
        assert np.shares_memory(token.ids, column)
        grown = np.array([2, 4, 7, 9], dtype=np.int64)
        token.admit([7], grown)
        assert np.shares_memory(token.ids, grown)
        shrunk = np.array([2, 9], dtype=np.int64)
        token.retire([4, 7], shrunk)
        assert np.shares_memory(token.ids, shrunk)
        # Any other input is sorted and de-duplicated into a fresh array.
        unsorted = np.array([9, 2, 4, 2], dtype=np.int64)
        token = Token(unsorted)
        assert token.vm_ids == (2, 4, 9)
        assert not np.shares_memory(token.ids, unsorted)


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

class TestWireFormat:
    def test_entry_size_is_five_bytes(self):
        token = Token([1, 2, 3])
        assert token.wire_size == 15
        assert len(token.encode()) == 15

    def test_roundtrip(self):
        token = Token([7, 100, 2**31])
        token.set_levels([100], [3])
        decoded = Token.decode(token.encode())
        assert decoded.vm_ids == token.vm_ids
        assert decoded.levels.tolist() == token.levels.tolist() == [0, 3, 0]

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
        token.set_levels([token.lowest_id], [level])
        decoded = Token.decode(token.encode())
        assert decoded.vm_ids == token.vm_ids
        assert decoded.levels.tolist() == [level] + [0] * (len(ids) - 1)


# -- the array token against a dict model -------------------------------------

IDS = st.integers(0, 40)
LEVELS = st.integers(0, 300)  # beyond 255 must raise
WIDE = MAX_VM_ID + 1  # an id the 32-bit field cannot carry


class TokenMachine(RuleBasedStateMachine):
    """Every public operation of :class:`Token` against ``id -> level``.

    A rejected call must leave the token untouched (the invariant
    compares the whole token with the model after every step).
    """

    @initialize(ids=st.sets(IDS, min_size=1, max_size=12))
    def boot(self, ids):
        self.token = Token(ids)
        self.model = {vm_id: 0 for vm_id in ids}

    @rule(data=st.data())
    def admit(self, data):
        new = data.draw(
            st.lists(
                st.sampled_from(sorted(self.model)) | IDS | st.just(WIDE),
                unique=True,
                max_size=4,
            )
        )
        grown = sorted(self.model.keys() | set(new))
        column = np.array(grown, dtype=np.int64)
        if self.model.keys() & set(new) or WIDE in new:
            with pytest.raises(ValueError):
                self.token.admit(new, column)
            return
        self.token.admit(new, column)
        self.model.update(dict.fromkeys(new, 0))

    @rule(data=st.data())
    def retire(self, data):
        gone = data.draw(
            st.lists(
                st.sampled_from(sorted(self.model)) | IDS,
                unique=True,
                max_size=4,
            )
        )
        kept = sorted(self.model.keys() - set(gone))
        column = np.array(kept, dtype=np.int64)
        if set(gone) - self.model.keys():
            with pytest.raises(KeyError):
                self.token.retire(gone, column)
        elif not column.size:
            with pytest.raises(ValueError):
                self.token.retire(gone, column)
        else:
            self.token.retire(gone, column)
            for vm_id in gone:
                del self.model[vm_id]

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
            self.model.update(zip(ids, levels))

    @rule(value=st.integers(-1, 42))
    def successor(self, value):
        ids = sorted(self.model)
        later = [v for v in ids if v > value]
        assert self.token.successor(value) == (later or ids)[0]

    @rule(value=st.integers(-1, 42))
    def rotation_from(self, value):
        ids = sorted(self.model)
        head = [v for v in ids if v >= value]
        rotation = self.token.rotation_from(value)
        assert rotation.dtype == np.int64
        assert np.array_equal(rotation, head + ids[: len(ids) - len(head)])
        assert not np.shares_memory(rotation, self.token.ids)

    @rule()
    def wire_round_trip(self):
        decoded = Token.decode(self.token.encode())
        assert list(zip(decoded.vm_ids, decoded.levels.tolist())) == sorted(
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
