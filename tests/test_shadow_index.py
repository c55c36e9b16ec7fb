"""``ShadowIndex`` against a dict model.

The decision carry's shadow index is an unordered ``(row, host)``
buffer gated by a membership bitmap.  The model is a plain
``row -> host`` dict; after every rule the index must describe exactly
the model's keys, each by one entry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.roundcache import ShadowIndex

N_HOSTS = 5
N_OWNERS = 6


def host_flags(hosts):
    flag = np.zeros(N_HOSTS, dtype=bool)
    flag[sorted(hosts)] = True
    return flag


class ShadowMachine(RuleBasedStateMachine):
    @initialize(
        counts=st.lists(st.integers(0, 5), min_size=N_OWNERS, max_size=N_OWNERS)
    )
    def boot(self, counts):
        self.ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.index = ShadowIndex(int(self.ptr[-1]))
        self.model = {}

    @property
    def n_rows(self):
        return int(self.ptr[-1])

    @rule(data=st.data())
    def add(self, data):
        rows = data.draw(
            st.lists(st.integers(0, max(self.n_rows - 1, 0)), unique=True, max_size=8)
            if self.n_rows
            else st.just([])
        )
        hosts = [data.draw(st.integers(0, N_HOSTS - 1)) for _ in rows]
        self.index.add(
            np.array(rows, dtype=np.int64), np.array(hosts, dtype=np.int64)
        )
        for row, host in zip(rows, hosts):
            self.model.setdefault(row, host)  # members keep their entry

    @rule(hosts=st.sets(st.integers(0, N_HOSTS - 1)))
    def lookup(self, hosts):
        rows = self.index.on_hosts(host_flags(hosts))
        want = sorted(r for r, h in self.model.items() if h in hosts)
        assert sorted(rows.tolist()) == want  # each once

    @rule(data=st.data())
    def compact(self, data):
        keep = np.array(
            [data.draw(st.booleans()) for _ in range(len(self.index.rows))],
            dtype=bool,
        )
        for row in self.index.rows[~keep].tolist():
            del self.model[row]
        self.index.compact(keep)
        assert len(self.index.rows) == len(self.model)

    @rule(data=st.data())
    def compact_then_add_again(self, data):
        if not self.model:
            return
        row = data.draw(st.sampled_from(sorted(self.model)))
        host = self.model[row]
        self.index.compact(self.index.rows != row)
        assert not self.index.member[row]
        self.index.add(np.array([row]), np.array([host]))
        assert int((self.index.rows == row).sum()) == 1

    @rule(data=st.data())
    def remap(self, data):
        """A splice: dirty owners' segments are replaced (any new size),
        clean owners' rows shift by their segment's displacement."""
        dirty = np.array(
            [data.draw(st.booleans()) for _ in range(N_OWNERS)], dtype=bool
        )
        counts = np.diff(self.ptr)
        for owner in np.flatnonzero(dirty).tolist():
            counts[owner] = data.draw(st.integers(0, 5))
        new_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        shift = new_ptr[:-1] - self.ptr[:-1]
        row_owner = np.repeat(np.arange(N_OWNERS), np.diff(self.ptr))
        self.index.remap(row_owner, shift, dirty, int(new_ptr[-1]))
        self.model = {
            row + int(shift[row_owner[row]]): host
            for row, host in self.model.items()
            if not dirty[row_owner[row]]
        }
        self.ptr = new_ptr
        assert len(self.index.member) == self.n_rows

    @invariant()
    def index_describes_the_model(self):
        assert np.flatnonzero(self.index.member).tolist() == sorted(self.model)
        rows, hosts = self.index.rows, self.index.hosts
        assert len(set(rows.tolist())) == len(rows)  # one entry per row
        assert dict(zip(rows.tolist(), hosts.tolist())) == self.model


TestShadowMachine = ShadowMachine.TestCase
TestShadowMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_growth_keeps_contents():
    """Many small appends (the buffer regrows several times) and one
    large one: every entry survives, in insertion order."""
    index = ShadowIndex(5000)
    rows = np.random.default_rng(0).permutation(5000)
    hosts = rows % N_HOSTS
    for lo in range(0, 1000, 7):
        index.add(rows[lo : lo + 7], hosts[lo : lo + 7])
    index.add(rows, hosts)  # the first 1001 are members already
    assert np.array_equal(index.rows, rows)
    assert np.array_equal(index.hosts, hosts)
    assert index.member.all()
