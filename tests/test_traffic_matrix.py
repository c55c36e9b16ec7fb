"""Tests for the sparse symmetric traffic matrix."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.placement import place_packed
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


class TestRates:
    def test_symmetric(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100.0)
        assert tm.rate(1, 2) == 100.0
        assert tm.rate(2, 1) == 100.0

    def test_missing_pair_zero(self):
        assert TrafficMatrix().rate(1, 2) == 0.0

    def test_add_accumulates(self):
        tm = TrafficMatrix()
        tm.add_rate(1, 2, 10)
        tm.add_rate(2, 1, 5)
        assert tm.rate(1, 2) == 15

    def test_zero_rate_removes_pair(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 10)
        tm.set_rate(1, 2, 0.0)
        assert tm.n_pairs == 0
        assert tm.peers_of(1) == frozenset()

    def test_self_traffic_rejected(self):
        with pytest.raises(ValueError, match="self-traffic"):
            TrafficMatrix().set_rate(3, 3, 1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TrafficMatrix().set_rate(1, 2, -1.0)


class TestPeers:
    def test_peers_of(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 1)
        tm.set_rate(1, 3, 2)
        assert tm.peers_of(1) == frozenset({2, 3})
        assert tm.peers_of(2) == frozenset({1})
        assert tm.degree(1) == 2

    def test_peer_rates_snapshot(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 5)
        rates = tm.peer_rates(1)
        rates[2] = 999  # mutating the snapshot must not affect the matrix
        assert tm.rate(1, 2) == 5

    def test_vm_load(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 5)
        tm.set_rate(1, 3, 7)
        assert tm.vm_load(1) == 12
        assert tm.vm_load(2) == 5


class TestAggregates:
    def test_pairs_iterates_once(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 5)
        tm.set_rate(3, 2, 7)
        pairs = sorted(tm.pairs())
        assert pairs == [(1, 2, 5.0), (2, 3, 7.0)]
        assert tm.n_pairs == 2
        assert len(tm) == 2

    def test_total_rate(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 5)
        tm.set_rate(3, 4, 7)
        assert tm.total_rate() == 12

    def test_scale(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 5)
        scaled = tm.scale(10)
        assert scaled.rate(1, 2) == 50
        assert tm.rate(1, 2) == 5  # original untouched

    def test_copy_independent(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 5)
        clone = tm.copy()
        clone.set_rate(1, 2, 9)
        assert tm.rate(1, 2) == 5

    def test_from_pairs(self):
        tm = TrafficMatrix.from_pairs(iter([(1, 2, 5.0), (1, 2, 3.0)]))
        assert tm.rate(1, 2) == 8.0


class TestTorAggregation:
    def test_tor_matrix_shape_and_content(self):
        topo = CanonicalTree(n_racks=2, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
        cluster = Cluster(topo, ServerCapacity(max_vms=2))
        vms = [VM(i, ram_mb=128, cpu=0.1) for i in range(1, 5)]
        allocation = place_packed(cluster, vms)  # VMs 1,2 -> host0; 3,4 -> host1
        tm = TrafficMatrix()
        tm.set_rate(1, 3, 10)  # rack 0 internal (hosts 0 and 1)
        tm.set_rate(1, 4, 5)
        matrix = tm.tor_matrix(allocation)
        assert matrix.shape == (2, 2)
        assert matrix[0, 0] == 15  # both pairs land inside rack 0
        assert matrix.sum() == 15

    def test_cross_rack_is_symmetric(self):
        topo = CanonicalTree(n_racks=2, hosts_per_rack=1, tors_per_agg=2, n_cores=1)
        cluster = Cluster(topo, ServerCapacity(max_vms=2))
        vms = [VM(1, ram_mb=128, cpu=0.1), VM(2, ram_mb=128, cpu=0.1)]
        allocation = place_packed(cluster, vms)
        allocation.migrate_many([(2, 1)])
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 7)
        matrix = tm.tor_matrix(allocation)
        assert matrix[0, 1] == 7 and matrix[1, 0] == 7
        assert matrix[0, 0] == 0


@given(
    st.lists(
        st.tuples(
            st.integers(0, 20),
            st.integers(0, 20),
            st.floats(0.001, 1e6),
        ),
        max_size=50,
    )
)
def test_property_symmetry_and_totals(pairs):
    tm = TrafficMatrix()
    for u, v, rate in pairs:
        if u != v:
            tm.add_rate(u, v, rate)
    # Symmetry everywhere.
    for u, v, rate in tm.pairs():
        assert tm.rate(v, u) == rate
    # Total equals half the sum of per-VM loads.
    per_vm = sum(tm.vm_load(u) for u in tm.vms_with_traffic)
    assert per_vm == pytest.approx(2 * tm.total_rate())


class TestApplyDelta:
    def test_bulk_overwrite_and_removal(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        tm.set_rate(3, 4, 50)
        applied = tm.apply_delta([(2, 1, 70), (3, 4, 0.0), (5, 6, 30)])
        assert applied == 3
        assert tm.rate(1, 2) == 70
        assert tm.rate(3, 4) == 0.0
        assert tm.rate(5, 6) == 30
        assert tm.n_pairs == 2

    def test_validation_runs_before_any_write(self):
        tm = TrafficMatrix()
        tm.set_rate(1, 2, 100)
        with pytest.raises(ValueError):
            tm.apply_delta([(1, 2, 5.0), (3, 3, 1.0)])
        assert tm.rate(1, 2) == 100
        with pytest.raises(ValueError):
            tm.apply_delta([(1, 2, -4.0)])
        assert tm.rate(1, 2) == 100

    def test_version_bumps_once_per_batch(self):
        tm = TrafficMatrix()
        v0 = tm.version
        tm.set_rate(1, 2, 100)
        assert tm.version == v0 + 1
        tm.apply_delta([(1, 2, 50), (2, 3, 10)])
        assert tm.version == v0 + 2
        tm.apply_delta([])
        assert tm.version == v0 + 2


class TestFromPairArrays:
    def _random_canonical(self, rng, n_vms=200, n_pairs=400):
        u = rng.integers(0, n_vms, n_pairs)
        v = rng.integers(0, n_vms, n_pairs)
        keep = u != v
        us = np.minimum(u[keep], v[keep])
        vs = np.maximum(u[keep], v[keep])
        key = us * np.int64(n_vms) + vs
        _, first = np.unique(key, return_index=True)
        us, vs = us[first], vs[first]
        rates = rng.uniform(1.0, 100.0, len(us))
        return us, vs, rates

    def test_matches_from_pairs(self):
        rng = np.random.default_rng(7)
        us, vs, rates = self._random_canonical(rng)
        bulk = TrafficMatrix.from_pair_arrays(us, vs, rates)
        loop = TrafficMatrix.from_pairs(zip(us.tolist(), vs.tolist(), rates.tolist()))
        assert bulk.n_pairs == loop.n_pairs == len(us)
        for u, v, rate in loop.pairs():
            assert bulk.rate(u, v) == rate
            assert bulk.rate(v, u) == rate
        assert bulk.vms_with_traffic == loop.vms_with_traffic
        assert bulk.total_rate() == pytest.approx(loop.total_rate())

    def test_empty(self):
        tm = TrafficMatrix.from_pair_arrays([], [], [])
        assert tm.n_pairs == 0

    def test_rejects_non_canonical_pairs(self):
        with pytest.raises(ValueError, match="canonical"):
            TrafficMatrix.from_pair_arrays([2], [1], [5.0])
        with pytest.raises(ValueError, match="canonical"):
            TrafficMatrix.from_pair_arrays([3], [3], [5.0])

    def test_rejects_zero_rates_and_duplicates(self):
        with pytest.raises(ValueError, match="> 0"):
            TrafficMatrix.from_pair_arrays([1], [2], [0.0])
        with pytest.raises(ValueError, match="duplicate"):
            TrafficMatrix.from_pair_arrays([1, 1], [2, 2], [5.0, 7.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            TrafficMatrix.from_pair_arrays([1, 2], [3], [5.0])

    @pytest.mark.parametrize(
        "first_use", ["read", "set_rate", "apply_delta", "copy", "pickle"]
    )
    def test_bulk_build_behaves_like_a_loop_build(self, first_use):
        """A bulk build and a triple-by-triple one are the same matrix,
        whatever is done to them first."""
        us, vs, rates = self._random_canonical(np.random.default_rng(13))
        bulk = TrafficMatrix.from_pair_arrays(us, vs, rates)
        loop = TrafficMatrix.from_pairs(
            zip(us.tolist(), vs.tolist(), rates.tolist())
        )
        assert bulk.n_pairs == loop.n_pairs
        u, v, w = int(us[0]), int(vs[0]), int(vs[1])
        if first_use == "read":
            assert bulk.peer_rates(u) == loop.peer_rates(u)
        elif first_use == "set_rate":
            for tm in (bulk, loop):
                tm.set_rate(u, v, 0.0)
                tm.set_rate(u, w, 3.5)
        elif first_use == "apply_delta":
            for tm in (bulk, loop):
                tm.apply_delta([(u, v, 0.0), (u, w, 3.5)])
        elif first_use == "copy":
            bulk = bulk.copy()
        else:
            bulk = pickle.loads(pickle.dumps(bulk))
        assert sorted(bulk.pairs()) == sorted(loop.pairs())
        assert bulk.n_pairs == loop.n_pairs
        got, want = bulk.pair_arrays(), loop.pair_arrays()
        assert sorted(zip(*(a.tolist() for a in got))) == sorted(
            zip(*(a.tolist() for a in want))
        )

    def test_pair_arrays_are_fresh_copies(self):
        rng = np.random.default_rng(11)
        us, vs, rates = self._random_canonical(rng)
        tm = TrafficMatrix.from_pair_arrays(us, vs, rates)
        got_us, got_vs, got_rates = tm.pair_arrays()
        assert got_us.tolist() == us.tolist()  # the input order is kept
        assert got_rates.tolist() == rates.tolist()
        # Writing the returned arrays (or the caller's input) never
        # reaches the store.
        got_rates[0] = -1.0
        rates[0] = -2.0
        u0, v0 = int(got_us[0]), int(got_vs[0])
        assert tm.rate(u0, v0) > 0
        # A mutation shows in the next call.
        tm.set_rate(u0, v0, 0.0)
        us2, vs2, _ = tm.pair_arrays()
        assert len(us2) == len(us) - 1
        assert (u0, v0) not in set(zip(us2.tolist(), vs2.tolist()))
