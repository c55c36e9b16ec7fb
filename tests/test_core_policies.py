"""Tests for token-passing policies (§V-A, Algorithm 1)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.core import CostModel, FastCostEngine, LinkWeights, Token
from repro.core.policies import (
    HighestLevelFirstPolicy,
    LeastRecentlyVisitedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    policy_by_name,
)
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.reference import PerHoldScheduler
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


def same_order(got, want) -> bool:
    """A round order is an ``int64`` id array equal to ``want``."""
    return (
        isinstance(got, np.ndarray)
        and got.dtype == np.int64
        and np.array_equal(got, np.asarray(want, dtype=np.int64))
    )


@pytest.fixture
def env():
    topo = CanonicalTree(n_racks=4, hosts_per_rack=2, tors_per_agg=2, n_cores=1)
    cluster = Cluster(topo, ServerCapacity(max_vms=4, ram_mb=4096, cpu=8.0))
    allocation = Allocation(cluster)
    # VM 1 on host 0; VM 2 on host 1 (same rack); VM 3 on host 2 (same agg);
    # VM 4 on host 4 (cross agg); VM 5 on host 0 (colocated with 1).
    for vm_id, host in [(1, 0), (2, 1), (3, 2), (4, 4), (5, 0)]:
        allocation.add_vm(VM(vm_id, ram_mb=128, cpu=0.1), host)
    tm = TrafficMatrix()
    tm.set_rate(1, 2, 10)  # level 1
    tm.set_rate(1, 4, 5)   # level 3
    tm.set_rate(3, 4, 2)   # level 3
    model = CostModel(topo, LinkWeights(weights=(1.0, 2.0, 4.0)))
    return allocation, tm, model


class TestRoundRobin:
    def test_ascending_cyclic(self):
        token = Token([1, 2, 3, 4, 5])
        policy = RoundRobinPolicy()
        assert same_order(policy.round_order(token, 1), [1, 2, 3, 4, 5])
        assert same_order(policy.round_order(token, 5), [5, 1, 2, 3, 4])
        assert policy.end_round(token, np.array([2, 3, 4, 5, 1]), None) == 2
        assert policy.end_round(token, np.array([1, 2, 3, 4, 5]), None) == 1

    def test_visits_all_vms_in_one_round(self):
        token = Token([1, 2, 3, 4, 5])
        policy = RoundRobinPolicy()
        holder = token.lowest_id
        for _ in range(3):
            order = policy.round_order(token, holder)
            assert order[0] == holder
            assert sorted(order) == [1, 2, 3, 4, 5]
            holder = policy.end_round(token, order, None)


class TestHighestLevelFirst:
    def test_round_order_descends_levels(self):
        token = Token([1, 2, 3, 4, 5])
        token.set_levels([1, 3, 4], [2, 1, 2])
        # The holder, then level 2 (VM 4), level 1 (VM 3), and level 0
        # in cyclic id order after the holder.
        assert same_order(
            HighestLevelFirstPolicy().round_order(token, 1), [1, 4, 3, 2, 5]
        )

    def test_cyclic_order_within_a_level_starts_after_holder(self):
        token = Token([1, 2, 3, 4])
        token.set_levels([1, 2, 3, 4], [2, 2, 2, 2])
        policy = HighestLevelFirstPolicy()
        assert same_order(policy.round_order(token, 3), [3, 4, 1, 2])
        assert same_order(policy.round_order(token, 4), [4, 1, 2, 3])

    def test_end_round_records_measured_levels(self, env):
        allocation, tm, model = env
        fast = FastCostEngine(allocation, tm, weights=model.weights)
        token = Token([1, 2, 3, 4, 5])
        token.set_levels([2], [3])  # a stale overestimate is overwritten
        policy = HighestLevelFirstPolicy()
        order = policy.round_order(token, 2)
        # VM 1 talks to VM 4 across the core, VM 2 within its rack, VM 3
        # to VM 4 across the core; VM 5 has no peers.
        assert policy.end_round(token, order, fast) == 1
        assert token.levels.tolist() == [3, 1, 3, 3, 0]

    def test_end_round_keeps_levels_the_engine_does_not_know(self, env):
        allocation, tm, model = env
        fast = FastCostEngine(allocation, tm, weights=model.weights)
        token = Token([1, 2, 3, 4, 5, 9])  # VM 9 is not placed
        token.set_levels([9], [2])
        policy = HighestLevelFirstPolicy()
        assert policy.end_round(token, policy.round_order(token, 1), fast) == 1
        assert token.levels.tolist() == [3, 1, 3, 3, 0, 2]

    def test_holder_leads_even_below_the_top_level(self):
        token = Token([1, 2, 3])
        token.set_levels([2, 3], [5, 5])
        policy = HighestLevelFirstPolicy()
        assert same_order(policy.round_order(token, 1), [1, 2, 3])
        assert same_order(policy.round_order(token, 3), [3, 2, 1])


def _naive_hlf_order(token, holder):
    """Algorithm 1's priority read one level at a time: the holder, then
    for each level from the top down, a cyclic ``successor`` scan after
    the holder collecting the VMs recorded at that level."""
    levels = dict(zip(token.vm_ids, token.levels.tolist()))
    order = [holder] if holder in token else []
    for level in range(max(levels.values()), -1, -1):
        vm = token.successor(holder)
        for _ in range(len(token)):
            if vm != holder and levels[vm] == level:
                order.append(vm)
            vm = token.successor(vm)
    return order


class TestHLFRoundOrderMatchesNaiveScan:
    """Differential: the one-``lexsort`` round order == a per-level scan."""

    @staticmethod
    def _random_token(rng):
        ids = rng.choice(200, size=int(rng.integers(1, 40)), replace=False)
        token = Token(ids.tolist())
        token.set_levels(token.ids, rng.integers(0, 4, size=len(token)))
        return token

    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_orders_are_identical(self, seed):
        rng = np.random.default_rng(seed)
        policy = HighestLevelFirstPolicy()
        for _ in range(20):
            token = self._random_token(rng)
            holder = int(rng.choice(token.ids))
            assert same_order(
                policy.round_order(token, holder),
                _naive_hlf_order(token, holder),
            )

    @pytest.mark.parametrize("seed", [5, 13])
    def test_orders_are_identical_for_a_retired_holder(self, seed):
        rng = np.random.default_rng(seed)
        policy = HighestLevelFirstPolicy()
        for _ in range(20):
            token = self._random_token(rng)
            holder = int(rng.integers(0, 201))
            if holder in token:
                continue
            order = policy.round_order(token, holder)
            assert same_order(order, _naive_hlf_order(token, holder))
            assert sorted(order) == list(token.vm_ids)


class TestRandomRoundOrder:
    """A scheduler round is a seeded uniform permutation of the token."""

    @staticmethod
    def _orders(seed, rounds=4):
        policy, token = RandomPolicy(seed=seed), Token(range(1, 21))
        holder, orders = token.lowest_id, []
        for _ in range(rounds):
            order = policy.round_order(token, holder)
            orders.append(order)
            holder = policy.end_round(token, order, None)
        return orders

    def test_every_round_covers_the_token_once(self):
        holder = 1
        for order in self._orders(seed=3):
            assert order[0] == holder
            assert sorted(order) == list(range(1, 21))
            holder = order[-1] % 20 + 1  # the default end_round successor

    def test_same_seed_same_orders(self):
        first, second = self._orders(seed=3), self._orders(seed=3)
        assert len(first) == len(second)
        assert all(same_order(a, b) for a, b in zip(first, second))

    def test_different_seed_different_orders(self):
        first, second = self._orders(seed=3), self._orders(seed=4)
        assert not all(same_order(a, b) for a, b in zip(first, second))

    def test_spawn_keeps_the_seed(self):
        token = Token(range(1, 21))
        parent = RandomPolicy(seed=3)
        parent.round_order(token, 1)
        assert same_order(
            parent.spawn().round_order(token, 1),
            RandomPolicy(seed=3).round_order(token, 1),
        )

    def test_holder_leads_and_appears_once(self):
        token, policy = Token([1, 2, 3]), RandomPolicy(seed=1)
        for _ in range(50):
            order = policy.round_order(token, 2)
            assert order[0] == 2 and int((order == 2).sum()) == 1
            assert sorted(order) == [1, 2, 3]

    def test_single_vm_token(self):
        token, policy = Token([1]), RandomPolicy(seed=1)
        order = policy.round_order(token, 1)
        assert same_order(order, [1])
        assert policy.end_round(token, order, None) == 1

    def test_retired_holder_is_not_visited(self):
        token, policy = Token([1, 3, 5]), RandomPolicy(seed=1)
        for _ in range(10):
            assert sorted(policy.round_order(token, 2)) == [1, 3, 5]


class TestLeastRecentlyVisitedRoundOrder:
    def test_prefers_unvisited_lowest_id(self):
        token, policy = Token([1, 2, 3]), LeastRecentlyVisitedPolicy()
        order = policy.round_order(token, 1)
        assert same_order(order, [1, 2, 3])
        assert policy.end_round(token, order, None) == 1
        token.admit([9, 4], np.array([1, 2, 3, 4, 9]))
        # Never-visited arrivals wait longest: they follow the holder.
        assert same_order(policy.round_order(token, 1), [1, 4, 9, 2, 3])

    def test_cycles_fairly(self):
        token, policy = Token([1, 2, 3, 4, 5]), LeastRecentlyVisitedPolicy()
        holder = 3
        for arrivals in ([], [9], [6, 7], []):
            column = np.union1d(token.ids, arrivals).astype(np.int64)
            token.admit(arrivals, column)
            order = policy.round_order(token, holder)
            assert order[0] == holder
            assert sorted(order) == list(token.vm_ids)
            holder = policy.end_round(token, order, None)
            assert holder != order[-1]

    def test_end_round_stamps_only_token_members(self):
        token, policy = Token([1, 2, 3]), LeastRecentlyVisitedPolicy()
        order = policy.round_order(token, 1)
        token.retire([2], np.array([1, 3]))
        assert policy.end_round(token, order, None) == 1
        assert sorted(policy._last_visit) == [1, 3]
        # Visit stamps stay python ints, as they pickle.
        assert all(
            type(vm) is int and type(stamp) is int
            for vm, stamp in policy._last_visit.items()
        )
        assert same_order(policy.round_order(token, 2), [1, 3])

    def test_static_population_is_the_rr_rotation(self):
        token = Token([2, 4, 5, 8])
        lrv, rr = LeastRecentlyVisitedPolicy(), RoundRobinPolicy()
        lrv_first = rr_first = token.lowest_id
        for _ in range(3):
            lrv_order = lrv.round_order(token, lrv_first)
            rr_order = rr.round_order(token, rr_first)
            assert same_order(lrv_order, rr_order)
            lrv_first = lrv.end_round(token, lrv_order, None)
            rr_first = rr.end_round(token, rr_order, None)

    def test_retired_vms_leave_the_visit_stamps(self):
        """After retirements, one round end forgets the retired VMs'
        stamps, and chained one-round runs still equal one run of k."""
        config = ExperimentConfig(
            n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.8,
            policy="lrv", seed=5,
        )
        chained, whole = (
            make_scheduler(build_environment(config), config) for _ in "ab"
        )
        for scheduler in (chained, whole):
            scheduler.run(n_iterations=1)
            scheduler.retire_vms(sorted(scheduler.token.vm_ids)[::4])
        holder, decisions = None, []
        for _ in range(3):
            report = chained.run(n_iterations=1, first_holder=holder)
            holder = report.next_holder
            decisions.extend(report.decisions)
            assert set(chained._policy._last_visit) <= set(chained.token.vm_ids)
        full = whole.run(n_iterations=3)
        assert holder == full.next_holder
        assert decisions == list(full.decisions)
        assert report.final_cost == pytest.approx(full.final_cost, rel=1e-9)


class TestPerHoldWalk:
    """The per-hold oracle visits exactly the policy's round orders."""

    @pytest.mark.parametrize("name", ["rr", "hlf", "lrv", "random"])
    def test_holds_follow_the_round_orders(self, name):
        config = ExperimentConfig(
            n_racks=8, hosts_per_rack=2, vms_per_host=4, fill_fraction=0.8,
            policy=name, seed=3,
        )
        wired = make_scheduler(build_environment(config), config)
        policy = wired._policy
        orders, holders = [], []
        round_order, end_round = policy.round_order, policy.end_round

        def recording_round_order(token, holder):
            holders.append(holder)
            orders.append(round_order(token, holder))
            return orders[-1].copy()

        def recording_end_round(token, order, fast):
            holders.append(end_round(token, order, fast))
            return holders[-1]

        policy.round_order = recording_round_order
        policy.end_round = recording_end_round
        scheduler = PerHoldScheduler(
            wired.allocation, wired.traffic, policy, wired._engine
        )
        report = scheduler.run(n_iterations=3)
        assert len(orders) == 3
        assert [d.vm_id for d in report.decisions] == [
            vm for order in orders for vm in order
        ]
        for order, holder in zip(orders, holders[::2]):
            assert order[0] == holder
            assert sorted(order) == list(scheduler.token.vm_ids)
        # Each round starts where the previous round's end_round pointed.
        assert holders[1::2][:-1] == holders[2::2]
        assert report.next_holder == holders[-1]


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("rr", RoundRobinPolicy),
            ("round_robin", RoundRobinPolicy),
            ("hlf", HighestLevelFirstPolicy),
            ("highest_level_first", HighestLevelFirstPolicy),
            ("random", RandomPolicy),
            ("lrv", LeastRecentlyVisitedPolicy),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(policy_by_name(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown token policy"):
            policy_by_name("bogus")
