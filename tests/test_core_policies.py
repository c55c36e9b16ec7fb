"""Tests for token-passing policies (§V-A, Algorithm 1)."""

import pytest

from repro.cluster import Cluster, ServerCapacity, VM
from repro.cluster.allocation import Allocation
from repro.core import CostModel, LinkWeights, Token
from repro.core.policies import (
    HighestLevelFirstPolicy,
    LeastRecentlyVisitedPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    policy_by_name,
)
from repro.topology import CanonicalTree
from repro.traffic import TrafficMatrix


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
    def test_ascending_cyclic(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4, 5])
        policy = RoundRobinPolicy()
        assert policy.next_vm(token, 1, allocation, tm, model) == 2
        assert policy.next_vm(token, 5, allocation, tm, model) == 1

    def test_visits_all_vms_in_one_round(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4, 5])
        policy = RoundRobinPolicy()
        visited = []
        holder = token.lowest_id
        for _ in range(len(token)):
            visited.append(holder)
            holder = policy.next_vm(token, holder, allocation, tm, model)
        assert sorted(visited) == [1, 2, 3, 4, 5]


class TestHighestLevelFirst:
    def test_on_hold_updates_own_and_peer_levels(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4, 5])
        policy = HighestLevelFirstPolicy()
        policy.on_hold(token, 1, allocation, tm, model)
        assert token.level_of(1) == 3  # VM 1 talks to VM 4 across the core
        assert token.level_of(2) == 1
        assert token.level_of(4) == 3
        assert token.level_of(3) == 0  # not a peer of 1; untouched

    def test_peer_levels_only_raised(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4, 5])
        token.set_level(2, 3)  # stale overestimate
        policy = HighestLevelFirstPolicy()
        policy.on_hold(token, 1, allocation, tm, model)
        assert token.level_of(2) == 3  # not lowered (Algorithm 1 line 4)

    def test_next_prefers_same_level(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4, 5])
        policy = HighestLevelFirstPolicy()
        policy.on_hold(token, 1, allocation, tm, model)
        # Holder is at level 3; the next VM at level 3 after 1 is 4.
        assert policy.next_vm(token, 1, allocation, tm, model) == 4

    def test_next_descends_levels(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4, 5])
        token.set_level(1, 2)
        token.set_level(3, 1)
        # No VM at level 2 other than the holder: descend to level 1 -> VM 3.
        policy = HighestLevelFirstPolicy()
        assert policy.next_vm(token, 1, allocation, tm, model) == 3

    def test_fallback_to_lowest_id_at_max_level(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3])
        token.set_level(1, 0)
        token.set_level(2, 5)
        token.set_level(3, 5)
        # Holder at level 0; all others are above it, so the downward scan
        # from 0 only ever checks level 0 and fails -> line 16 fallback.
        token.set_level(1, 0)
        policy = HighestLevelFirstPolicy()
        # Scan at level 0 finds nobody else at level 0; fallback picks the
        # lowest ID among max-level VMs.
        assert policy.next_vm(token, 1, allocation, tm, model) == 2

    def test_cyclic_scan_starts_after_holder(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4])
        for vm_id in (1, 2, 3, 4):
            token.set_level(vm_id, 2)
        policy = HighestLevelFirstPolicy()
        assert policy.next_vm(token, 3, allocation, tm, model) == 4
        assert policy.next_vm(token, 4, allocation, tm, model) == 1


class _NaiveHighestLevelFirst:
    """The pre-bucketing HLF scan, kept verbatim as the reference oracle.

    Scans every VM id cyclically via ``token.successor`` per level — the
    O(|V|)-per-hold behaviour the bucketed policy replaces; the
    differential test below pins the bucketed successor choice to it.
    """

    def __init__(self):
        self._checked = set()

    def on_hold(self, token, vm_u, allocation, traffic, cost_model):
        self._checked.add(vm_u)
        token.set_level(vm_u, cost_model.highest_level(allocation, traffic, vm_u))
        host_u = allocation.server_of(vm_u)
        for peer in traffic.peers_of(vm_u):
            if peer in token:
                level = cost_model.topology.level_between(
                    host_u, allocation.server_of(peer)
                )
                token.raise_level(peer, level)

    def next_vm(self, token, vm_u, allocation, traffic, cost_model):
        for level in range(token.level_of(vm_u), -1, -1):
            candidate = self._next_at_level(token, vm_u, level)
            if candidate is not None:
                return candidate
        for level in range(token.max_recorded_level(), token.level_of(vm_u), -1):
            candidate = self._next_at_level(token, vm_u, level)
            if candidate is not None:
                return candidate
        self._checked.clear()
        return min(token.vms_at_level(token.max_recorded_level()))

    def _next_at_level(self, token, vm_u, level):
        candidate = token.successor(vm_u)
        while candidate != vm_u:
            if token.level_of(candidate) == level and candidate not in self._checked:
                return candidate
            candidate = token.successor(candidate)
        return None


class TestBucketedHLFMatchesNaiveScan:
    """Differential: bucketed successor choice == the naive O(|V|) scan."""

    def _random_setup(self, seed):
        import numpy as np

        from repro import (
            Cluster as C,
            DCTrafficGenerator,
            PlacementManager,
            ServerCapacity as SC,
            place_random,
        )
        from repro.topology import CanonicalTree as CT

        rng = np.random.default_rng(seed)
        topo = CT(n_racks=8, hosts_per_rack=4, tors_per_agg=4, n_cores=2)
        cluster = C(topo, SC(max_vms=4, ram_mb=4096, cpu=8.0))
        manager = PlacementManager(cluster)
        vms = manager.create_vms(int(rng.integers(20, 60)), ram_mb=512, cpu=0.5)
        allocation = place_random(cluster, vms, seed=seed)
        traffic = DCTrafficGenerator(
            [vm.vm_id for vm in vms], seed=seed
        ).generate()
        model = CostModel(topo)
        return rng, allocation, traffic, model

    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_hold_sequences_are_identical(self, seed):
        import numpy as np

        rng, allocation, traffic, model = self._random_setup(seed)
        vm_ids = sorted(allocation.vm_ids())
        token_fast, token_naive = Token(vm_ids), Token(vm_ids)
        fast, naive = HighestLevelFirstPolicy(), _NaiveHighestLevelFirst()

        holder = token_fast.lowest_id
        for step in range(4 * len(vm_ids)):
            # Occasionally mutate both tokens out-of-band, as tests and
            # churn handlers do; the bucketed policy must resync.
            if rng.random() < 0.05:
                victim = int(rng.choice(vm_ids))
                level = int(rng.integers(0, 4))
                token_fast.set_level(victim, level)
                token_naive.set_level(victim, level)
            fast.on_hold(token_fast, holder, allocation, traffic, model)
            naive.on_hold(token_naive, holder, allocation, traffic, model)
            next_fast = fast.next_vm(token_fast, holder, allocation, traffic, model)
            next_naive = naive.next_vm(
                token_naive, holder, allocation, traffic, model
            )
            assert next_fast == next_naive, f"diverged at hold {step}"
            for vm_id in vm_ids:
                assert token_fast.level_of(vm_id) == token_naive.level_of(vm_id)
            holder = next_fast

    @pytest.mark.parametrize("seed", [5, 13])
    def test_next_vm_matches_on_externally_primed_tokens(self, seed):
        """Pure successor queries on randomized token states (no holds)."""
        import numpy as np

        rng, allocation, traffic, model = self._random_setup(seed)
        vm_ids = sorted(allocation.vm_ids())
        for _ in range(20):
            token_fast, token_naive = Token(vm_ids), Token(vm_ids)
            for vm_id in vm_ids:
                level = int(rng.integers(0, 4))
                token_fast.set_level(vm_id, level)
                token_naive.set_level(vm_id, level)
            fast, naive = HighestLevelFirstPolicy(), _NaiveHighestLevelFirst()
            holder = int(rng.choice(vm_ids))
            assert fast.next_vm(
                token_fast, holder, allocation, traffic, model
            ) == naive.next_vm(token_naive, holder, allocation, traffic, model)


class TestRandomPolicy:
    def test_never_returns_holder(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3])
        policy = RandomPolicy(seed=1)
        for _ in range(50):
            assert policy.next_vm(token, 2, allocation, tm, model) != 2

    def test_single_vm_token(self, env):
        allocation, tm, model = env
        token = Token([1])
        policy = RandomPolicy(seed=1)
        assert policy.next_vm(token, 1, allocation, tm, model) == 1

    def test_reproducible(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3, 4])
        a = [RandomPolicy(seed=9).next_vm(token, 1, allocation, tm, model) for _ in range(3)]
        b = [RandomPolicy(seed=9).next_vm(token, 1, allocation, tm, model) for _ in range(3)]
        assert a == b


class TestLeastRecentlyVisited:
    def test_prefers_unvisited_lowest_id(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3])
        policy = LeastRecentlyVisitedPolicy()
        policy.on_hold(token, 1, allocation, tm, model)
        assert policy.next_vm(token, 1, allocation, tm, model) == 2

    def test_cycles_fairly(self, env):
        allocation, tm, model = env
        token = Token([1, 2, 3])
        policy = LeastRecentlyVisitedPolicy()
        holder = 1
        visited = []
        for _ in range(6):
            policy.on_hold(token, holder, allocation, tm, model)
            visited.append(holder)
            holder = policy.next_vm(token, holder, allocation, tm, model)
        assert sorted(visited[:3]) == [1, 2, 3]
        assert sorted(visited[3:]) == [1, 2, 3]


class TestRandomRoundOrder:
    """A scheduler round is a seeded uniform permutation of the token."""

    @staticmethod
    def _orders(env, seed, rounds=4):
        allocation, tm, model = env
        policy, token = RandomPolicy(seed=seed), Token(range(1, 21))
        holder, orders = token.lowest_id, []
        for _ in range(rounds):
            order = policy.round_order(token, holder, allocation, tm, model)
            orders.append(order)
            holder = policy.end_round(token, order, allocation, tm, model)
        return orders

    def test_every_round_covers_the_token_once(self, env):
        holder = 1
        for order in self._orders(env, seed=3):
            assert order[0] == holder
            assert sorted(order) == list(range(1, 21))
            holder = order[-1] % 20 + 1  # the default end_round successor

    def test_same_seed_same_orders(self, env):
        assert self._orders(env, seed=3) == self._orders(env, seed=3)

    def test_different_seed_different_orders(self, env):
        assert self._orders(env, seed=3) != self._orders(env, seed=4)

    def test_spawn_keeps_the_seed(self, env):
        allocation, tm, model = env
        token = Token(range(1, 21))
        parent = RandomPolicy(seed=3)
        parent.round_order(token, 1, allocation, tm, model)
        assert parent.spawn().round_order(
            token, 1, allocation, tm, model
        ) == RandomPolicy(seed=3).round_order(token, 1, allocation, tm, model)


class TestLeastRecentlyVisitedRoundOrder:
    def test_round_orders_replay_the_hold_chain(self, env):
        """Concatenated round orders are the holders the on_hold/next_vm
        chain visits, round after round, with arrivals between rounds."""
        allocation, tm, model = env
        chain, rounds = LeastRecentlyVisitedPolicy(), LeastRecentlyVisitedPolicy()
        chain_token, round_token = Token([1, 2, 3, 4, 5]), Token([1, 2, 3, 4, 5])
        holder = first = 3
        visited, ordered = [], []
        for arrivals in ([], [9], [6, 7], []):
            for vm_id in arrivals:
                chain_token.add_vm(vm_id)
                round_token.add_vm(vm_id)
            for _ in range(len(chain_token)):
                chain.on_hold(chain_token, holder, allocation, tm, model)
                visited.append(holder)
                holder = chain.next_vm(chain_token, holder, allocation, tm, model)
            order = rounds.round_order(round_token, first, allocation, tm, model)
            ordered.extend(order)
            first = rounds.end_round(round_token, order, allocation, tm, model)
            assert first == holder
        assert ordered == visited

    def test_static_population_is_the_rr_rotation(self, env):
        allocation, tm, model = env
        token = Token([2, 4, 5, 8])
        lrv, rr = LeastRecentlyVisitedPolicy(), RoundRobinPolicy()
        lrv_first = rr_first = token.lowest_id
        for _ in range(3):
            lrv_order = lrv.round_order(token, lrv_first, allocation, tm, model)
            rr_order = rr.round_order(token, rr_first, allocation, tm, model)
            assert lrv_order == rr_order
            lrv_first = lrv.end_round(token, lrv_order, allocation, tm, model)
            rr_first = rr.end_round(token, rr_order, allocation, tm, model)


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
