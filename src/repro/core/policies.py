"""Token-passing policies (paper §V-A).

The VM currently holding the token decides whether to migrate, then passes
the token on according to the policy in force.  The paper evaluates two
policies — Round-Robin and Highest-Level-First (Algorithm 1) — and refers
to a broader design space in its companion technical report [21]; two
additional members of that space (:class:`RandomPolicy` and
:class:`LeastRecentlyVisitedPolicy`) are provided for the ablation benches.

Every policy speaks two dialects of the same order.  The scheduler asks
for a whole round up front (:meth:`TokenPolicy.round_order`, closed by
:meth:`TokenPolicy.end_round`): the token visits every VM once per round
(§V-A), and the policy decides the order.  The testbed emulation and the
per-hold oracle (``repro.reference.PerHoldScheduler``) pass the token hop
by hop instead (:meth:`TokenPolicy.on_hold` / :meth:`TokenPolicy.next_vm`),
as the paper's Xen deployment does.

The round dialect works on the token's arrays whole: HLF's round order is
one ``lexsort`` of (level, position after the holder, id), and its round
end is one bulk write of the measured levels.  Nothing touches the token
between those two calls — the order is frozen and ``end_round``
overwrites every entry — so HLF keeps no mid-round token state.  The hop
dialect keeps Algorithm 1's per-hold raise-only updates and the policy's
per-level buckets of unchecked VMs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.allocation import Allocation
from repro.core.cost import CostModel
from repro.core.token import Token
from repro.traffic.matrix import TrafficMatrix
from repro.util.rng import SeedLike, make_rng


class TokenPolicy(ABC):
    """Strategy deciding which VM receives the token next."""

    #: Short name used in experiment configs and bench output.
    name: str = "abstract"

    def spawn(self) -> "TokenPolicy":
        """A fresh policy with this one's configuration and no token state.

        Each shard domain circulates its own token under its own copy of
        the scheduler's policy.  Default: ``type(self)()``.
        """
        return type(self)()

    def on_hold(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> None:
        """Update token state while ``vm_u`` holds it.

        Called *after* the migration decision, so level updates reflect the
        post-decision placement.  Default: no token state is maintained.
        """

    @abstractmethod
    def next_vm(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        """Return the VM the token should be passed to."""

    # -- round-order snapshot API (wave-batched rounds) ------------------------

    @abstractmethod
    def round_order(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> List[int]:
        """Snapshot of one full round's visit order starting at ``vm_u``.

        The |V|-entry visit list the wave-batched scheduler runs: every VM
        of the token exactly once, ``vm_u`` first when it is in the token.
        """

    def end_round(
        self,
        token: Token,
        order: List[int],
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        """Close a batched round and return the next round's first holder.

        Called once per wave-batched round in place of the |V| per-hold
        ``on_hold`` calls; policies refresh whatever token state those
        calls would have maintained.  Default: no state, next holder is
        the cyclic successor of the last VM visited.
        """
        return token.successor(order[-1])


class RoundRobinPolicy(TokenPolicy):
    """§V-A1: circulate the token in ascending VM-ID order, wrapping."""

    name = "round_robin"

    def next_vm(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        return token.successor(vm_u)

    def round_order(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> List[int]:
        """RR's order is exactly the ascending cyclic rotation from u."""
        return token.rotation_from(vm_u)


def _first_at_top_level(token: Token) -> int:
    """Algorithm 1 line 16: the lowest ID among the VMs recorded at the
    maximum level (``argmax`` returns the first, and ids ascend)."""
    return int(token.ids[np.argmax(token.levels)])


class HighestLevelFirstPolicy(TokenPolicy):
    """§V-A2 / Algorithm 1: prioritize VMs communicating over high layers.

    While holding the token, VM u refreshes its own entry with its actual
    highest communication level and raises its peers' entries to at least
    ``l(u, v)`` (estimates only ever increase until the VM itself refreshes
    them).  The token then goes to the next *unchecked* VM — in cyclic ID
    order after u — whose recorded level equals the current level ``cl``,
    scanning ``cl`` downwards.  When every VM has been checked in the
    current round (Algorithm 1's "No unchecked VMs are left"), the round
    resets and the token restarts from the lowest-ID VM among those at the
    maximum recorded level (line 16).  The checked set is what prevents the
    token from ping-ponging between two high-level VMs that cannot migrate.
    """

    name = "highest_level_first"

    def __init__(self) -> None:
        self._checked: set = set()
        # Per-level sorted buckets of *unchecked* VM IDs, mirroring the
        # token's recorded levels minus the checked set.  Successor queries
        # are then one bisect per level — O(log n + levels) per hold —
        # instead of the naive O(|V|) cyclic ID scan (which survives in the
        # differential test as the reference oracle).
        self._unchecked: Dict[int, List[int]] = {}
        self._synced_token: Optional[Token] = None
        self._synced_version: Optional[int] = None

    def on_hold(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> None:
        self._sync(token)
        if vm_u not in self._checked:
            self._checked.add(vm_u)
            self._bucket_discard(token.level_of(vm_u), vm_u)
        token.set_level(vm_u, cost_model.highest_level(allocation, traffic, vm_u))
        host_u = allocation.server_of(vm_u)
        for peer in traffic.peers_of(vm_u):
            try:
                old = token.level_of(peer)
            except KeyError:
                continue  # a peer outside the token (a churned domain)
            level = cost_model.topology.level_between(
                host_u, allocation.server_of(peer)
            )
            if level > old:
                token.raise_level(peer, level)
                if peer not in self._checked:
                    self._bucket_discard(old, peer)
                    self._bucket_add(level, peer)
        self._synced_version = token.version

    def next_vm(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        self._sync(token)
        # Scan current level downwards; within a level, cyclic ID order
        # starting just after u (the paper's z ← u ⊕ 1), skipping VMs
        # already checked this round.
        for level in range(token.level_of(vm_u), -1, -1):
            candidate = self._next_unchecked_at_level(vm_u, level)
            if candidate is not None:
                return candidate
        # Also consider unchecked VMs recorded *above* the holder's level
        # (stale overestimates still deserve their turn this round).
        for level in range(token.max_recorded_level(), token.level_of(vm_u), -1):
            candidate = self._next_unchecked_at_level(vm_u, level)
            if candidate is not None:
                return candidate
        # No unchecked VMs are left: new round.  Line 16 fallback — lowest
        # ID among the VMs recorded at the maximum level.
        self._checked.clear()
        self._rebuild(token)
        return _first_at_top_level(token)

    def round_order(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> List[int]:
        """Priority snapshot of Algorithm 1's order for a batched round.

        The live algorithm re-consults the (mutating) level estimates at
        every hop; a batched round freezes them once: the current holder
        first, then every other VM by recorded level descending, cyclic ID
        order after the holder within a level.  This is the §V-A2 priority
        *as of round start* — the order Algorithm 1 would follow if no
        estimate changed mid-round; estimates are instead refreshed in one
        pass by :meth:`end_round`.
        """
        ids, levels = token.ids, token.levels
        order = ids[np.lexsort((ids, ids <= vm_u, -levels.astype(np.int64)))]
        head = [vm_u] if vm_u in token else []
        return head + order[order != vm_u].tolist()

    def end_round(
        self,
        token: Token,
        order: List[int],
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        """Refresh every level estimate; restart at the top level's lowest ID.

        Every VM was visited this round, so instead of replaying |V|
        ``on_hold`` updates the policy records each VM's *measured*
        highest level (at the post-round placement) in one bulk write —
        at least as fresh as Algorithm 1's raise-only estimates — resets
        the checked set, and hands the token to the lowest-ID VM at the
        maximum recorded level (Algorithm 1 line 16).
        """
        ids = token.ids
        if hasattr(cost_model, "highest_levels"):
            # Vectorized: one pass over the engine's pair arrays, matched
            # to the token's entries by one binary search.
            engine_ids = cost_model.snapshot.vm_ids
            at = np.searchsorted(engine_ids, ids).clip(max=len(engine_ids) - 1)
            known = engine_ids[at] == ids
            measured = cost_model.highest_levels()
            token.set_levels(ids[known], measured[at[known]])
        else:
            token.set_levels(
                ids,
                [
                    cost_model.highest_level(allocation, traffic, vm)
                    for vm in ids.tolist()
                ],
            )
        self._checked.clear()
        self._synced_token = None  # the hop-by-hop buckets rebuild lazily
        return _first_at_top_level(token)

    def _next_unchecked_at_level(self, vm_u: int, level: int) -> Optional[int]:
        """First unchecked VM after u (cyclically) recorded at ``level``."""
        bucket = self._unchecked.get(level)
        if not bucket:
            return None
        start = bisect_right(bucket, vm_u)
        for index in range(start, start + len(bucket)):
            candidate = bucket[index % len(bucket)]
            if candidate != vm_u:
                return candidate
        return None

    # -- unchecked-bucket maintenance ------------------------------------------

    def _sync(self, token: Token) -> None:
        """Rebuild the unchecked buckets if the token mutated out-of-band.

        The policy tracks its own mutations via the token's version
        counter; any other writer (tests priming levels, churn handlers)
        invalidates the derived buckets and triggers one O(n) rebuild.
        """
        if (
            token is not self._synced_token
            or token.version != self._synced_version
        ):
            self._rebuild(token)

    def _rebuild(self, token: Token) -> None:
        ids, levels = token.ids, token.levels
        if self._checked:
            checked = np.fromiter(self._checked, dtype=np.int64)
            unchecked = ~np.isin(ids, checked)
            ids, levels = ids[unchecked], levels[unchecked]
        self._unchecked = {
            int(level): ids[levels == level].tolist()
            for level in np.unique(levels)
        }
        self._synced_token = token
        self._synced_version = token.version

    def _bucket_add(self, level: int, vm_id: int) -> None:
        bucket = self._unchecked.get(level)
        if bucket is None:
            self._unchecked[level] = [vm_id]
        else:
            insort(bucket, vm_id)

    def _bucket_discard(self, level: int, vm_id: int) -> None:
        bucket = self._unchecked.get(level)
        if not bucket:
            return
        index = bisect_left(bucket, vm_id)
        if index < len(bucket) and bucket[index] == vm_id:
            if len(bucket) == 1:
                del self._unchecked[level]
            else:
                del bucket[index]


class RandomPolicy(TokenPolicy):
    """Pass the token to a uniformly random other VM (TR design space).

    Hop by hop (:meth:`next_vm`) every other VM is equally likely, drawn
    with replacement; a scheduler round (:meth:`round_order`) draws a
    uniform permutation instead, so the token still visits every VM once
    per round.  Both draw from the policy's own seeded generator, which
    snapshots pickle with the policy.
    """

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._seed = seed
        self._rng = make_rng(seed)

    def spawn(self) -> "RandomPolicy":
        return type(self)(self._seed)

    def round_order(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> List[int]:
        """``vm_u``, then a uniform permutation of every other VM."""
        ids = token.ids
        others = ids[ids != vm_u]
        shuffled = others[self._rng.permutation(len(others))].tolist()
        return ([vm_u] if vm_u in token else []) + shuffled

    def next_vm(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        ids = token.ids
        if len(ids) == 1:
            return int(ids[0])
        while True:
            candidate = int(ids[int(self._rng.integers(0, len(ids)))])
            if candidate != vm_u:
                return candidate


class LeastRecentlyVisitedPolicy(TokenPolicy):
    """Pass the token to the VM that has waited longest (TR design space).

    Fairness-first alternative: guarantees bounded token starvation even
    when HLF would keep revisiting a hot clique.  Ties break by ascending
    VM ID, so behaviour is deterministic.  Every hold sends its holder to
    the back of the queue, so a round visits the holder and then every
    other VM by ``(last visit, id)`` — the order :meth:`round_order`
    freezes.  On a static population that is RR's rotation.
    """

    name = "least_recently_visited"

    def __init__(self) -> None:
        self._last_visit: Dict[int, int] = {}
        self._clock = 0

    def on_hold(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> None:
        self._clock += 1
        self._last_visit[vm_u] = self._clock

    def next_vm(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        return self._least_recent(token, vm_u)

    def round_order(
        self,
        token: Token,
        vm_u: int,
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> List[int]:
        """``vm_u``, then every other VM by ``(last visit, id)``."""
        last = self._last_visit.get
        others = sorted(
            (vm for vm in token.vm_ids if vm != vm_u),
            key=lambda vm: (last(vm, 0), vm),
        )
        return ([vm_u] if vm_u in token else []) + others

    def end_round(
        self,
        token: Token,
        order: List[int],
        allocation: Allocation,
        traffic: TrafficMatrix,
        cost_model: CostModel,
    ) -> int:
        """Stamp the round's visits in order; the next holder is the one
        :meth:`next_vm` would pass to after the round's last hold."""
        for vm in order:
            if vm in token:
                self._clock += 1
                self._last_visit[vm] = self._clock
        return self._least_recent(token, order[-1])

    def _least_recent(self, token: Token, vm_u: int) -> int:
        """The VM other than ``vm_u`` (unless it is alone) with the oldest
        ``(last visit, id)``."""
        last = self._last_visit.get
        candidates = [vm for vm in token.vm_ids if vm != vm_u]
        return min(candidates or token.vm_ids, key=lambda vm: (last(vm, 0), vm))


def policy_by_name(name: str, seed: SeedLike = None) -> TokenPolicy:
    """Instantiate a policy by its short name."""
    if name == RoundRobinPolicy.name or name == "rr":
        return RoundRobinPolicy()
    if name == HighestLevelFirstPolicy.name or name == "hlf":
        return HighestLevelFirstPolicy()
    if name == RandomPolicy.name:
        return RandomPolicy(seed)
    if name == LeastRecentlyVisitedPolicy.name or name == "lrv":
        return LeastRecentlyVisitedPolicy()
    raise ValueError(
        f"unknown token policy {name!r}; known: rr/round_robin, "
        f"hlf/highest_level_first, random, lrv/least_recently_visited"
    )
