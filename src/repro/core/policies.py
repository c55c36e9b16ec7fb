"""Token-passing policies (paper §V-A).

The VM currently holding the token decides whether to migrate, then passes
the token on according to the policy in force.  The paper evaluates two
policies — Round-Robin and Highest-Level-First (Algorithm 1) — and refers
to a broader design space in its companion technical report [21]; two
additional members of that space (:class:`RandomPolicy` and
:class:`LeastRecentlyVisitedPolicy`) are provided for the ablation benches.

A policy speaks in rounds: the token visits every VM once per round
(§V-A), and the policy decides the order.  :meth:`TokenPolicy.round_order`
snapshots a whole round's visit order at round start, and
:meth:`TokenPolicy.end_round` closes the round and names the next
round's first holder.  The wave-batched scheduler runs that order as
waves; the per-hold oracle (``repro.reference.PerHoldScheduler``) and
the testbed emulation walk it one hold at a time, so holder choice has
one implementation.

Both calls work on the token's arrays whole: HLF's round order is one
``lexsort`` of (level, position after the holder, id), and its round end
is one bulk write of the measured levels.  Nothing touches the token
between those two calls — the order is frozen and ``end_round``
overwrites every entry — so HLF keeps no mid-round token state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.core.token import Token
from repro.util.rng import SeedLike, make_rng

if TYPE_CHECKING:
    from repro.core.fastcost import FastCostEngine


class TokenPolicy(ABC):
    """Strategy deciding the order in which the token visits the VMs."""

    #: Short name used in experiment configs and bench output.
    name: str = "abstract"

    def spawn(self) -> "TokenPolicy":
        """A fresh policy with this one's configuration and no token state.

        Each shard domain circulates its own token under its own copy of
        the scheduler's policy.  Default: ``type(self)()``.
        """
        return type(self)()

    @abstractmethod
    def round_order(self, token: Token, holder: int) -> np.ndarray:
        """Snapshot of one full round's visit order starting at ``holder``.

        The |V|-entry ``int64`` id array a round runs: every VM of the
        token exactly once, ``holder`` first when it is in the token.
        """

    def end_round(
        self, token: Token, order: np.ndarray, fast: "FastCostEngine"
    ) -> int:
        """Close a round and return the next round's first holder.

        ``fast`` is the engine at the post-round placement.  Default: no
        state, the next holder is the cyclic successor of the last VM
        visited.
        """
        return token.successor(order[-1])


class RoundRobinPolicy(TokenPolicy):
    """§V-A1: circulate the token in ascending VM-ID order, wrapping."""

    name = "round_robin"

    def round_order(self, token: Token, holder: int) -> np.ndarray:
        """RR's order is exactly the ascending cyclic rotation from the
        holder."""
        return token.rotation_from(holder)


def _first_at_top_level(token: Token) -> int:
    """Algorithm 1 line 16: the lowest ID among the VMs recorded at the
    maximum level (``argmax`` returns the first, and ids ascend)."""
    return int(token.ids[np.argmax(token.levels)])


class HighestLevelFirstPolicy(TokenPolicy):
    """§V-A2 / Algorithm 1: prioritize VMs communicating over high layers.

    Algorithm 1 passes the token to the next unchecked VM — in cyclic ID
    order after the holder — at the highest recorded communication level,
    and restarts a finished round from the lowest-ID VM at the maximum
    recorded level (line 16).  A round freezes that priority at its start
    (:meth:`round_order`) and refreshes every recorded level from the
    measured placement at its end (:meth:`end_round`).
    """

    name = "highest_level_first"

    def round_order(self, token: Token, holder: int) -> np.ndarray:
        """Priority snapshot of Algorithm 1's order for one round.

        The holder first, then every other VM by recorded level
        descending, cyclic ID order after the holder within a level: the
        §V-A2 priority *as of round start*, the order Algorithm 1 would
        follow if no estimate changed mid-round.  Estimates are instead
        refreshed in one pass by :meth:`end_round`.
        """
        ids, levels = token.ids, token.levels
        order = ids[np.lexsort((ids, ids <= holder, -levels.astype(np.int64)))]
        return _holder_first(token, holder, order[order != holder])

    def end_round(
        self, token: Token, order: np.ndarray, fast: "FastCostEngine"
    ) -> int:
        """Refresh every level estimate; restart at the top level's lowest ID.

        Every VM was visited this round, so the policy records each
        VM's *measured* highest level (at the post-round placement) in
        one bulk write — at least as fresh as Algorithm 1's raise-only
        estimates — and hands the token to the lowest-ID VM at the
        maximum recorded level (Algorithm 1 line 16).  Entries the engine
        does not know keep their level.
        """
        ids = token.ids
        engine_ids = fast.snapshot.vm_ids
        at = np.searchsorted(engine_ids, ids).clip(max=len(engine_ids) - 1)
        known = engine_ids[at] == ids
        token.set_levels(ids[known], fast.highest_levels()[at[known]])
        return _first_at_top_level(token)


class RandomPolicy(TokenPolicy):
    """Visit the VMs in a uniformly random order (TR design space).

    A round is the holder, then a uniform permutation of every other VM,
    so the token still visits every VM once per round.  Permutations
    draw from the policy's own seeded generator, which snapshots pickle
    with the policy.
    """

    name = "random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._seed = seed
        self._rng = make_rng(seed)

    def spawn(self) -> "RandomPolicy":
        return type(self)(self._seed)

    def round_order(self, token: Token, holder: int) -> np.ndarray:
        """``holder``, then a uniform permutation of every other VM."""
        ids = token.ids
        others = ids[ids != holder]
        return _holder_first(
            token, holder, others[self._rng.permutation(len(others))]
        )


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

    def round_order(self, token: Token, holder: int) -> np.ndarray:
        """``holder``, then every other VM by ``(last visit, id)``."""
        ids = token.ids
        last = self._last_visit.get
        stamps = np.fromiter(
            (last(vm, 0) for vm in ids.tolist()), dtype=np.int64,
            count=len(ids),
        )
        order = ids[np.lexsort((ids, stamps))]
        return _holder_first(token, holder, order[order != holder])

    def end_round(
        self, token: Token, order: np.ndarray, fast: "FastCostEngine"
    ) -> int:
        """Stamp the round's visits in order and forget retired VMs; the
        next holder is the VM other than the round's last that has waited
        longest.  Stamps are kept as python ints."""
        members = set(token.vm_ids)
        stamps = self._last_visit
        for vm in order.tolist():
            if vm in members:
                self._clock += 1
                stamps[vm] = self._clock
        self._last_visit = {
            vm: stamp for vm, stamp in stamps.items() if vm in members
        }
        last = self._last_visit.get
        candidates = [vm for vm in token.vm_ids if vm != int(order[-1])]
        return min(candidates or token.vm_ids, key=lambda vm: (last(vm, 0), vm))


def _holder_first(token: Token, holder: int, others: np.ndarray) -> np.ndarray:
    """``others`` (``int64`` ids without ``holder``), after ``holder``
    when it is in the token."""
    if holder in token:
        return np.concatenate((np.array([holder], dtype=np.int64), others))
    return others


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
