"""Outside-in layer tracing: spans around the program's public callables.

The tracer never edits ``src/``: :meth:`Tracer.install` swaps each
traced callable for a wrapper (class attributes for methods, every
``repro.*`` module global that aliases a function) and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
as ``[name, start, end, parent, repeat]`` rows; a layer's *self time* is
its span minus the part its direct children cover, so a row of
``<layer>.self_s`` values adds up to the traced wall-clock and nothing
is counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List

#: Root span the harness opens around every timed operation.
ROOT = "bench.op"

#: Every layer span the harness can record (``<name>.calls`` and
#: ``<name>.self_s`` are per-layer metrics; absent layers report 0).
LAYERS = (
    "core.scheduler.run",
    "core.policies.round_order",
    "core.rounds.run_round",
    "core.migration.plan_wave",
    "core.migration.decisions_from_batch",
    "core.fastcost.build",
    "core.fastcost.candidate_batch",
    "core.fastcost.apply_moves",
    "core.fastcost.apply_traffic_delta",
    "core.fastcost.add_vms",
    "core.fastcost.remove_vms",
    "core.roundcache.refresh",
    "traffic.matrix.apply_delta",
    "cluster.placement.place_arrivals",
    "cluster.allocation.add_vms",
    "cluster.allocation.remove_vms",
    "cluster.allocation.migrate_many",
    "sim.eventqueue.pump",
    "sim.eventqueue.arrival",
    "sim.eventqueue.retirement",
    "sim.eventqueue.surge",
    "sim.eventqueue.crunch",
    "service.step",
    "service.sources.poll",
    "persist.journal.open",
    "persist.journal.append",
    "persist.snapshot.write",
    "persist.snapshot.load",
    "persist.durable.replay",
    "util.validation.check",
    "shard.partition.build",
    "shard.domain.build",
    "shard.domain.run_round",
    "shard.executor.run_all",
    "shard.reconcile.run",
)


class Tracer:
    """In-memory span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.enabled = False
        #: Index of the timed operation spans are attributed to.
        self.repeat = 0
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.repeat])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def bump(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn, tally=None):
        """``fn`` recorded as a span; ``name`` may be ``f(args, kwargs)``.

        ``tally(result)``, when given, reads counts off the public return
        value (so ratios are measured where the work happens).
        """
        tracer = self
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer._open(pick(args, kwargs) if pick else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if tally is not None:
                tally(result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """A generator method: each ``next()`` is one span, so the time
        the consumer spends between items is not charged to it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from iterator
                return
            while True:
                index = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                yield item

        return traced

    def _patch_method(self, cls, attr, name, tally=None, generator=False):
        """Patch ``attr`` on the class of ``cls``'s MRO that defines it."""
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        original = vars(owner)[attr]
        if getattr(original, "_bench_traced", False):
            return  # an ancestor shared by two traced classes
        if generator:
            wrapped = self._wrap_generator(name, original)
        else:
            wrapped = self._wrap(name, original, tally)
        wrapped._bench_traced = True
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, original, name, tally=None):
        """Replace ``original`` in every ``repro.*`` namespace aliasing it
        (``from x import f`` copies the reference into the importer)."""
        wrapped = self._wrap(name, original, tally)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, original)
                    )

    def install(self) -> None:
        """Wrap every layer boundary in :data:`LAYERS`."""
        from repro.cluster import placement
        from repro.cluster.allocation import Allocation
        from repro.core import migration
        from repro.core.fastcost import FastCostEngine
        from repro.core.policies import TokenPolicy
        from repro.core.roundcache import RoundScoreCache
        from repro.core.rounds import BatchedRoundEngine
        from repro.core.scheduler import SCOREScheduler
        from repro.persist import snapshot
        from repro.persist.journal import Journal
        from repro.service.service import SchedulerService
        from repro.service.sources import EventSource
        from repro.shard import executor, partition, reconcile
        from repro.shard.domain import ShardDomain
        from repro.sim import eventqueue
        from repro.traffic.matrix import TrafficMatrix
        from repro.util import validation

        def subclasses(base):
            for cls in base.__subclasses__():
                yield cls
                yield from subclasses(cls)

        def tally_round(result) -> None:
            self.bump("core.rounds.waves", result.waves)
            self.bump("core.rounds.deferrals", result.deferrals)
            self.bump("core.rounds.migrations", result.migrations)

        def tally_reconcile(outcome) -> None:
            self.bump("shard.reconcile.boundary_vms", outcome.boundary_vms)
            self.bump("shard.reconcile.passes", outcome.passes)
            self.bump("shard.reconcile.migrations", outcome.migrations)

        method = self._patch_method
        method(SCOREScheduler, "run", "core.scheduler.run")
        for policy in subclasses(TokenPolicy):
            method(policy, "round_order", "core.policies.round_order")
        method(BatchedRoundEngine, "run_round", "core.rounds.run_round",
               tally=tally_round)
        self._patch_function(migration.plan_wave, "core.migration.plan_wave")
        method(migration.MigrationEngine, "decisions_from_batch",
               "core.migration.decisions_from_batch")
        # The constructor's cost is its rebuild() call.
        method(FastCostEngine, "rebuild", "core.fastcost.build")
        for attr in ("candidate_batch", "apply_moves", "apply_traffic_delta",
                     "add_vms", "remove_vms"):
            method(FastCostEngine, attr, f"core.fastcost.{attr}")
        method(RoundScoreCache, "refresh", "core.roundcache.refresh")
        method(TrafficMatrix, "apply_delta", "traffic.matrix.apply_delta")
        self._patch_function(
            placement.place_arrivals, "cluster.placement.place_arrivals"
        )
        for attr in ("add_vms", "remove_vms", "migrate_many"):
            method(Allocation, attr, f"cluster.allocation.{attr}")
        method(eventqueue.EventQueueRunner, "pump", "sim.eventqueue.pump")
        for cls, kind in (
            (eventqueue.Arrival, "arrival"),
            (eventqueue.Retirement, "retirement"),
            (eventqueue.TrafficSurge, "surge"),
            (eventqueue.BandwidthCrunch, "crunch"),
        ):
            method(cls, "apply", f"sim.eventqueue.{kind}")
        # Recovery replays committed rounds through step(expected=...).
        method(
            SchedulerService,
            "step",
            lambda args, kwargs: (
                "persist.durable.replay"
                if (len(args) > 1 and args[1] is not None)
                or kwargs.get("expected") is not None
                else "service.step"
            ),
        )
        for source in subclasses(EventSource):
            method(source, "poll", "service.sources.poll")
        method(Journal, "__init__", "persist.journal.open")
        method(Journal, "append", "persist.journal.append")
        self._patch_function(snapshot.write_snapshot, "persist.snapshot.write")
        self._patch_function(snapshot.load_latest_good, "persist.snapshot.load")
        self._patch_function(
            validation.check_engine_invariants, "util.validation.check"
        )
        self._patch_function(
            partition.build_partition,
            "shard.partition.build",
            tally=lambda built: self.bump(
                "shard.partition.domains", built.n_domains
            ),
        )
        method(ShardDomain, "__init__", "shard.domain.build")
        method(ShardDomain, "run_round", "shard.domain.run_round")
        for cls in (executor.SerialExecutor, executor.ShmExecutor,
                    executor.ForkExecutor):
            method(cls, "run_all", "shard.executor.run_all", generator=True)
        self._patch_function(
            reconcile.reconcile_boundary,
            "shard.reconcile.run",
            tally=tally_reconcile,
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- read-out ------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.calls`` / ``<layer>.self_s`` for every layer, plus
        the share of the root spans no layer span covers."""
        child_s = [0.0] * len(self.spans)
        for _name, start, end, parent, _repeat in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = {name: 0 for name in LAYERS}
        self_s = {name: 0.0 for name in LAYERS}
        root_s = root_self_s = 0.0
        for (name, start, end, _parent, _repeat), covered in zip(
            self.spans, child_s
        ):
            own = (end - start) - covered
            if name == ROOT:
                root_s += end - start
                root_self_s += own
            else:
                calls[name] += 1
                self_s[name] += own
        metrics: Dict[str, float] = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_s[name]
        metrics["bench.unattributed_share"] = (
            root_self_s / root_s if root_s > 0 else 0.0
        )
        return metrics

    def chrome_trace(self, workload: str, pid: int) -> List[dict]:
        """The spans as Chrome trace-event ``X`` (complete) events."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {
                    "workload": workload,
                    "repeat": repeat,
                    "span": index,
                    "parent": parent,
                },
            }
            for index, (name, start, end, parent, repeat) in enumerate(
                self.spans
            )
        ]

