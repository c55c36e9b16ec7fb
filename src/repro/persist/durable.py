"""Durable scenario runs: checkpointed, journaled, crash-recoverable.

:class:`DurableScenarioRun` drives the same trajectory as
:func:`repro.scenarios.runner.run_scenario` — epoch transitions through
the delta path, token rounds through the continuous-time event queue —
but one round at a time, committing to a write-ahead journal and
writing snapshot generations on a configurable cadence.  A run killed
at *any* point (between waves, mid-snapshot, mid-journal-append)
resumes from disk and finishes bit-exact against its uninterrupted
twin; ``tests/test_crash_recovery.py`` fuzzes exactly that.

Round granularity is free: ``SCOREScheduler.run`` chains successive
rounds through the holder its policy's ``end_round`` returns, and the
scheduler's ``first_holder``/``next_holder`` seam reproduces that chain
across separate one-round calls — so the checkpointed trajectory *is*
the classic trajectory, not an approximation of it.

Recovery model (redo by deterministic re-execution)
---------------------------------------------------
Everything the trajectory depends on lives in the snapshot: the full
scheduler graph (allocation, traffic, token, policy state, engine
caches), the placement manager's id counter, the drift/churn process
state, the pending event heap and the run position (epoch, rounds done,
next holder).  Mutations between snapshots are therefore a *pure
function* of the snapshotted state, so recovery is:

1. load the newest snapshot generation that verifies (corrupt files
   fall back a generation; none at all falls back to a cold rebuild
   from the journal's ``begin`` spec — the degradation ladder);
2. re-execute the schedule forward, consuming the journal's commit
   records (``transition``/``round``/``epoch``) after the snapshot's
   position as *verification*: each re-executed step must reproduce
   the recorded cost, migration count, decision digest and next
   holder, or recovery aborts with :class:`RecoveryError`;
3. anything journaled after the last commit (the torn, uncommitted
   tail of in-flight work) is discarded — re-execution regenerates it;
4. continue the remaining schedule live, journaling again.

The ``op``/``event`` records written ahead of every mutation make the
journal a complete audit of *what* ran; replay correctness rides on the
commit records plus determinism, which the differential suite pins.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.rounds import DecisionColumns
from repro.persist.faults import FaultPlan
from repro.persist.journal import JOURNAL_NAME, Journal, JournalRecord
from repro.persist.snapshot import (
    NoSnapshotError,
    SnapshotCorruptError,
    StorageIO,
    _quick_verify,
    list_snapshots,
    load_latest_good,
    prune_snapshots,
    read_header,
    write_snapshot,
)
from repro.scenarios.registry import scenario_by_name
from repro.scenarios.scenario import (
    ChurnSpec,
    DriftSpec,
    EventSpec,
    Scenario,
)
from repro.sim.eventqueue import EventQueueRunner
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)
from repro.sim.dynamics import count_returning_migrations
from repro.util.validation import check_engine_invariants

#: v2: round commits carry the column-wise decision digest
#: (:func:`_decisions_digest`); a v1 directory's digests cannot verify.
#: v3: the scenario's experiment spec lost its path switches, so a v2
#: begin record no longer rebuilds; it is refused with its tag.
JOURNAL_FORMAT = "score-journal/v3"

#: Dict keys whose recorded/re-executed values are floats compared with
#: the acceptance tolerance instead of exactly (JSON round-trips doubles
#: exactly, so this is belt and braces, not slack).
_COST_KEYS = ("cost", "cost_after", "clock")
_RELTOL = 1e-9


class RecoveryError(Exception):
    """Replay re-execution diverged from the journal's commit records."""


def _scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    return asdict(scenario)


def _scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    events = tuple(
        EventSpec(
            **{
                **spec,
                "vm_ids": tuple(spec.get("vm_ids", ())),
                "racks": tuple(spec.get("racks", ())),
                "pods": tuple(spec.get("pods", ())),
                "hosts": tuple(spec.get("hosts", ())),
            }
        )
        for spec in data["events"]
    )
    return Scenario(
        name=data["name"],
        description=data["description"],
        config=ExperimentConfig(**data["config"]),
        epochs=data["epochs"],
        iterations_per_epoch=data["iterations_per_epoch"],
        drift=DriftSpec(**data["drift"]),
        churn=ChurnSpec(**data["churn"]),
        events=events,
    )


def compact_journal_to_snapshots(directory: str, journal: Journal) -> int:
    """Drop journal records no surviving snapshot generation needs.

    The cutoff is the *oldest* surviving generation's journal position
    (screened cheaply for integrity): every rung the recovery ladder can
    still take replays from a seq at or after it.  Generations without a
    readable position — foreign files, torn headers — veto nothing but
    contribute nothing either; with no usable position at all,
    compaction is skipped.  Returns the number of records dropped.
    """
    positions = []
    for _, path in list_snapshots(directory):
        if not _quick_verify(path):
            continue
        try:
            seq = read_header(path).get("meta", {}).get("journal_seq")
        except SnapshotCorruptError:
            continue
        if isinstance(seq, int):
            positions.append(seq)
    if not positions:
        return 0
    return journal.compact(min(positions))


def _decisions_digest(columns: DecisionColumns) -> str:
    """Order-sensitive digest of one round's full decision sequence.

    Hashed column-wise, no per-hold python: the hold count, then per
    hold the VM id, source host, target host (−1 unless migrated), the
    reason code — which also says whether it migrated — and the delta.
    Every column has a fixed little-endian width, so the byte stream
    decodes uniquely: any changed field, and any two swapped holds,
    change the digest.
    """
    digest = hashlib.sha256()
    digest.update(np.int64(len(columns)).astype("<i8").tobytes())
    target = np.where(columns.reason == 3, columns.target, -1)
    for column, dtype in (
        (columns.vm, "<i8"),
        (columns.source, "<i8"),
        (target, "<i8"),
        (columns.reason, "i1"),
        (columns.delta, "<f8"),
    ):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()[:16]


class JournaledScheduler:
    """Write-ahead proxy around a :class:`SCOREScheduler`.

    Every state-mutating call is recorded (operation name + resolved
    arguments) *before* it executes on the wrapped scheduler; reads and
    everything else delegate untouched, so the proxy drops in wherever
    the scheduler goes (the event-queue runner, churn processes).  The
    full-rebuild path ``update_traffic`` is intentionally outside the
    durable op set — durable runs route traffic through
    ``apply_traffic_delta``.
    """

    def __init__(self, scheduler, record) -> None:
        self._inner = scheduler
        self._record = record

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def admit_vm(self, vm, host: int) -> None:
        self.admit_vms([vm], [host])

    def admit_vms(self, vms: Sequence, hosts: Sequence[int]) -> None:
        vms = list(vms)
        hosts = [int(h) for h in hosts]
        self._record(
            "admit_vms",
            {
                "vms": [
                    [int(vm.vm_id), int(vm.ram_mb), float(vm.cpu)]
                    for vm in vms
                ],
                "hosts": hosts,
            },
        )
        self._inner.admit_vms(vms, hosts)

    def retire_vm(self, vm_id: int) -> None:
        self.retire_vms([vm_id])

    def retire_vms(self, vm_ids: Sequence[int]) -> None:
        ids = [int(v) for v in vm_ids]
        self._record("retire_vms", {"vm_ids": ids})
        self._inner.retire_vms(ids)

    def apply_traffic_delta(self, changed_pairs) -> int:
        array_form = (
            isinstance(changed_pairs, tuple)
            and len(changed_pairs) == 3
            and isinstance(changed_pairs[0], np.ndarray)
        )
        triples = (
            list(zip(*changed_pairs)) if array_form else list(changed_pairs)
        )
        self._record(
            "apply_traffic_delta",
            {
                "pairs": [
                    [int(u), int(v), float(rate)] for u, v, rate in triples
                ]
            },
        )
        return self._inner.apply_traffic_delta(
            changed_pairs if array_form else triples
        )

    def drain_hosts(
        self, hosts: Sequence[int], offline: bool = False
    ) -> List[Tuple[int, int]]:
        hosts = [int(h) for h in hosts]
        self._record("drain_hosts", {"hosts": hosts, "offline": bool(offline)})
        return self._inner.drain_hosts(hosts, offline=offline)

    def restore_hosts(self, hosts: Sequence[int]) -> None:
        hosts = [int(h) for h in hosts]
        self._record("restore_hosts", {"hosts": hosts})
        self._inner.restore_hosts(hosts)

    def set_host_capacity(
        self,
        host: int,
        max_vms: Optional[int] = None,
        nic_bps: Optional[float] = None,
        ram_mb: Optional[int] = None,
        cpu: Optional[float] = None,
    ) -> None:
        self._record(
            "set_host_capacity",
            {
                "host": int(host),
                "max_vms": max_vms,
                "nic_bps": nic_bps,
                "ram_mb": ram_mb,
                "cpu": cpu,
            },
        )
        self._inner.set_host_capacity(
            host, max_vms=max_vms, nic_bps=nic_bps, ram_mb=ram_mb, cpu=cpu
        )

    def set_bandwidth_threshold(self, threshold: Optional[float]) -> None:
        self._record("set_bandwidth_threshold", {"threshold": threshold})
        self._inner.set_bandwidth_threshold(threshold)


class DurableScenarioRun:
    """One checkpointed, journaled, resumable scenario run.

    Build with :meth:`create` (fresh directory) or :meth:`resume`
    (recover from an existing one), then :meth:`run` to completion.
    ``checkpoint_every`` counts *rounds* between snapshot generations;
    the bootstrap snapshot (generation 1) is written at creation so the
    degradation ladder always has a floor.
    """

    def __init__(
        self,
        directory: str,
        journal: Journal,
        scenario: Scenario,
        n_epochs: int,
        iterations: int,
        checkpoint_every: int,
        validate: bool,
        io: StorageIO,
        fault: Optional[FaultPlan],
        keep_generations: int,
        compact_journal: bool = False,
    ) -> None:
        self._directory = str(directory)
        self._journal = journal
        self._scenario = scenario
        self._n_epochs = int(n_epochs)
        self._iterations = int(iterations)
        self._checkpoint_every = int(checkpoint_every)
        self._validate = bool(validate)
        self._io = io
        self._fault = fault
        self._keep_generations = int(keep_generations)
        self._compact_journal = bool(compact_journal)
        self._replaying = False
        self._phase = "transition"
        self._recovered_from: Optional[str] = None
        # Runtime state: _boot_fresh or _install_state fills these in.
        self._environment = None
        self._scheduler = None
        self._proxy = None
        self._runner = None
        self._drift = None
        self._churn = None
        self._result: Optional[Any] = None
        self._former_hosts: Dict[int, Set[int]] = {}
        self._epoch = 0
        self._rounds_done = 0
        self._transition_done = False
        self._next_holder: Optional[int] = None
        self._round_counter = 0
        self._acc = self._fresh_acc()

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        scenario: Union[Scenario, str],
        directory: str,
        *,
        scale: Optional[str] = None,
        epochs: Optional[int] = None,
        iterations_per_epoch: Optional[int] = None,
        seed: Optional[int] = None,
        checkpoint_every: int = 1,
        validate: bool = False,
        io: Optional[StorageIO] = None,
        fault: Optional[FaultPlan] = None,
        keep_generations: int = 4,
        compact_journal: bool = False,
    ) -> "DurableScenarioRun":
        """Start a fresh durable run in an empty ``directory``.

        Scenario resolution (name lookup, ``scale``/``epochs``/
        ``iterations_per_epoch``/``seed`` overrides) matches
        :func:`~repro.scenarios.runner.run_scenario`; the resolved spec
        is journaled as the ``begin`` record, making the directory
        self-contained for cold rebuilds.

        ``compact_journal`` truncates committed journal records older
        than every surviving snapshot generation after each checkpoint,
        bounding long-running disk use — at the cost of the ladder's
        cold-rebuild rung for the dropped span (recovery then floors at
        the oldest kept generation; the default keeps the full journal).
        """
        if isinstance(scenario, str):
            scenario = scenario_by_name(scenario)
        scenario = scenario.scaled(scale)
        if seed is not None:
            scenario = scenario.with_(config=scenario.config.with_(seed=seed))
        n_epochs = epochs if epochs is not None else scenario.epochs
        if n_epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {n_epochs}")
        iterations = (
            iterations_per_epoch
            if iterations_per_epoch is not None
            else scenario.iterations_per_epoch
        )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        io = io or StorageIO()
        os.makedirs(directory, exist_ok=True)
        journal = Journal(os.path.join(directory, JOURNAL_NAME), io=io)
        if journal.last_seq:
            raise ValueError(
                f"{directory!r} already holds a journaled run; "
                f"use DurableScenarioRun.resume"
            )
        run = cls(
            directory,
            journal,
            scenario,
            n_epochs,
            iterations,
            checkpoint_every,
            validate,
            io,
            fault,
            keep_generations,
            compact_journal,
        )
        journal.append(
            "begin",
            {
                "format": JOURNAL_FORMAT,
                "scenario": _scenario_to_dict(scenario),
                "epochs": int(n_epochs),
                "iterations": int(iterations),
                "checkpoint_every": int(checkpoint_every),
                "validate": bool(validate),
            },
        )
        run._boot_fresh()
        run._write_checkpoint()  # generation 1: the ladder's floor
        return run

    @classmethod
    def resume(
        cls,
        directory: str,
        *,
        validate: Optional[bool] = None,
        io: Optional[StorageIO] = None,
        fault: Optional[FaultPlan] = None,
        keep_generations: int = 4,
        compact_journal: bool = False,
    ) -> "DurableScenarioRun":
        """Recover a run from ``directory``'s snapshots + journal.

        Applies the degradation ladder (newest good snapshot → previous
        generations → cold rebuild from the ``begin`` spec), then
        re-executes and verifies the journal's committed suffix; the
        returned run continues from exactly where the committed history
        ends.  ``validate`` overrides the recorded flag (None keeps it).
        """
        io = io or StorageIO()
        journal = Journal(os.path.join(directory, JOURNAL_NAME), io=io)
        begin = journal.find_first("begin")
        if begin is None:
            raise RecoveryError(
                f"{directory!r} has no usable journal begin record"
            )
        if begin.data.get("format") != JOURNAL_FORMAT:
            journal.close()
            raise RecoveryError(
                f"{directory!r} is not a {JOURNAL_FORMAT} run directory "
                f"(begin format {begin.data.get('format')!r})"
            )
        scenario = _scenario_from_dict(begin.data["scenario"])
        run = cls(
            directory,
            journal,
            scenario,
            begin.data["epochs"],
            begin.data["iterations"],
            begin.data["checkpoint_every"],
            begin.data["validate"] if validate is None else validate,
            io,
            fault,
            keep_generations,
            compact_journal,
        )
        try:
            loaded = load_latest_good(directory)
            run._install_state(loaded.state)
            base_seq = int(loaded.header.get("meta", {})["journal_seq"])
            label = f"{os.path.basename(loaded.path)}@seq{base_seq}"
        except NoSnapshotError as exc:
            if journal.find_first("compact") is not None:
                raise RecoveryError(
                    f"{directory!r} has no usable snapshot and its journal "
                    f"was compacted — the dropped records made the "
                    f"cold-rebuild rung unreachable ({exc})"
                ) from exc
            run._boot_fresh()
            base_seq = begin.seq
            label = f"cold-rebuild@seq{base_seq}"
        run._recovered_from = label
        run._scheduler._recovered_from = label
        run._replay(
            run._journal.records(
                after_seq=base_seq, kinds=("transition", "round", "epoch")
            )
        )
        return run

    # -- runtime wiring ------------------------------------------------

    def _attach_runtime(self, environment, scheduler, drift, churn) -> None:
        from repro.scenarios.runner import ScenarioResult

        self._environment = environment
        self._scheduler = scheduler
        self._drift = drift
        self._churn = churn
        self._proxy = JournaledScheduler(scheduler, self._record_op)
        self._runner = EventQueueRunner(
            self._proxy,
            environment=environment,
            validate=self._validate,
            on_before_event=self._record_event,
            fault=self._fault,
        )
        self._result = ScenarioResult(
            scenario=self._scenario, environment=environment
        )

    def _boot_fresh(self) -> None:
        environment = build_environment(self._scenario.config)
        scheduler = make_scheduler(environment)
        drift = self._scenario.drift.build(
            environment.traffic, seed=self._scenario.config.seed
        )
        churn = self._scenario.churn.build()
        self._attach_runtime(environment, scheduler, drift, churn)
        for spec in self._scenario.events:
            self._runner.schedule_at_round(
                spec.at_round, spec.build(self._runner.round_seconds)
            )

    def _install_state(self, state: Dict[str, Any]) -> None:
        self._attach_runtime(
            state["environment"],
            state["scheduler"],
            state["drift"],
            state["churn"],
        )
        self._runner._heap = state["heap"]
        self._runner._seq = state["heap_seq"]
        self._runner.round_seconds = state["round_seconds"]
        self._former_hosts = state["former_hosts"]
        self._result.epoch_stats.extend(state["epoch_stats"])
        self._result.initial_cost = state["initial_cost"]
        self._result.final_cost = state["final_cost"]
        position = state["position"]
        self._epoch = position["epoch"]
        self._rounds_done = position["rounds_done"]
        self._transition_done = position["transition_done"]
        self._next_holder = position["next_holder"]
        self._round_counter = state["round_counter"]
        self._acc = state["acc"]

    # -- journal seams -------------------------------------------------

    def _append(self, kind: str, data: Dict[str, Any]) -> Optional[int]:
        if self._replaying:
            return None
        return self._journal.append(kind, data)

    def _record_op(self, op: str, payload: Dict[str, Any]) -> None:
        self._append("op", {"op": op, "phase": self._phase, **payload})

    def _record_event(self, time_s: float, event) -> None:
        self._append("event", {"t": float(time_s), "event": event.describe()})

    def _verify(
        self, kind: str, expected: Dict[str, Any], actual: Dict[str, Any]
    ) -> None:
        for key, want in expected.items():
            got = actual.get(key)
            if key in _COST_KEYS:
                scale = max(1.0, abs(float(want)))
                ok = abs(float(got) - float(want)) <= _RELTOL * scale
            else:
                ok = got == want
            if not ok:
                raise RecoveryError(
                    f"replay diverged at {kind} commit "
                    f"(epoch {expected.get('epoch')}, "
                    f"round {expected.get('round', '-')}): "
                    f"{key} recorded {want!r}, re-executed {got!r}"
                )

    # -- checkpointing -------------------------------------------------

    def _write_checkpoint(self) -> Optional[str]:
        if self._replaying:
            return None
        state = {
            "environment": self._environment,
            "scheduler": self._scheduler,
            "drift": self._drift,
            "churn": self._churn,
            "heap": self._runner._heap,
            "heap_seq": self._runner._seq,
            "round_seconds": self._runner.round_seconds,
            "former_hosts": self._former_hosts,
            "epoch_stats": list(self._result.epoch_stats),
            "initial_cost": self._result.initial_cost,
            "final_cost": self._result.final_cost,
            "position": {
                "epoch": self._epoch,
                "rounds_done": self._rounds_done,
                "transition_done": self._transition_done,
                "next_holder": self._next_holder,
            },
            "round_counter": self._round_counter,
            "acc": dict(self._acc),
        }
        meta = {
            "kind": "durable-run",
            "journal_seq": self._journal.last_seq,
            "position": state["position"],
            "clock": float(self._scheduler.clock),
        }
        path = write_snapshot(self._directory, state, meta, io=self._io)
        self._append(
            "snapshot",
            {
                "file": os.path.basename(path),
                "journal_seq": meta["journal_seq"],
            },
        )
        prune_snapshots(self._directory, keep=self._keep_generations)
        if self._compact_journal:
            self._compact_wal()
        return path

    def _compact_wal(self) -> int:
        return compact_journal_to_snapshots(self._directory, self._journal)

    # -- the schedule --------------------------------------------------

    @staticmethod
    def _fresh_acc() -> Dict[str, Any]:
        return {
            "migrations": 0,
            "returning": 0,
            "arrivals": 0,
            "departures": 0,
            "drained": 0,
            "events": 0,
            "cost_before": None,
            "cost_after": None,
            "transition_s": 0.0,
            "schedule_s": 0.0,
        }

    def _do_transition(self, expected: Optional[Dict[str, Any]] = None):
        self._phase = "transition"
        t0 = time.perf_counter()
        arrivals, departures, drained = self._churn.apply(
            self._epoch, self._environment, self._proxy
        )
        if self._epoch > 0 and self._drift is not None:
            delta = self._drift.step_delta()
            if delta:
                self._proxy.apply_traffic_delta(delta)
        self._acc["transition_s"] += time.perf_counter() - t0
        self._acc["arrivals"] = arrivals
        self._acc["departures"] = departures
        self._acc["drained"] = drained
        self._phase = "round"
        data = {
            "epoch": self._epoch,
            "arrivals": int(arrivals),
            "departures": int(departures),
            "drained": int(drained),
            "n_vms": int(self._environment.allocation.n_vms),
        }
        if expected is not None:
            self._verify("transition", expected, data)
        self._append("transition", data)
        self._transition_done = True

    def _do_round(self, expected: Optional[Dict[str, Any]] = None):
        events_before = len(self._runner.log)
        t0 = time.perf_counter()
        report = self._runner.run(
            n_iterations=1, first_holder=self._next_holder
        )
        self._acc["schedule_s"] += time.perf_counter() - t0
        self._acc["events"] += len(self._runner.log) - events_before
        if self._acc["cost_before"] is None:
            self._acc["cost_before"] = float(report.initial_cost)
        self._acc["cost_after"] = float(report.final_cost)
        self._acc["migrations"] += report.total_migrations
        columns = report.decisions.columns()
        self._acc["returning"] += count_returning_migrations(
            columns.moves(), self._former_hosts
        )
        data = {
            "epoch": self._epoch,
            "round": self._rounds_done,
            "cost": float(report.final_cost),
            "migrations": int(report.total_migrations),
            "clock": float(self._scheduler.clock),
            "next_holder": report.next_holder,
            "digest": _decisions_digest(columns),
        }
        if expected is not None:
            self._verify("round", expected, data)
        self._append("round", data)
        self._next_holder = report.next_holder
        self._rounds_done += 1
        self._round_counter += 1
        self._result.epoch_reports.append(report)
        if self._validate:
            check_engine_invariants(
                self._scheduler,
                context=f"epoch {self._epoch} round {self._rounds_done}",
            )
        if self._round_counter % self._checkpoint_every == 0:
            self._write_checkpoint()

    def _finish_epoch(self, expected: Optional[Dict[str, Any]] = None):
        from repro.scenarios.runner import EpochStats

        acc = self._acc
        cost_after = (
            acc["cost_after"]
            if acc["cost_after"] is not None
            else self._result.final_cost
        )
        stats = EpochStats(
            epoch=self._epoch,
            n_vms=self._environment.allocation.n_vms,
            migrations=acc["migrations"],
            returning=acc["returning"],
            arrivals=acc["arrivals"],
            departures=acc["departures"],
            drained=acc["drained"],
            cost_before=(
                acc["cost_before"]
                if acc["cost_before"] is not None
                else cost_after
            ),
            cost_after=cost_after,
            transition_s=acc["transition_s"],
            schedule_s=acc["schedule_s"],
            events=acc["events"],
            recovered_from=self._recovered_from,
        )
        if self._epoch == 0:
            self._result.initial_cost = stats.cost_before
        self._result.final_cost = cost_after
        self._result.epoch_stats.append(stats)
        data = {
            "epoch": self._epoch,
            "cost_after": float(cost_after),
            "migrations": int(acc["migrations"]),
            "n_vms": int(stats.n_vms),
        }
        if expected is not None:
            self._verify("epoch", expected, data)
        self._append("epoch", data)
        self._epoch += 1
        self._rounds_done = 0
        self._transition_done = False
        self._next_holder = None
        self._acc = self._fresh_acc()

    def _replay(self, commits: List[JournalRecord]) -> None:
        self._replaying = True
        try:
            for record in commits:
                if record.kind == "transition":
                    self._do_transition(expected=record.data)
                elif record.kind == "round":
                    self._do_round(expected=record.data)
                else:
                    self._finish_epoch(expected=record.data)
        finally:
            self._replaying = False

    # -- public surface ------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def journal(self) -> Journal:
        return self._journal

    @property
    def environment(self):
        return self._environment

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def recovered_from(self) -> Optional[str]:
        """Provenance label when this run came through :meth:`resume`."""
        return self._recovered_from

    @property
    def position(self) -> Dict[str, Any]:
        """Where the committed history currently ends."""
        return {
            "epoch": self._epoch,
            "rounds_done": self._rounds_done,
            "transition_done": self._transition_done,
            "next_holder": self._next_holder,
        }

    def run(self, stop_requested=None):
        """Drive the remaining schedule to completion; returns the
        :class:`~repro.scenarios.runner.ScenarioResult` (epoch stats of
        already-committed epochs included, ``recovered_from`` stamped on
        every epoch a resumed run produced).

        ``stop_requested`` (a zero-argument callable, e.g. a signal
        flag from :class:`repro.service.GracefulShutdown`) is polled
        between rounds: when it turns true the in-flight round finishes,
        a final checkpoint is flushed, and the partial result returns
        with ``interrupted=True`` — :meth:`resume` continues from there.
        """

        def stopping() -> bool:
            return stop_requested is not None and stop_requested()

        interrupted = False
        while self._epoch < self._n_epochs and not interrupted:
            if not self._transition_done:
                self._do_transition()
            while self._rounds_done < self._iterations:
                self._do_round()
                if stopping():
                    interrupted = True
                    break
            if not interrupted:
                self._finish_epoch()
                if self._epoch < self._n_epochs and stopping():
                    interrupted = True
        self._write_checkpoint()
        self._result.profile = self._scheduler.profile
        self._result.interrupted = interrupted
        return self._result

    def close(self) -> None:
        if self._scheduler is not None:
            self._scheduler.close()
        self._journal.close()


def run_durable_scenario(
    scenario: Union[Scenario, str],
    directory: str,
    *,
    stop_requested=None,
    **kwargs,
):
    """Create + run one durable scenario; returns its ScenarioResult."""
    run = DurableScenarioRun.create(scenario, directory, **kwargs)
    try:
        return run.run(stop_requested=stop_requested)
    finally:
        run.close()


def resume_durable_scenario(directory: str, *, stop_requested=None, **kwargs):
    """Resume + finish a durable scenario; returns its ScenarioResult."""
    run = DurableScenarioRun.resume(directory, **kwargs)
    try:
        return run.run(stop_requested=stop_requested)
    finally:
        run.close()
