"""Domain executors: run every domain's round, serially or in workers.

Three interchangeable executors drive the per-iteration fan-out, all
behind one surface the coordinator streams from:

* ``run_all(more_coming) -> Iterator[DomainRoundOutcome]`` yields
  outcomes **in ascending domain-id order, as soon as each becomes
  available** — the seam the pipelined merge rides on.  With
  ``more_coming=True`` a process executor commands a worker's *next*
  round the moment its current frames have all been decoded, so workers
  solve round ``k+1`` while the parent merges round ``k`` (bounded one
  round ahead; see :mod:`repro.shard.shm`).
* ``apply_delta(ops)`` forwards compact per-domain delta operations
  (rate deltas, churn, capacity changes) to wherever the live domain
  state resides — in-process for serial, over the command pipe for
  workers — so epoch transitions reach a long-lived fleet without a
  rebuild.
* ``close()`` tears workers and shared-memory slabs down (idempotent;
  a finalizer covers abandoned executors).

The executors:

* :class:`SerialExecutor` runs each domain in-process — deterministic,
  zero IPC, the pinned reference for every parallel path.
* :class:`ForkExecutor` forks long-lived workers and ships outcomes
  *pickled over pipes* — what :func:`make_executor` degrades to on its
  own when shared memory is unavailable.  Its gather polls with a
  timeout and raises :class:`ShardWorkerError` instead of blocking
  forever on a dead or stalled worker.
* :class:`ShmExecutor` adds the zero-copy slab transport: workers pack
  moves and decision columns into preallocated shared-memory slabs and
  the pipes carry only tiny headers.  The default for ``n_workers > 1``.

Domains are packed onto workers by **LPT bin packing** over a
per-domain work estimate (:func:`pack_workers`) — measured solve times
from a previous fleet refine the estimates on rebuild — so the gather
no longer waits on a round-robin straggler.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import traceback
import weakref
from multiprocessing import connection
from typing import Dict, Iterator, List, Optional, Sequence

from repro.shard.domain import DomainRoundOutcome, ShardDomain
from repro.shard import shm as slab

#: Seconds of total silence from live workers before the gather gives up.
DEFAULT_STALL_TIMEOUT_S = 300.0

#: Poll granularity of the gather loop (liveness is checked every tick).
_POLL_S = 0.25

_slab_counter = itertools.count()


class ShardWorkerError(RuntimeError):
    """A shard worker died or stalled mid-round."""

    def __init__(self, worker: int, domain_ids: Sequence[int], reason: str):
        self.worker = int(worker)
        self.domain_ids = [int(d) for d in domain_ids]
        super().__init__(
            f"shard worker {worker} (domains {self.domain_ids}) {reason}"
        )


def fork_available() -> bool:
    """Whether the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def pack_workers(
    domains: List[ShardDomain],
    n_workers: int,
    hints: Optional[Dict[int, float]] = None,
) -> List[List[ShardDomain]]:
    """LPT bin packing of domains onto workers.

    The work estimate is the domain's intra-pair count times its local
    candidate-grid width (:meth:`ShardDomain.work_estimate`), overridden
    by a measured ``domain-solve`` seconds hint when the caller has one
    from a previous fleet.  Heaviest domain first onto the lightest
    worker — the classic 4/3-approximation, which is what keeps the
    slowest worker's load near the mean.
    """
    n_workers = max(1, min(int(n_workers), len(domains)))
    hints = hints or {}
    weight = {
        d.domain_id: float(
            hints.get(d.domain_id, 0.0) or d.work_estimate()
        )
        for d in domains
    }
    ordered = sorted(domains, key=lambda d: (-weight[d.domain_id], d.domain_id))
    loads = [0.0] * n_workers
    owned: List[List[ShardDomain]] = [[] for _ in range(n_workers)]
    for domain in ordered:
        w = min(range(n_workers), key=lambda i: (loads[i], i))
        owned[w].append(domain)
        loads[w] += weight[domain.domain_id]
    for worker_domains in owned:
        worker_domains.sort(key=lambda d: d.domain_id)
    return owned


def apply_domain_op(by_id: Dict[int, ShardDomain], op: tuple) -> None:
    """Apply one delta operation to its live domain object."""
    kind = op[0]
    if kind == "traffic":
        by_id[op[1]].apply_traffic(op[2], op[3], op[4])
    elif kind == "admit":
        by_id[op[1]].admit(op[2], op[3])
    elif kind == "retire":
        by_id[op[1]].retire(op[2])
    elif kind == "capacity":
        by_id[op[1]].set_capacity(op[2], op[3])
    elif kind == "threshold":
        for domain in by_id.values():
            domain.set_bandwidth_threshold(op[2])
    elif kind == "migrate":
        by_id[op[1]].apply_migration(op[2], op[3])
    else:  # pragma: no cover - guarded by the coordinator
        raise ValueError(f"unknown domain op {kind!r}")


class SerialExecutor:
    """Run every domain's round in-process, in domain-id order."""

    kind = "serial"
    n_workers = 1
    fallback_reason: Optional[str] = None

    def __init__(self, domains: List[ShardDomain]) -> None:
        self._domains = sorted(domains, key=lambda d: d.domain_id)
        self._by_id = {d.domain_id: d for d in self._domains}
        #: Measured seconds of each domain's most recent round.
        self.solve_seconds: Dict[int, float] = {}

    @property
    def domains_of_worker(self) -> List[List[int]]:
        return [[d.domain_id for d in self._domains]]

    def run_all(
        self, more_coming: bool = False
    ) -> Iterator[DomainRoundOutcome]:
        for domain in self._domains:
            t0 = time.perf_counter()
            outcome = domain.run_round()
            self.solve_seconds[domain.domain_id] = time.perf_counter() - t0
            yield outcome

    def apply_delta(self, ops: Sequence[tuple]) -> None:
        for op in ops:
            apply_domain_op(self._by_id, op)

    def close(self) -> None:
        pass


def _worker_loop(worker_index: int, domains: List[ShardDomain],
                 conn, slab_shm) -> None:
    """Worker body: own a domain subset, answer commands forever.

    Outcomes go through the inherited shared-memory slab when one was
    provided (falling back to a pickled ``bulk`` message per domain on
    overflow), else always through the pipe.
    """
    by_id = {d.domain_id: d for d in domains}
    writer = slab.SlabWriter(slab_shm) if slab_shm is not None else None
    try:
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "round":
                round_index = message[1]
                if writer is not None:
                    writer.begin_round(round_index)
                for domain in domains:
                    t0 = time.perf_counter()
                    outcome = domain.run_round()
                    solve_s = time.perf_counter() - t0
                    header = (
                        writer.pack(round_index, outcome, solve_s)
                        if writer is not None
                        else None
                    )
                    if header is None:
                        conn.send((slab.BULK, round_index, outcome, solve_s))
                    else:
                        conn.send(header)
            elif tag == "delta":
                for op in message[1]:
                    apply_domain_op(by_id, op)
                conn.send(("delta-ok",))
            else:  # "stop" (or anything unknown): exit cleanly
                break
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("error", worker_index, traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _cleanup_workers(workers, slabs) -> None:
    """Tear worker processes and slabs down (finalizer-safe: no self)."""
    for process, conn in workers:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for process, conn in workers:
        process.join(timeout=5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
        try:
            conn.close()
        except OSError:
            pass
    for segment in slabs:
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass


class _ProcessExecutor:
    """Shared machinery of the fork-pool executors (pipe or slab)."""

    kind = "process"
    fallback_reason: Optional[str] = None
    _use_slabs = False

    def __init__(
        self,
        domains: List[ShardDomain],
        n_workers: int,
        hints: Optional[Dict[int, float]] = None,
        stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
    ) -> None:
        if not fork_available():
            raise RuntimeError(
                "the 'fork' start method is unavailable on this platform; "
                "use SerialExecutor"
            )
        owned = pack_workers(domains, n_workers, hints)
        self._stall_timeout_s = float(stall_timeout_s)
        self._domain_ids = sorted(d.domain_id for d in domains)
        self._worker_of_domain: Dict[int, int] = {}
        self._owned_ids: List[List[int]] = []
        self._round = 0
        #: Round index each worker was last commanded to run.
        self._commanded: List[int] = []
        #: Frames received per (round, worker).
        self._frames_done: Dict[int, List[int]] = {}
        #: Decoded outcomes per round, keyed by domain id.
        self._arrived: Dict[int, Dict[int, DomainRoundOutcome]] = {}
        #: Measured seconds of each domain's most recent round.
        self.solve_seconds: Dict[int, float] = {}

        self._slabs = []
        self._readers: List[Optional[slab.SlabReader]] = []
        self._workers = []
        try:
            self._start_workers(owned)
        except BaseException:
            # A slab or fork failing part-way must not leak the workers
            # and segments already started.
            _cleanup_workers(self._workers, self._slabs)
            raise
        self._finalizer = weakref.finalize(
            self, _cleanup_workers, self._workers, self._slabs
        )

    def _start_workers(self, owned: List[List[ShardDomain]]) -> None:
        context = multiprocessing.get_context("fork")
        for w, worker_domains in enumerate(owned):
            ids = [d.domain_id for d in worker_domains]
            self._owned_ids.append(ids)
            for domain_id in ids:
                self._worker_of_domain[domain_id] = w
            segment = None
            if self._use_slabs:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(
                    name=(
                        f"reproshard_{os.getpid()}_{next(_slab_counter)}"
                    ),
                    create=True,
                    size=2 * slab.buffer_bytes(
                        [d.n_vms for d in worker_domains]
                    ),
                )
                self._slabs.append(segment)
            self._readers.append(
                slab.SlabReader(segment) if segment is not None else None
            )
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_loop,
                args=(w, worker_domains, child_conn, segment),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append((process, parent_conn))
            self._commanded.append(-1)

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def domains_of_worker(self) -> List[List[int]]:
        return [list(ids) for ids in self._owned_ids]

    @property
    def slab_names(self) -> List[str]:
        """Names of the live shared-memory segments (for leak checks)."""
        return [segment.name for segment in self._slabs]

    # -- gather ------------------------------------------------------------

    def _raise_dead(self, w: int, reason: str) -> None:
        raise ShardWorkerError(w, self._owned_ids[w], reason)

    def _send(self, w: int, message: tuple) -> None:
        """Send one command, surfacing a dead worker as a typed error."""
        try:
            self._workers[w][1].send(message)
        except (BrokenPipeError, OSError):
            code = self._workers[w][0].exitcode
            self._raise_dead(w, f"died (exit code {code})")

    def _handle(self, w: int, message: tuple) -> None:
        """Decode one worker message into the per-round arrival buffers."""
        tag = message[0]
        if tag == "error":
            self._raise_dead(w, f"raised:\n{message[2]}")
        if tag == slab.FRAME:
            round_index = message[1]
            outcome = self._readers[w].unpack(message)
            solve_s = message[6]
        elif tag == slab.BULK:
            round_index, outcome, solve_s = message[1], message[2], message[3]
        else:  # pragma: no cover - protocol violation
            self._raise_dead(w, f"sent unexpected message {tag!r}")
        self._arrived.setdefault(round_index, {})[outcome.domain_id] = outcome
        self.solve_seconds[outcome.domain_id] = float(solve_s)
        done = self._frames_done.setdefault(
            round_index, [0] * len(self._workers)
        )
        done[w] += 1

    def _worker_finished(self, w: int, round_index: int) -> bool:
        done = self._frames_done.get(round_index)
        return done is not None and done[w] >= len(self._owned_ids[w])

    def run_all(
        self, more_coming: bool = False
    ) -> Iterator[DomainRoundOutcome]:
        k = self._round
        self._round += 1
        for w, (process, conn) in enumerate(self._workers):
            if self._commanded[w] < k:
                self._send(w, ("round", k))
                self._commanded[w] = k
        arrived = self._arrived.setdefault(k, {})
        pending = [d for d in self._domain_ids]
        cursor = 0
        idle_s = 0.0
        while cursor < len(pending):
            # Pre-command round k+1 for every worker whose round-k frames
            # are all decoded (arrival decodes copy out of the slab, so
            # its buffers are reusable immediately).
            if more_coming:
                for w, (process, conn) in enumerate(self._workers):
                    if self._commanded[w] == k and self._worker_finished(w, k):
                        self._send(w, ("round", k + 1))
                        self._commanded[w] = k + 1
            # Yield every outcome that is next in ascending-id order.
            progressed = False
            while cursor < len(pending) and pending[cursor] in arrived:
                yield arrived.pop(pending[cursor])
                cursor += 1
                progressed = True
            if cursor >= len(pending):
                break
            conns = [conn for _, conn in self._workers]
            ready = connection.wait(conns, timeout=_POLL_S)
            if ready:
                idle_s = 0.0
                for conn in ready:
                    w = conns.index(conn)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        code = self._workers[w][0].exitcode
                        self._raise_dead(
                            w, f"died mid-round (exit code {code})"
                        )
                    self._handle(w, message)
                continue
            if progressed:
                continue
            for w, (process, conn) in enumerate(self._workers):
                if not process.is_alive() and not self._worker_finished(w, k):
                    self._raise_dead(
                        w, f"died mid-round (exit code {process.exitcode})"
                    )
            idle_s += _POLL_S
            if idle_s >= self._stall_timeout_s:
                stalled = [
                    w
                    for w in range(len(self._workers))
                    if not self._worker_finished(w, k)
                ]
                self._raise_dead(
                    stalled[0],
                    f"stalled: no frames for {self._stall_timeout_s:.0f}s",
                )
        self._frames_done.pop(k, None)
        self._arrived.pop(k, None)

    # -- delta channel -----------------------------------------------------

    def apply_delta(self, ops: Sequence[tuple]) -> None:
        """Route delta operations to the workers owning their domains.

        Only legal between rounds (the coordinator guarantees no round
        is in flight), so the acknowledgement is the next pipe message.
        """
        per_worker: Dict[int, List[tuple]] = {}
        for op in ops:
            if op[0] == "threshold":
                for w in range(len(self._workers)):
                    per_worker.setdefault(w, []).append(op)
            else:
                w = self._worker_of_domain[op[1]]
                per_worker.setdefault(w, []).append(op)
        for w, worker_ops in per_worker.items():
            self._send(w, ("delta", worker_ops))
        for w in per_worker:
            process, conn = self._workers[w]
            if not conn.poll(self._stall_timeout_s):
                self._raise_dead(w, "stalled applying a delta")
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._raise_dead(
                    w, f"died applying a delta (exit code {process.exitcode})"
                )
            if message[0] == "error":
                self._raise_dead(w, f"raised applying a delta:\n{message[2]}")
            if message[0] != "delta-ok":  # pragma: no cover
                self._raise_dead(
                    w, f"sent unexpected message {message[0]!r}"
                )

    def close(self) -> None:
        if self._finalizer.detach() is not None:
            _cleanup_workers(self._workers, self._slabs)
        self._workers = []
        self._slabs = []


class ForkExecutor(_ProcessExecutor):
    """Fork-pool executor with the pickled-pipe outcome transport."""

    kind = "fork"
    _use_slabs = False


class ShmExecutor(_ProcessExecutor):
    """Fork-pool executor with the zero-copy shared-memory transport."""

    kind = "shm"
    _use_slabs = True


def make_executor(
    domains: List[ShardDomain],
    n_workers: int,
    hints: Optional[Dict[int, float]] = None,
    stall_timeout_s: float = DEFAULT_STALL_TIMEOUT_S,
):
    """The right executor for ``n_workers``, with any fallback recorded.

    Workers return their outcomes through shared-memory slabs
    (:class:`ShmExecutor`); without usable shared memory they degrade to
    pickled pipes (:class:`ForkExecutor`), and when workers cannot run
    at all — one worker requested, a single domain, no ``fork`` support
    — a :class:`SerialExecutor` comes back.  Every degradation sets
    ``fallback_reason``, so callers can surface *why* the requested
    executor did not run.
    """
    reason = None
    if n_workers <= 1:
        pass  # serial was asked for; not a fallback
    elif len(domains) <= 1:
        reason = f"{n_workers} workers requested but only 1 domain"
    elif not fork_available():
        reason = "the 'fork' start method is unavailable"
    else:
        options = dict(hints=hints, stall_timeout_s=stall_timeout_s)
        try:
            return ShmExecutor(domains, n_workers, **options)
        except OSError as error:
            reason = f"shared memory unavailable: {error}"
        try:
            executor = ForkExecutor(domains, n_workers, **options)
        except OSError as error:
            reason = f"worker pool unavailable: {error}"
        else:
            executor.fallback_reason = reason
            return executor
    executor = SerialExecutor(domains)
    executor.fallback_reason = reason
    return executor
