"""One workload, one process: set up, time, verify, report.

This is the child every workload runs in (``python -m bench measure``),
and the command ``BENCHMARK.json`` declares.  End-to-end metrics come
from a run with tracing off; ``--trace 1`` installs the layer spans and
reports the per-layer metrics instead.  The last stdout line is the
machine-readable result; ``--record FILE`` additionally saves the full
record (samples, counts, fingerprint) for ``bench run`` / ``compare``.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional

from bench import fingerprint, spec, stats
from bench.inputs import SCALES
from bench.tracing import ROOT, Tracer

SCHEMA = "repro-bench/record/v1"

#: Set-up is repeated (and its median reported) until it has this many
#: samples or has used this much wall-clock, whichever comes first: a
#: one-second set-up is noisy but cheap to repeat, a ten-second one is
#: steady on its own and too dear to.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.5

#: Scratch space for service state directories: inside the checkout (the
#: benchmark writes nowhere else), git-ignored, removed before exit.
TMP_ROOT = os.path.join(fingerprint.REPO_ROOT, ".bench_tmp")


class Context:
    """What a workload sees: its inputs' knobs and the measuring tools."""

    def __init__(
        self, seed: int, scale: str, n_ops: int, tracer: Optional[Tracer]
    ) -> None:
        self.seed = seed
        self.scale = SCALES[scale]
        self.n_ops = n_ops
        self.cores = fingerprint.cores()
        self.samples: List[float] = []
        #: Wall-clock inside ``op()`` blocks, and the number of work units
        #: it bought (per-layer values are reported per unit; by default
        #: one unit per sample).
        self.timed_s = 0.0
        self.units: Optional[int] = None
        self.attempted = 0
        self.failures: List[str] = []
        #: Per-layer values a workload reads off public report fields.
        self.counts: Dict[str, float] = {}
        self.oversubscribed = False
        self.result: Dict[str, float] = {}
        self._tracer = tracer
        self._profiles: List[Any] = []
        self._deferred: List[Callable[[], None]] = []
        self._tmp: Optional[str] = None

    @contextmanager
    def op(self, sample: bool = True):
        """Time one operation (GC settled first; a root span when traced).

        ``sample=False`` leaves the sample list to the workload, for an
        operation that yields several samples of its own.
        """
        gc.collect()
        tracer = self._tracer
        if tracer is not None:
            tracer.repeat = self.attempted
            tracer.enabled = True
        self.attempted += 1
        try:
            started = time.perf_counter()
            with tracer.span(ROOT) if tracer is not None else nullcontext():
                yield
            elapsed = time.perf_counter() - started
            self.timed_s += elapsed
            if sample:
                self.samples.append(elapsed)
        finally:
            if tracer is not None:
                tracer.enabled = False

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        """A failed correctness gate counts as one failed operation."""
        self.failures.append(message)

    def watch(self, scheduler) -> None:
        """Collect the scheduler's own phase profile on a traced pass."""
        if self._tracer is not None:
            self._profiles.append(scheduler.enable_profiling())

    def outcome(self, initial_cost: float, final_cost: float,
                migrations: int) -> None:
        """The run's Eq. 2 costs: boot state vs where the workload ended."""
        self.result = {
            "initial_cost": initial_cost,
            "final_cost": final_cost,
            "migrations": migrations,
        }

    def tmpdir(self) -> str:
        if self._tmp is None:
            os.makedirs(TMP_ROOT, exist_ok=True)
            self._tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
        return tempfile.mkdtemp(dir=self._tmp)

    def defer(self, close: Callable[[], None]) -> None:
        self._deferred.append(close)

    def cleanup(self) -> None:
        """Close what a set-up opened and delete its state directories."""
        while self._deferred:
            self._deferred.pop()()
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None
            try:
                os.rmdir(TMP_ROOT)
            except OSError:
                pass  # another run's scratch is still in there

    def profile_metrics(self) -> Dict[str, float]:
        """Sum the watched schedulers' phase profiles into layer metrics."""
        totals: Dict[str, float] = {}
        imbalance = 0.0
        for profile in self._profiles:
            for phase, name in spec.PROFILE_SECONDS.items():
                totals[name] = totals.get(name, 0.0) + profile.seconds.get(
                    phase, 0.0
                )
            for counter, name in spec.PROFILE_COUNTS.items():
                totals[name] = totals.get(name, 0.0) + profile.counts.get(
                    counter, 0
                )
            imbalance = profile.gauges.get("shard-imbalance", imbalance)
        totals["shard.imbalance"] = imbalance
        return totals


def _child_pids() -> List[int]:
    """Live or unreaped children of this process, read off ``/proc``."""
    me, children = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid ...; comm may hold spaces and ')'.
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue  # gone between the listing and the read
        if ppid == me:
            children.append(int(entry))
    return children


def stop_children(keep=()) -> List[int]:
    """Stop every process this one started and wait until each has ended.

    The shard executor joins its workers in ``close()``, but the slabs it
    allocates start ``multiprocessing``'s resource tracker, which otherwise
    ends only once it sees its parent gone, i.e. *after* this process.
    It ignores SIGTERM and stops when its pipe is closed (the next
    shared-memory user starts a new one).  Any other child not in
    ``keep`` is a leak: killed, reaped and returned for the caller to
    report.
    """
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()  # closes the pipe and waits for the tracker
    leaked = [pid for pid in _child_pids() if pid not in keep]
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return leaked


def _set_up(workload, ctx) -> tuple:
    """Repeat the workload's set-up; return the last state and each cost."""
    costs: List[float] = []
    while True:
        started = time.perf_counter()
        state = workload.prepare(ctx)
        costs.append(time.perf_counter() - started)
        if len(costs) >= SETUP_REPEATS or sum(costs) >= SETUP_BUDGET_S:
            return state, costs
        del state
        ctx.cleanup()


def _layer_values(ctx: Context, tracer: Tracer) -> Dict[str, float]:
    values = {name: 0.0 for name in spec.PER_LAYER}
    values.update(tracer.layer_metrics())
    values.update(tracer.counters)
    values.update(ctx.profile_metrics())
    values.update(ctx.counts)
    seen = values["core.roundcache.owners_seen"]
    if seen:
        values["core.roundcache.hit_ratio"] = (
            1.0 - values["core.roundcache.owners_rescored"] / seen
        )
    values["bench.op_p90_s"] = stats.tail_p90(ctx.samples)
    values["bench.traced_op_s"] = statistics.median(ctx.samples)
    units = ctx.units or len(ctx.samples)
    return {
        name: value if name in spec.AS_OBSERVED else value / units
        for name, value in values.items()
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    trace_out: Optional[str] = None,
    process_started: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one workload in this process and return its full record."""
    process_started = process_started or time.perf_counter()
    children_before = set(_child_pids())
    load_start = fingerprint.loadavg()
    from bench import workloads  # imports the program under test

    workload = workloads.load()[name]
    import_s = time.perf_counter() - process_started
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    n_ops = workload.n_ops(seconds)
    ctx = Context(seed, scale, n_ops, tracer)
    try:
        state, setup_costs = _set_up(workload, ctx)
        workload.run(ctx, state)
    finally:
        ctx.cleanup()
        if tracer is not None:
            tracer.uninstall()
        leftover = multiprocessing.active_children()
        leaked = stop_children(keep=children_before)
    ctx.check(
        not leftover and not leaked,
        f"processes still alive after the run: {leftover} {leaked}",
    )

    samples = ctx.samples
    usage = resource.getrusage(resource.RUSAGE_SELF)
    declared = spec.declared_metrics()
    if trace:
        values = _layer_values(ctx, tracer)
    else:
        initial = ctx.result["initial_cost"]
        values = {
            "setup_s": import_s + statistics.median(setup_costs),
            "op_s": statistics.median(samples),
            "cost_reduction": (initial - ctx.result["final_cost"]) / initial,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
    for metric, value in values.items():
        ctx.check(math.isfinite(value), f"{metric} is not finite: {value}")
    failed = min(len(ctx.failures), ctx.attempted)
    load_end = fingerprint.loadavg()
    record = {
        "schema": SCHEMA,
        "workload": name,
        "op_name": workload.op_name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "correct": not ctx.failures,
        "attempted": ctx.attempted,
        "failed": failed,
        "failures": ctx.failures,
        "n_ops": n_ops,
        "n_samples": len(samples),
        "samples_s": samples,
        "timed_wall_s": ctx.timed_s,
        "setup_repeats": len(setup_costs),
        "setup_samples_s": setup_costs,
        "import_s": import_s,
        "outcome": ctx.result,
        "metrics": {
            metric: {"value": value, "unit": declared[metric]["unit"]}
            for metric, value in values.items()
        },
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "noisy": max(load_start, load_end) > ctx.cores,
        "oversubscribed": ctx.oversubscribed,
        "fingerprint": fingerprint.fingerprint(),
    }
    if trace_out and tracer is not None:
        with open(trace_out, "w") as handle:
            json.dump(
                {"traceEvents": tracer.chrome_trace(name, os.getpid())}, handle
            )
    return record


def describe(record: Dict[str, Any]) -> List[str]:
    """Human-readable lines of one record."""
    flags = [
        flag for flag in ("noisy", "oversubscribed") if record.get(flag)
    ]
    lines = [
        f"[{record['workload']}] seed {record['seed']}  scale "
        f"{record['scale']}  trace {'on' if record['trace'] else 'off'}  "
        f"ops {record['n_ops']}  samples {record['n_samples']}  "
        f"set-ups {record['setup_repeats']}  attempted "
        f"{record['attempted']}  failed {record['failed']}"
        + (f"  ({', '.join(flags)})" if flags else "")
    ]
    for metric, entry in record["metrics"].items():
        if record["trace"] and not entry["value"]:
            continue  # layers this workload never enters
        label = metric
        if metric == "op_s":
            label = f"op_s ({record['op_name']})"
        lines.append(f"  {label:44s} {entry['value']:14.6g} {entry['unit']}")
    lines.extend(f"  FAILED: {message}" for message in record["failures"])
    return lines


def main(args) -> int:
    record = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        scale=args.scale,
        trace_out=args.trace_out,
        process_started=args.process_started,
    )
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle)
    print("\n".join(describe(record)))
    print(
        "fingerprint: "
        + json.dumps(record["fingerprint"], sort_keys=True)
    )
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1
