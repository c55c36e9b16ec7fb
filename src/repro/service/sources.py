"""Pluggable event sources for the scheduler service.

A source is anything the daemon can poll for timestamped churn/traffic
events: a scripted scenario feed, a seeded Poisson generator, or a
newline-JSON stream (a file, stdin).  The contract is deliberately
pull-based — :meth:`EventSource.poll` returns every event due at or
before the given simulated second — because the service polls once per
round *and only while its ingestion queue is below the overload
watermark*: backpressure is simply not calling ``poll``, leaving the
backlog inside the source.

Sources are part of the service's durable state.  Each snapshot pickles
the live source object (position included), so a recovered service
resumes its stream mid-flight; for the cold-rebuild rung — no usable
snapshot at all — :meth:`EventSource.spec` returns a declarative dict
the ``begin`` journal record stores and :func:`source_from_spec`
rebuilds.  A source that cannot be reconstructed (an already-consumed
stdin pipe) returns ``None`` and simply forfeits that last rung, which
the resume path reports as a typed
:class:`~repro.persist.durable.RecoveryError`.

Determinism is the load-bearing property: for a fixed construction,
``poll`` at the same sequence of simulated times returns the same
events, which is what makes crash recovery by re-execution — and the
chaos suite's faulted-vs-twin differential — exact.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Tuple

from repro.scenarios.scenario import EventSpec
from repro.sim.eventqueue import (
    Arrival,
    BandwidthCrunch,
    Event,
    Retirement,
    TrafficSurge,
)


class EventSource:
    """Base contract: poll-driven, exhaustible, optionally rebuildable."""

    def poll(self, now_s: float) -> List[Tuple[float, Event]]:
        """Every ``(due_s, event)`` due at or before ``now_s``, in order."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True once no future ``poll`` can return anything."""
        raise NotImplementedError

    def spec(self) -> Optional[Dict[str, Any]]:
        """Declarative rebuild recipe, or None when not reconstructible."""
        return None


class ScriptedSource(EventSource):
    """A fixed, pre-timed feed — the scenario-style deterministic source.

    Build directly from ``(due_s, event)`` pairs (not reconstructible —
    runtime events carry no spec) or from declarative
    :class:`~repro.scenarios.scenario.EventSpec` entries via
    :meth:`from_specs`, which keeps the spec list for cold rebuilds.
    """

    def __init__(
        self,
        events: Iterable[Tuple[float, Event]],
        _specs: Optional[Tuple[Dict[str, Any], ...]] = None,
        _round_seconds: Optional[float] = None,
    ) -> None:
        self._buffer = sorted(events, key=lambda pair: pair[0])
        self._specs = _specs
        self._round_seconds = _round_seconds

    @classmethod
    def from_specs(
        cls, specs: Sequence[EventSpec], round_seconds: float
    ) -> "ScriptedSource":
        events = [
            (spec.at_round * round_seconds, spec.build(round_seconds))
            for spec in specs
        ]
        return cls(
            events,
            _specs=tuple(asdict(spec) for spec in specs),
            _round_seconds=float(round_seconds),
        )

    def poll(self, now_s: float) -> List[Tuple[float, Event]]:
        due = []
        while self._buffer and self._buffer[0][0] <= now_s:
            due.append(self._buffer.pop(0))
        return due

    @property
    def exhausted(self) -> bool:
        return not self._buffer

    def spec(self) -> Optional[Dict[str, Any]]:
        if self._specs is None:
            return None
        return {"kind": "scripted", "specs": [dict(s) for s in self._specs]}


class PoissonSource(EventSource):
    """Seeded open-loop traffic: exponential inter-arrivals, mixed kinds.

    ``rate_per_round`` events per token round on average, over a horizon
    of ``horizon_rounds`` rounds; the mix weights pick between tenant
    arrivals, retirements, rate-only traffic surges and bandwidth-budget
    crunches.  Everything is drawn from one ``random.Random(seed)``
    advanced only by ``poll``, so the stream is a pure function of the
    construction parameters — and the whole generator (RNG state
    included) pickles into snapshots mid-stream.
    """

    DEFAULT_MIX = {"arrival": 3.0, "retirement": 2.0, "surge": 4.0, "crunch": 1.0}

    def __init__(
        self,
        rate_per_round: float,
        round_seconds: float,
        horizon_rounds: float,
        seed: int = 0,
        mix: Optional[Dict[str, float]] = None,
    ) -> None:
        if rate_per_round <= 0:
            raise ValueError(
                f"rate_per_round must be > 0, got {rate_per_round}"
            )
        if round_seconds <= 0:
            raise ValueError(f"round_seconds must be > 0, got {round_seconds}")
        self.rate_per_round = float(rate_per_round)
        self.round_seconds = float(round_seconds)
        self.horizon_rounds = float(horizon_rounds)
        self.seed = int(seed)
        self.mix = dict(mix or self.DEFAULT_MIX)
        unknown = set(self.mix) - set(self.DEFAULT_MIX)
        if unknown:
            raise ValueError(f"unknown mix kinds {sorted(unknown)}")
        self._rng = random.Random(self.seed)
        self._horizon_s = self.horizon_rounds * self.round_seconds
        self._rate_per_s = self.rate_per_round / self.round_seconds
        self._next_t = self._rng.expovariate(self._rate_per_s)

    def _draw_kind(self) -> str:
        kinds = sorted(self.mix)
        total = sum(self.mix[k] for k in kinds)
        roll = self._rng.random() * total
        for kind in kinds:
            roll -= self.mix[kind]
            if roll <= 0:
                return kind
        return kinds[-1]

    def _draw_event(self) -> Event:
        kind = self._draw_kind()
        rng = self._rng
        if kind == "arrival":
            return Arrival(rng.randint(1, 3), rate=rng.uniform(200.0, 800.0))
        if kind == "retirement":
            return Retirement(
                rng.randint(1, 2), pick=rng.choice(("newest", "coldest"))
            )
        if kind == "surge":
            return TrafficSurge(
                round(rng.uniform(1.05, 1.9), 3),
                top_pairs=rng.choice((4, 8)),
            )
        return BandwidthCrunch(
            round(rng.uniform(0.55, 0.9), 3),
            lift_after=self.round_seconds * rng.uniform(0.5, 1.5),
        )

    def poll(self, now_s: float) -> List[Tuple[float, Event]]:
        due = []
        while self._next_t <= min(now_s, self._horizon_s):
            due.append((self._next_t, self._draw_event()))
            self._next_t += self._rng.expovariate(self._rate_per_s)
        return due

    @property
    def exhausted(self) -> bool:
        return self._next_t > self._horizon_s

    def spec(self) -> Optional[Dict[str, Any]]:
        return {
            "kind": "poisson",
            "rate_per_round": self.rate_per_round,
            "round_seconds": self.round_seconds,
            "horizon_rounds": self.horizon_rounds,
            "seed": self.seed,
            "mix": dict(self.mix),
        }


class JsonLinesSource(EventSource):
    """Newline-JSON events from a file-like stream (a file, a pipe, stdin).

    Each line is one object with a time field — ``at_s`` in simulated
    seconds or ``at_round`` in round units — plus the
    :class:`~repro.scenarios.scenario.EventSpec` fields (``kind`` and
    its parameters).  The stream is read eagerly at construction, so a
    consumed pipe is fully captured in the first snapshot; only the
    cold-rebuild rung is forfeited (``spec()`` is None — stdin cannot
    be replayed).  Blank lines and ``#`` comments are skipped; a
    malformed line raises immediately with its line number, before the
    daemon starts.
    """

    def __init__(self, stream: IO[str], round_seconds: float) -> None:
        round_seconds = float(round_seconds)
        events: List[Tuple[float, Event]] = []
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: bad JSON ({exc})") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {lineno}: expected an object")
            try:
                if "at_s" in obj:
                    at_round = float(obj.pop("at_s")) / round_seconds
                else:
                    at_round = float(obj.pop("at_round"))
                spec = EventSpec.from_dict({**obj, "at_round": at_round})
                event = spec.build(round_seconds)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            events.append((spec.at_round * round_seconds, event))
        self._inner = ScriptedSource(events)

    def poll(self, now_s: float) -> List[Tuple[float, Event]]:
        return self._inner.poll(now_s)

    @property
    def exhausted(self) -> bool:
        return self._inner.exhausted


class CompositeSource(EventSource):
    """Several sources polled as one (e.g. Poisson load + a scripted burst)."""

    def __init__(self, parts: Sequence[EventSource]) -> None:
        if not parts:
            raise ValueError("CompositeSource needs at least one part")
        self.parts = list(parts)

    def poll(self, now_s: float) -> List[Tuple[float, Event]]:
        due: List[Tuple[float, Event]] = []
        for part in self.parts:
            due.extend(part.poll(now_s))
        due.sort(key=lambda pair: pair[0])
        return due

    @property
    def exhausted(self) -> bool:
        return all(part.exhausted for part in self.parts)

    def spec(self) -> Optional[Dict[str, Any]]:
        specs = [part.spec() for part in self.parts]
        if any(s is None for s in specs):
            return None
        return {"kind": "composite", "parts": specs}


def source_from_spec(
    spec: Dict[str, Any], round_seconds: float
) -> EventSource:
    """Rebuild a source from its :meth:`EventSource.spec` dict.

    The cold-rebuild rung of service recovery: the ``begin`` journal
    record stores this dict, and a directory with no usable snapshot
    reconstructs the exact same stream from it.
    """
    kind = spec.get("kind")
    if kind == "scripted":
        return ScriptedSource.from_specs(
            [EventSpec.from_dict(entry) for entry in spec["specs"]],
            round_seconds,
        )
    if kind == "poisson":
        return PoissonSource(
            rate_per_round=spec["rate_per_round"],
            round_seconds=spec.get("round_seconds", round_seconds),
            horizon_rounds=spec["horizon_rounds"],
            seed=spec.get("seed", 0),
            mix=spec.get("mix"),
        )
    if kind == "composite":
        return CompositeSource(
            [source_from_spec(part, round_seconds) for part in spec["parts"]]
        )
    raise ValueError(f"unknown source spec kind {kind!r}")
