"""Tests for the service's pluggable event sources.

The load-bearing property is determinism: for a fixed construction,
``poll`` at the same sequence of simulated times returns the same
events — that is what makes recovery-by-re-execution and the chaos
differential exact.  The second property is the spec round-trip:
every reconstructible source rebuilds, via
:func:`~repro.service.sources.source_from_spec`, into a stream
identical to the original (the cold-rebuild rung of service recovery).
"""

from __future__ import annotations

import io
import json
import pickle
from dataclasses import asdict

import pytest

from repro.scenarios.scenario import EventSpec
from repro.service import (
    CompositeSource,
    JsonLinesSource,
    PoissonSource,
    ScriptedSource,
    source_from_spec,
)

ROUND_S = 50.0


def _drain(source, times):
    """Poll at each time in order; return ``(due_s, description)`` pairs."""
    out = []
    for t in times:
        out.extend(
            (due, event.describe()) for due, event in source.poll(t)
        )
    return out


class TestPoissonSource:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonSource(0.0, ROUND_S, 4.0)
        with pytest.raises(ValueError):
            PoissonSource(2.0, 0.0, 4.0)
        with pytest.raises(ValueError, match="unknown mix"):
            PoissonSource(2.0, ROUND_S, 4.0, mix={"tsunami": 1.0})

    def test_same_seed_same_stream(self):
        times = [ROUND_S * r for r in (1, 2, 3, 4)]
        a = _drain(PoissonSource(3.0, ROUND_S, 4.0, seed=11), times)
        b = _drain(PoissonSource(3.0, ROUND_S, 4.0, seed=11), times)
        assert a == b
        assert len(a) > 0

    def test_different_seed_different_stream(self):
        times = [ROUND_S * r for r in (1, 2, 3, 4)]
        a = _drain(PoissonSource(3.0, ROUND_S, 4.0, seed=11), times)
        b = _drain(PoissonSource(3.0, ROUND_S, 4.0, seed=12), times)
        assert a != b

    def test_poll_granularity_does_not_matter(self):
        """Many small polls and one big poll see the same stream — the
        service's per-round polling cannot skew the draw sequence."""
        fine = _drain(
            PoissonSource(3.0, ROUND_S, 4.0, seed=5),
            [10.0 * k for k in range(1, 21)],
        )
        coarse = _drain(PoissonSource(3.0, ROUND_S, 4.0, seed=5), [200.0])
        assert fine == coarse

    def test_exhaustion_at_horizon(self):
        source = PoissonSource(5.0, ROUND_S, 2.0, seed=1)
        assert not source.exhausted
        drained = source.poll(10 * ROUND_S)
        assert source.exhausted
        assert all(due <= 2.0 * ROUND_S for due, _ in drained)
        assert source.poll(100 * ROUND_S) == []

    def test_spec_round_trip(self):
        original = PoissonSource(
            2.5, ROUND_S, 3.0, seed=9, mix={"arrival": 1.0, "surge": 2.0}
        )
        rebuilt = source_from_spec(original.spec(), ROUND_S)
        times = [ROUND_S * r for r in (1, 2, 3)]
        assert _drain(original, times) == _drain(rebuilt, times)

    def test_pickles_mid_stream(self):
        """Snapshot semantics: a pickled source resumes exactly where
        the original would have continued, RNG state included."""
        source = PoissonSource(3.0, ROUND_S, 4.0, seed=2)
        source.poll(ROUND_S)
        clone = pickle.loads(pickle.dumps(source))
        rest = [2 * ROUND_S, 3 * ROUND_S, 4 * ROUND_S]
        assert _drain(clone, rest) == _drain(source, rest)


def test_event_spec_from_its_json_form():
    spec = EventSpec(
        kind="outage", at_round=1.5, racks=(2, 3), pods=(1,),
        restore_after_rounds=2.0,
    )
    data = json.loads(json.dumps(asdict(spec)))
    assert isinstance(data["racks"], list)
    assert EventSpec.from_dict(data) == spec
    assert EventSpec.from_dict({"kind": "restore", "at_round": 0, "hosts": [4]}) == (
        EventSpec(kind="restore", at_round=0, hosts=(4,))
    )


class TestScriptedSource:
    def test_from_specs_round_trip(self):
        specs = [
            EventSpec(at_round=2.0, kind="traffic_surge", factor=1.3),
            EventSpec(at_round=1.0, kind="arrival", count=2, rate=300.0),
        ]
        original = ScriptedSource.from_specs(specs, ROUND_S)
        rebuilt = source_from_spec(original.spec(), ROUND_S)
        times = [ROUND_S, 2 * ROUND_S]
        assert _drain(original, times) == _drain(rebuilt, times)

    def test_delivery_is_time_ordered(self):
        specs = [
            EventSpec(at_round=3.0, kind="arrival", count=1),
            EventSpec(at_round=1.0, kind="traffic_surge", factor=1.2),
            EventSpec(at_round=2.0, kind="retirement", count=1),
        ]
        source = ScriptedSource.from_specs(specs, ROUND_S)
        drained = source.poll(10 * ROUND_S)
        assert [due for due, _ in drained] == [ROUND_S, 2 * ROUND_S, 3 * ROUND_S]
        assert source.exhausted

    def test_raw_event_source_is_not_reconstructible(self):
        from repro.sim.eventqueue import Arrival

        source = ScriptedSource([(10.0, Arrival(1))])
        assert source.spec() is None


class TestJsonLinesSource:
    def test_parses_at_s_and_at_round_with_comments(self):
        stream = io.StringIO(
            "# a comment\n"
            "\n"
            '{"at_round": 2.0, "kind": "arrival", "count": 2, "rate": 300.0}\n'
            '{"at_s": 75.0, "kind": "traffic_surge", "factor": 1.4}\n'
        )
        source = JsonLinesSource(stream, ROUND_S)
        drained = source.poll(10 * ROUND_S)
        assert [due for due, _ in drained] == [75.0, 2 * ROUND_S]
        assert "surge" in drained[0][1].describe()
        assert source.exhausted
        # A consumed pipe cannot be replayed: no cold-rebuild spec.
        assert source.spec() is None

    def test_bad_json_names_the_line(self):
        stream = io.StringIO('{"at_round": 1, "kind": "arrival"}\n{oops\n')
        with pytest.raises(ValueError, match="line 2: bad JSON"):
            JsonLinesSource(stream, ROUND_S)

    def test_non_object_line_rejected(self):
        with pytest.raises(ValueError, match="line 1: expected an object"):
            JsonLinesSource(io.StringIO("[1, 2]\n"), ROUND_S)

    def test_missing_time_field_names_the_line(self):
        with pytest.raises(ValueError, match="line 1"):
            JsonLinesSource(io.StringIO('{"kind": "arrival"}\n'), ROUND_S)

    def test_unknown_spec_field_names_the_line(self):
        stream = io.StringIO('{"at_round": 1, "kind": "arrival", "wat": 1}\n')
        with pytest.raises(ValueError, match="line 1"):
            JsonLinesSource(stream, ROUND_S)

    @pytest.mark.parametrize(
        "line",
        [
            '{"at_round": 0, "kind": "arrival", "rate": 1e999}',
            '{"at_round": 0, "kind": "traffic_surge", "factor": 1e999}',
        ],
    )
    def test_non_finite_rate_names_the_line(self, line):
        # json reads 1e999 as inf; an accepted inf rate used to reach the
        # engine and turn its Eq. 2 total into inf.
        with pytest.raises(ValueError, match="line 1: .* must be finite"):
            JsonLinesSource(io.StringIO(line + "\n"), ROUND_S)


class TestCompositeSource:
    def test_needs_at_least_one_part(self):
        with pytest.raises(ValueError):
            CompositeSource([])

    def test_merges_parts_in_time_order(self):
        scripted = ScriptedSource.from_specs(
            [EventSpec(at_round=0.5, kind="traffic_surge", factor=1.2)],
            ROUND_S,
        )
        poisson = PoissonSource(3.0, ROUND_S, 2.0, seed=4)
        merged = CompositeSource([poisson, scripted]).poll(2 * ROUND_S)
        dues = [due for due, _ in merged]
        assert dues == sorted(dues)
        assert 0.5 * ROUND_S in dues

    def test_exhausted_only_when_all_parts_are(self):
        short = ScriptedSource.from_specs(
            [EventSpec(at_round=0.5, kind="arrival", count=1)], ROUND_S
        )
        long = PoissonSource(3.0, ROUND_S, 4.0, seed=4)
        composite = CompositeSource([short, long])
        composite.poll(ROUND_S)
        assert short.exhausted and not composite.exhausted

    def test_spec_round_trip(self):
        composite = CompositeSource(
            [
                PoissonSource(2.0, ROUND_S, 2.0, seed=3),
                ScriptedSource.from_specs(
                    [EventSpec(at_round=1.0, kind="retirement", count=1)],
                    ROUND_S,
                ),
            ]
        )
        rebuilt = source_from_spec(composite.spec(), ROUND_S)
        times = [ROUND_S, 2 * ROUND_S]
        assert _drain(composite, times) == _drain(rebuilt, times)

    def test_spec_is_none_when_any_part_forfeits(self):
        composite = CompositeSource(
            [
                PoissonSource(2.0, ROUND_S, 2.0, seed=3),
                JsonLinesSource(
                    io.StringIO('{"at_round": 1, "kind": "arrival"}\n'),
                    ROUND_S,
                ),
            ]
        )
        assert composite.spec() is None


def test_unknown_spec_kind_rejected():
    with pytest.raises(ValueError, match="unknown source spec kind"):
        source_from_spec({"kind": "carrier-pigeon"}, ROUND_S)
