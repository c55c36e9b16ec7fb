"""Harness self-tests: the benchmark measures what it declares.

Everything runs at the ``smoke`` preset; nothing here asserts a
wall-clock, only that the right names come out with finite values, that
``compare`` classifies, and that a run leaves the working tree alone.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench.fingerprint import REPO_ROOT

_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:  # tier-1 sets PYTHONPATH=src; a bare pytest may not
    sys.path.insert(0, _SRC)

from bench import compare, measure, spec  # noqa: E402

DECLARED = spec.declaration()
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_declaration_matches_what_the_code_emits():
    end_to_end = [metric["name"] for metric in DECLARED["end_to_end"]]
    per_layer = [metric["name"] for metric in DECLARED["per_layer"]]
    assert end_to_end == list(spec.END_TO_END)
    assert per_layer == list(spec.PER_LAYER)
    names = end_to_end + per_layer + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in end_to_end
    assert all(0 < metric["bound"] <= 0.25 for metric in DECLARED["end_to_end"])
    assert DECLARED["paths"] == ["bench"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric_once(workload, trace):
    record = measure.run_workload(
        workload, seed=7, seconds=1.0, trace=trace, scale="smoke"
    )
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert record["n_samples"] >= 1 and record["setup_repeats"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(record["metrics"]) == list(expected)
    units = spec.declared_metrics()
    for name, entry in record["metrics"].items():
        assert math.isfinite(entry["value"]), name
        assert entry["unit"] == units[name]["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in record["metrics"].values())
    else:
        values = {k: v["value"] for k, v in record["metrics"].items()}
        assert values["core.scheduler.run.calls"] > 0
        assert 0 <= values["bench.unattributed_share"] < 1
    for key in ("cores", "cpu", "python", "numpy", "git_sha", "thread_pins"):
        assert key in record["fingerprint"]
    assert isinstance(record["noisy"], bool)


def test_shard_workers_match_serial_bit_for_bit():
    serial, workers = (
        measure.run_workload(name, seed=11, seconds=1.0, trace=False,
                             scale="smoke")["outcome"]
        for name in ("shard_serial_4x", "shard_workers_4x")
    )
    assert serial == workers


def test_cli_run_prints_the_contract_and_leaves_the_tree_alone(tmp_path):
    def porcelain():
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO_ROOT,
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            pytest.skip("not a git checkout")
        return done.stdout

    before = porcelain()
    out = tmp_path / "run.json"
    trace_out = tmp_path / "trace.json"
    done = _bench(
        "run", "--scale", "smoke", "--seconds", "1", "--workload",
        "shard_workers_4x", "--trace", "--out", str(out),
        "--trace-out", str(trace_out),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert porcelain() == before
    for text in ("op_s (shard_run_s)", "setup_s", "bench.trace_overhead",
                 "attempted", "fingerprint:", "samples"):
        assert text in done.stdout
    (record,) = json.loads(out.read_text())["records"]
    assert set(record["layers"]) == set(spec.PER_LAYER) | {"bench.trace_overhead"}
    events = json.loads(trace_out.read_text())["traceEvents"]
    names = {event["name"] for event in events}
    # The coordinator-side wait is in the timeline, under the root span.
    assert {"bench.op", "shard.executor.run_all"} <= names
    assert all(
        {"ts", "dur", "ph", "args"} <= set(event) and event["dur"] >= 0
        for event in events
    )

    done = _bench("measure", "--scale", "smoke", "--seconds", "1",
                  "--workload", "steady_drift", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == list(spec.END_TO_END)


def _session_members(session):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_measure_leaves_no_process_behind():
    """Workers and the shared-memory resource tracker are gone by the time
    the command exits, not shortly after."""
    child = subprocess.Popen(
        [sys.executable, "-m", "bench", "measure", "--scale", "smoke",
         "--seconds", "1", "--workload", "shard_workers_4x", "--seed", "5",
         "--trace", "0"],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    out, _ = child.communicate(timeout=120)
    assert child.returncode == 0, out.decode()
    assert _session_members(child.pid) == []


def test_measure_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit, no result line."""
    shutil.copytree(os.path.join(REPO_ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "measure", "--workload",
         "steady_drift", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(workload, op_s, samples=(), failed=0):
    return {
        "workload": workload, "attempted": 10, "failed": failed,
        "samples_s": list(samples), "setup_samples_s": [],
        "metrics": {
            name: {"value": op_s if name == "op_s" else 1.0, "unit": "x"}
            for name in spec.END_TO_END
        },
    }


@pytest.mark.parametrize(
    "base, change, better, verdict",
    [
        ([1.00, 1.01, 0.99, 1.00], [1.02, 1.03, 1.01, 1.02], "lower", "same"),
        ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "lower", "worse"),
        ([1.00, 1.01, 0.99, 1.00], [0.70, 0.71, 0.69, 0.70], "lower", "better"),
        ([1.00, 1.01, 0.99, 1.00], [1.30, 1.31, 1.29, 1.30], "higher", "better"),
        ([1.00, 1.01, 0.99, 1.00], [0.70, 0.71, 0.69, 0.70], "higher", "worse"),
        # Spread wider than the bound: overlapping sides cannot be resolved,
        # a side that wins every pairing still can.
        ([1.0, 1.4, 0.7, 1.2], [1.1, 1.5, 0.8, 1.3], "lower", "unresolved"),
        ([1.0, 1.4, 0.7, 1.2], [0.3, 0.5, 0.2, 0.4], "lower", "better"),
        ([1.0, 1.4, 0.7, 1.2], [0.3, 0.5, 0.2, 0.4], "higher", "unresolved"),
    ],
)
def test_compare_classifies_synthetic_records(base, change, better, verdict):
    assert compare.judge(
        base, change, compare.spread(base), compare.spread(change),
        bound=0.10, better=better,
    ) == verdict


def test_compare_exit_status(tmp_path):
    def save(name, records):
        path = tmp_path / name
        path.write_text(json.dumps({"records": records}))
        return str(path)

    base = save("a.json", [_record("steady_drift", 1.0, [1.0, 1.01, 0.99])])
    same = save("b.json", [_record("steady_drift", 1.02, [1.02, 1.03, 1.01])])
    slow = save("c.json", [_record("steady_drift", 1.5, [1.5, 1.51, 1.49])])
    flaky = save("d.json", [_record("steady_drift", 1.0, [1.0, 1.01], failed=2)])
    assert _bench("compare", base, same).returncode == 0
    worse = _bench("compare", base, slow)
    assert worse.returncode != 0 and "worse" in worse.stdout
    assert "1.500" in worse.stdout  # the ratio, printed beside A's median
    assert _bench("compare", base, flaky).returncode != 0
