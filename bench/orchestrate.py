"""``python -m bench run``: every workload in its own fresh process.

Workloads run one after another (never side by side: they would fight
for the cores they are timing), each as a ``bench measure`` child.  With
``--trace`` every workload runs a second, traced child; its per-layer
metrics join the record and the wall-clock ratio of the two passes is
reported as ``bench.trace_overhead``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

from bench import fingerprint, spec
from bench.measure import TMP_ROOT

SCHEMA = "repro-bench/run/v1"


def _trace_path(trace_out: Optional[str], workload: str, many: bool):
    """``--trace-out`` as given, or with the workload name spliced in."""
    if not trace_out or not many:
        return trace_out
    stem, extension = os.path.splitext(trace_out)
    return f"{stem}.{workload}{extension}"


def _child(args, workload: str, seed: int, trace: bool,
           trace_out: Optional[str], scratch: str) -> Dict[str, Any]:
    """Run one ``bench measure`` child; echo its report; load its record."""
    record_path = os.path.join(scratch, f"{workload}-{int(trace)}.json")
    command = [
        sys.executable, "-m", "bench", "measure",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--trace", str(int(trace)),
        "--record", record_path,
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(
        command,
        cwd=fingerprint.REPO_ROOT,
        env={**os.environ, **fingerprint.THREAD_PINS},
        stdout=subprocess.PIPE,
        text=True,
    )
    for line in done.stdout.splitlines():
        # The child's fingerprint and result line are for machines; the
        # run prints one fingerprint of its own at the end.
        if not line.startswith(("{", "fingerprint:")):
            print(line)
    if not os.path.exists(record_path):
        raise SystemExit(
            f"workload {workload!r} died without a record "
            f"(exit code {done.returncode})"
        )
    with open(record_path) as handle:
        return json.load(handle)


def _add_failures(record: Dict[str, Any], messages: List[str]) -> None:
    """Fold further failed gates into a record's operation counts."""
    record["failures"] += messages
    record["failed"] = min(len(record["failures"]), record["attempted"])
    record["correct"] = not record["failures"]


def _cross_check_shards(records: List[Dict[str, Any]]) -> None:
    """Workers must land bit-for-bit where the serial executor did."""
    serial_by_seed = {
        r["seed"]: r for r in records if r["workload"] == "shard_serial_4x"
    }
    for record in records:
        serial = serial_by_seed.get(record["seed"])
        if record["workload"] != "shard_workers_4x" or serial is None:
            continue
        if record["outcome"] != serial["outcome"]:
            message = (
                f"workers outcome {record['outcome']} differs from "
                f"serial {serial['outcome']} on seed {record['seed']}"
            )
            print(f"[shard_workers_4x] FAILED: {message}")
            _add_failures(record, [message])


def main(args) -> int:
    declared = [w["name"] for w in spec.declaration()["workloads"]]
    chosen = args.workload or declared
    unknown = sorted(set(chosen) - set(declared))
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; declared: {declared}")
    records: List[Dict[str, Any]] = []
    os.makedirs(TMP_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="records-", dir=TMP_ROOT) as scratch:
        for seed in range(args.seed, args.seed + args.sets):
            for workload in chosen:
                record = _child(args, workload, seed, False, None, scratch)
                if args.trace:
                    traced = _child(
                        args, workload, seed, True,
                        _trace_path(args.trace_out, workload, len(chosen) > 1),
                        scratch,
                    )
                    overhead = (
                        traced["timed_wall_s"] / record["timed_wall_s"] - 1.0
                    )
                    print(f"  {'bench.trace_overhead':44s} {overhead:14.6g} "
                          "fraction")
                    record["layers"] = traced["metrics"]
                    record["layers"]["bench.trace_overhead"] = {
                        "value": overhead, "unit": "fraction",
                    }
                    _add_failures(record, traced["failures"])
                records.append(record)
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass
    _cross_check_shards(records)
    print("fingerprint: " + json.dumps(records[0]["fingerprint"], sort_keys=True))
    noisy = sorted({r["workload"] for r in records if r["noisy"]})
    if noisy:
        print(f"noisy (load average above the core count): {noisy}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": SCHEMA, "records": records}, handle, indent=1)
    failed = [r["workload"] for r in records if not r["correct"]]
    if failed:
        print(f"FAILED correctness gates: {failed}")
    return 1 if failed else 0
