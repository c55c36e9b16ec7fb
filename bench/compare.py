"""``python -m bench compare A.json B.json``: is run B worse than run A?

One row per (end-to-end metric, workload).  A row is judged against the
bound ``BENCHMARK.json`` declares for the metric:

* ``worse`` / ``better`` — B's median moved past the bound, against or
  with the metric's direction;
* ``same`` — it did not;
* ``unresolved`` — either side's own spread (interquartile distance over
  its median) is wider than the bound, so the bound cannot be resolved —
  unless every B value beats every A value, which is ``better``.

Every ratio is B over A with A's median printed beside it.  Exit status
is non-zero on any ``worse`` row or when B's failed share of operations
is higher than A's.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

from bench import spec
from bench.stats import spread

#: Within-record samples that stand in for a spread when a side holds a
#: single record of the workload (``bench run`` without ``--sets``).
_OWN_SAMPLES = {"op_s": "samples_s", "setup_s": "setup_samples_s"}


def _by_workload(path: str) -> Dict[str, List[Dict[str, Any]]]:
    with open(path) as handle:
        document = json.load(handle)
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for record in document["records"]:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def _values(records: List[Dict[str, Any]], metric: str) -> Tuple[List[float], float]:
    """The metric's value per record, and the side's own spread."""
    values = [record["metrics"][metric]["value"] for record in records]
    if len(values) > 1:
        return values, spread(values)
    own = records[0].get(_OWN_SAMPLES.get(metric, ""), [])
    return values, spread(own)


def judge(
    base: List[float],
    change: List[float],
    base_spread: float,
    change_spread: float,
    bound: float,
    better: str,
) -> str:
    """Classify one row (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    if max(base_spread, change_spread) > bound:
        wins = all(sign * (b - a) < 0 for a in base for b in change)
        return "better" if wins else "unresolved"
    a = statistics.median(base)
    worsening = sign * (statistics.median(change) - a) / abs(a)
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _failed_share(records: List[Dict[str, Any]]) -> float:
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / max(1, attempted)


def main(args) -> int:
    base, change = _by_workload(args.base), _by_workload(args.change)
    end_to_end = spec.declaration()["end_to_end"]
    print(f"{'workload':20s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'A spread':>9s} {'B spread':>9s} {'bound':>6s}  verdict")
    status = 0
    for workload in base:
        if workload not in change:
            print(f"{workload:20s} missing from B")
            status = 1
            continue
        for metric in end_to_end:
            name = metric["name"]
            a, a_spread = _values(base[workload], name)
            b, b_spread = _values(change[workload], name)
            verdict = judge(
                a, b, a_spread, b_spread, metric["bound"], metric["better"]
            )
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            print(
                f"{workload:20s} {name:16s} {a_mid:12.5g} {b_mid:12.5g} "
                f"{b_mid / a_mid:7.3f} {a_spread:9.3f} {b_spread:9.3f} "
                f"{metric['bound']:6.2f}  {verdict}"
            )
            if verdict == "worse":
                status = 1
        a_failed = _failed_share(base[workload])
        b_failed = _failed_share(change[workload])
        if b_failed > a_failed:
            print(f"{workload:20s} failed share rose {a_failed:.4f} -> "
                  f"{b_failed:.4f}")
            status = 1
    return status
