"""Which function bodies in ``src/repro`` does no entry point reach?

Runs every user-facing entry point under a profile hook and diffs the
function bodies that were never entered against
``tools/reachability_allowlist.txt``.  The entry points are: the six
CLI subcommands (single-domain, sharded, ``--workers 2`` and fat-tree
plus GA runs), the scenario catalogue at toy scale plus a profiled and
validated run, one durable run and its resume, ``serve`` (fresh,
``--resume``, ``--source scenario:flash-crowd``, ``--source jsonl:-
--print-plans`` and a surge burst past ``--queue-soft-limit 1``), every
``examples/*.py``, every ``BENCHMARK.json`` workload at smoke scale
(untraced and traced) and ``pytest benchmarks -m 'not slow'``.

Usage (from the repository root)::

    python tools/reachability.py

Each allow-list line names one function body (module plus qualified
name) and gives a reason that starts with one of :data:`REASONS`.
Exits 1 when an unreached function body has no line, when a line names
a body that was reached or does not exist, or when a line gives no
reason.

How the trace is taken: a ``sitecustomize.py`` written to a temporary
directory on ``PYTHONPATH`` installs ``sys.setprofile`` (and
``threading.setprofile``) in every child interpreter and, at exit,
writes the code objects entered under ``src/repro``.  Three things it
has to get right:

* Code objects are kept by reference in a set.  Keying them by
  ``id()`` loses functions: a module's code objects are freed after
  import and their ids are reused.
* pytest-benchmark pauses profiling inside timed bodies, so the
  benchmark suite runs with ``--benchmark-disable``.
* Forked shard workers leave through ``os._exit`` and record nothing;
  the code they run is also run in-process by the serial executor.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
ALLOWLIST = os.path.join(REPO, "tools", "reachability_allowlist.txt")

#: The reasons an unreached function body may stay in ``src/``.
#: ``interface`` is an abstract declaration, a dunder or a read-only
#: accessor of a public type.  ``per-hold protocol`` is the emulated
#: §V-B testbed (dom0s, flow tables, token messages, the lossy network)
#: and the placement manager's dom0 / VM addressing it runs on; the
#: token and the policies speak round orders only and carry no such
#: line.  ``deferred`` is not a reason but a debt: public API that no
#: CLI command, example or benchmark exercises and that is still to be
#: given an entry point or deleted.
REASONS = (
    "oracle",
    "fault injection",
    "forked worker",
    "error path",
    "bench-pinned",
    "per-hold protocol",
    "item 11",
    "interface",
    "deferred",
)

HOOK = '''\
import atexit, json, os, sys, threading

_root = os.environ["REPRO_REACH_ROOT"]
_seen = set()


def _hook(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted(
        {(c.co_filename, c.co_firstlineno, c.co_qualname)
         for c in _seen if c.co_filename.startswith(_root)}
    )
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as handle:
        json.dump(rows, handle)


atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

Key = Tuple[str, int, str]  # (path under src/, first line, qualname)


def function_bodies() -> Dict[Key, str]:
    """Every function body under ``src/repro``: key -> dotted name.

    Comprehensions, lambdas and generator expressions are part of the
    body that holds them and are not counted on their own.
    """
    bodies: Dict[Key, str] = {}
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, SRC)
        module = rel[:-3].replace(os.sep, ".").removesuffix(".__init__")
        with open(path) as handle:
            code = compile(handle.read(), path, "exec")
        for sub in _nested(code):
            if sub.co_flags & inspect.CO_OPTIMIZED and not sub.co_name.startswith("<"):
                key = (rel, sub.co_firstlineno, sub.co_qualname)
                bodies[key] = f"{module}.{sub.co_qualname}"
    return bodies


def _nested(code) -> Iterator:
    for const in code.co_consts:
        if inspect.iscode(const):
            yield const
            yield from _nested(const)


def entry_points(scratch: str) -> List[Tuple[List[str], str]]:
    """(argv after the interpreter, stdin text) per entry-point run."""
    cli = [["-m", "repro", *args] for args in (
        ["run", "--iterations", "1"],
        ["run", "--policy", "hlf", "--iterations", "1"],
        ["run", "--shards", "4", "--iterations", "1"],
        ["run", "--shards", "2", "--workers", "2", "--iterations", "1"],
        ["run", "--policy", "random", "--shards", "2", "--iterations", "1"],
        ["run", "--topology", "fattree", "--placement", "packed", "--ga",
         "--ga-population", "20", "--iterations", "1"],
        ["compare-policies"],
        ["migration-profile"],
        ["info"],
    )]
    from repro.scenarios import scenario_names

    scenarios = [
        ["-m", "repro", "scenario", name, "--scale", "toy", "--epochs", "2"]
        for name in scenario_names()
    ] + [["-m", "repro", "scenario", "flash-crowd", "--scale", "toy",
          "--epochs", "2", "--profile", "--validate"]]
    ckpt = os.path.join(scratch, "ckpt")
    durable = [
        ["-m", "repro", "scenario", "flash-crowd-mid-round", "--scale", "toy",
         "--epochs", "2", "--checkpoint-dir", ckpt],
        ["-m", "repro", "scenario", "--recover-from", ckpt],
    ]
    state = os.path.join(scratch, "serve")
    serve = [
        ["-m", "repro", "serve", "--scale", "toy", "--state-dir", state,
         "--rounds", "3"],
        ["-m", "repro", "serve", "--resume", "--state-dir", state,
         "--rounds", "5"],
        ["-m", "repro", "serve", "--scale", "toy", "--state-dir",
         os.path.join(scratch, "scripted"), "--source", "scenario:flash-crowd",
         "--rounds", "3"],
    ]
    stream = "\n".join((
        '{"at_round": 0, "kind": "arrival", "count": 2, "rate": 400}',
        '{"at_round": 0, "kind": "retirement", "vm_ids": [3, 3]}',
        '{"at_round": 1, "kind": "traffic_surge", "factor": 1.5}',
        '{"at_round": 1, "kind": "capacity_change", "hosts": [0], "max_vms": 8}',
        '{"at_round": 2, "kind": "retirement", "count": 1}',
    )) + "\n"
    jsonl = ["-m", "repro", "serve", "--scale", "toy", "--state-dir",
             os.path.join(scratch, "jsonl"), "--source", "jsonl:-",
             "--rounds", "3", "--print-plans"]
    # Past the soft limit a rate-only event merges into a pending one.
    burst_stream = "\n".join((
        '{"at_round": 0, "kind": "traffic_surge", "factor": 1.5}',
        '{"at_round": 0, "kind": "traffic_surge", "factor": 1.2}',
    )) + "\n"
    burst = ["-m", "repro", "serve", "--scale", "toy", "--state-dir",
             os.path.join(scratch, "burst"), "--source", "jsonl:-",
             "--rounds", "2", "--queue-soft-limit", "1"]
    examples = [[path] for path in sorted(glob.glob(
        os.path.join(REPO, "examples", "*.py")))]
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    bench = [
        ["-m", "bench", "measure", "--scale", "smoke", "--seconds", "1",
         "--workload", name, "--trace", trace]
        for name in workloads
        for trace in ("0", "1")
    ]
    suite = [["-m", "pytest", "benchmarks", "-m", "not slow", "-q",
              "--benchmark-disable", "-p", "no:cacheprovider"]]
    runs = [(argv, "") for argv in
            cli + scenarios + durable + serve + examples + bench + suite]
    runs.append((jsonl, stream))
    runs.append((burst, burst_stream))
    return runs


def run_entry_points(out: str) -> None:
    with tempfile.TemporaryDirectory() as hook_dir, \
            tempfile.TemporaryDirectory() as scratch:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((hook_dir, SRC)),
            REPRO_REACH_ROOT=os.path.join(SRC, "repro") + os.sep,
            REPRO_REACH_OUT=out,
        )
        for argv, stdin in entry_points(scratch):
            print("reach:", " ".join(argv), flush=True)
            done = subprocess.run(
                [sys.executable, *argv], cwd=REPO, env=env, input=stdin,
                text=True, stdout=subprocess.DEVNULL,
            )
            if done.returncode != 0:
                sys.exit(f"entry point failed ({done.returncode}): {argv}")


def reached(out: str) -> Set[Key]:
    keys: Set[Key] = set()
    for path in glob.glob(os.path.join(out, "*.json")):
        with open(path) as handle:
            for filename, line, qualname in json.load(handle):
                keys.add((os.path.relpath(filename, SRC), line, qualname))
    return keys


def read_allowlist() -> Tuple[List[str], List[str]]:
    """(named bodies, malformed lines) of the allow-list."""
    names, malformed = [], []
    with open(ALLOWLIST) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            reason = reason.strip()
            if not any(reason.startswith(tag + ":") for tag in REASONS):
                malformed.append(line)
            names.append(name)
    return names, malformed


def main() -> int:
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as out:
        run_entry_points(out)
        seen = reached(out)

    bodies = function_bodies()
    unreached = {name for key, name in bodies.items() if key not in seen}
    listed, malformed = read_allowlist()
    uncovered = sorted(unreached.difference(listed))
    stale = [name for name in listed if name not in unreached]
    print(f"{len(bodies)} function bodies, {len(bodies) - len(unreached)} "
          f"reached, {len(unreached)} unreached "
          f"({len(unreached) - len(uncovered)} allow-listed)")
    for line in malformed:
        print(f"error: allow-list line without a reason: {line!r}")
    for name in stale:
        print(f"error: allow-listed but reached or gone: {name}")
    for name in uncovered:
        print(f"error: unreached and not allow-listed: {name}")
    return 1 if uncovered or stale or malformed else 0


if __name__ == "__main__":
    sys.exit(main())
