"""``python -m bench``: run / measure / compare.

The thread-pool pins and the ``src/`` path are set here, before the
first numpy or ``repro`` import, because the benchmark driver invokes
``measure`` directly with no environment of its own.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from bench.fingerprint import REPO_ROOT, THREAD_PINS  # noqa: E402

#: ``--seconds`` default of ``bench run``: about the repeat counts the
#: workloads were designed with (7 sparse runs, ~120 drift epochs, ...).
DEFAULT_SECONDS = 16.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub, seconds_default):
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--seconds", type=float, default=seconds_default,
                         help="nominal measuring time per workload; fixes "
                              "the operation counts")
        sub.add_argument("--scale", choices=("full", "smoke"), default="full")
        sub.add_argument("--trace-out", metavar="FILE",
                         help="write the traced pass's spans as Chrome "
                              "trace-event JSON")

    run = commands.add_parser("run", help="measure workloads, one fresh "
                                          "process each")
    common(run, DEFAULT_SECONDS)
    run.add_argument("--workload", action="append", metavar="NAME",
                     help="only this workload (repeatable; default all)")
    run.add_argument("--trace", action="store_true",
                     help="add a traced pass: per-layer metrics and the "
                          "tracing overhead")
    run.add_argument("--sets", type=int, default=1,
                     help="measure everything this many times, on seeds "
                          "seed, seed+1, ... (gives compare a spread)")
    run.add_argument("--out", metavar="FILE", help="save every record as JSON")

    measure = commands.add_parser("measure", help="one workload in this "
                                                  "process")
    common(measure, DEFAULT_SECONDS)
    measure.add_argument("--workload", required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--record", metavar="FILE",
                         help="save the full record as JSON")

    compare = commands.add_parser("compare", help="judge run B against "
                                                  "run A (the base)")
    compare.add_argument("base", metavar="A.json")
    compare.add_argument("change", metavar="B.json")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from bench import compare

        return compare.main(args)
    os.environ.update(THREAD_PINS)
    source = os.path.join(REPO_ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)
    if args.command == "measure":
        from bench import measure

        args.process_started = _PROCESS_STARTED
        return measure.main(args)
    from bench import orchestrate

    return orchestrate.main(args)


if __name__ == "__main__":
    sys.exit(main())
