"""Does a converged epoch cost O(changed)?  Time the same-size drift delta
on the paper-scale population and on a larger canonical population.

Builds the paper's canonical tree (``ExperimentConfig.paper_canonical``:
sparse traffic, RR policy, 20 hosts per rack, 16 VM slots) at its own
128 racks and at ``--scale`` times as many racks, converges each (five
rounds, then rounds until one moves nothing) and times epochs.  An epoch
is what the ``steady_drift`` benchmark workload times: one
``apply_traffic_delta`` then ``run(n_iterations=1)``.  Both populations
drift the *same number* of pairs per epoch — the heaviest 5 % of the
paper-scale pair count, each re-drawing ``original x U[0.7, 1.3]`` — so
an epoch that costs O(changed) costs the same at both sizes.

Prints the median (and quartiles) of each scale's epochs and the ratio
of the medians; ROADMAP item 19 asks for at most 1.5 at ``--scale 4``.

Usage (from the repository root; ~1 min and ~0.6 GB at ``--scale 4``)::

    python tools/epoch_scaling.py [--scale 4] [--epochs 40] [--seed 42]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.sim.experiment import (  # noqa: E402
    ExperimentConfig,
    build_environment,
    make_scheduler,
)

#: Share of the paper-scale pairs (the heaviest) that drift every epoch.
DRIFT_FRACTION = 0.05
PAPER_RACKS = 128


def converged_scheduler(n_racks: int, seed: int):
    """A converged paper-shaped scheduler with ``n_racks`` racks."""
    config = ExperimentConfig.paper_canonical(
        "sparse", n_racks=n_racks, policy="rr", seed=seed
    )
    environment = build_environment(config)
    scheduler = make_scheduler(environment)
    scheduler.run(n_iterations=5)
    scheduler.quiesce()
    return scheduler, environment.traffic


def epoch_seconds(scheduler, traffic, n_pairs: int, epochs: int, seed: int):
    """Seconds of each of ``epochs`` drift epochs over the heaviest
    ``n_pairs`` pairs."""
    us, vs, rates = traffic.pair_arrays()
    hot = np.argsort(-rates, kind="stable")[:n_pairs]
    us, vs, base = us[hot].copy(), vs[hot].copy(), rates[hot].copy()
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(epochs):
        delta = (us, vs, base * rng.uniform(0.7, 1.3, len(base)))
        start = time.perf_counter()
        scheduler.apply_traffic_delta(delta)
        scheduler.run(n_iterations=1)
        out.append(time.perf_counter() - start)
    return np.array(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=4)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    n_pairs = None
    medians = {}
    for scale in (1, args.scale):
        scheduler, traffic = converged_scheduler(PAPER_RACKS * scale, args.seed)
        if n_pairs is None:
            n_pairs = max(1, int(traffic.n_pairs * DRIFT_FRACTION))
        seconds = epoch_seconds(
            scheduler, traffic, n_pairs, args.epochs, args.seed
        )
        q1, median, q3 = np.percentile(seconds, [25, 50, 75])
        medians[scale] = median
        print(
            f"{scale}x: {scheduler.allocation.n_vms} VMs, "
            f"{traffic.n_pairs} pairs, {n_pairs} drifting; epoch median "
            f"{median * 1e3:.2f} ms (IQR {q1 * 1e3:.2f}-{q3 * 1e3:.2f})"
        )
        del scheduler, traffic
    ratio = medians[args.scale] / medians[1]
    print(f"ratio {args.scale}x / 1x: {ratio:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
