"""Seeded traffic producers, pinned to the values they have always made.

The generator and the drift processes write λ in one bulk call each (``TrafficMatrix.from_pairs``,
``from_pair_arrays``, ``apply_delta``).  The pins below were recorded
from the pair-by-pair writers those calls replaced: the same seed must
give the same pair set, the same pair order (Eq. 2 sums and the
jitter draws of ``HotspotDriftProcess`` follow it) and the same drift
deltas, bit for bit.  Digests are over ``repr`` of the python values, so
a change in the last ulp of one rate shows.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.traffic.generator import PATTERNS, DCTrafficGenerator
from repro.traffic.temporal import (
    DiurnalDriftProcess,
    HotspotDriftProcess,
    HotspotFlipDrift,
)

#: pattern -> (pair count, digest of the sorted pair set, digest of the
#: pairs in iteration order).
GENERATED = {
    "dense": (929, "017801244356f48a", "9cca2ae2bc6f6e84"),
    "medium": (724, "901aade24d499227", "a9f7123c8cb946a3"),
    "sparse": (568, "d817de165ca7b9d0", "734258e0ceff1514"),
}


def digest(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


def generated(name: str):
    return DCTrafficGenerator(list(range(3, 303)), PATTERNS[name], seed=42).generate()


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_matrices_keep_their_pairs_and_order(name):
    matrix = generated(name)
    n_pairs, pair_set, in_order = GENERATED[name]
    assert matrix.n_pairs == n_pairs
    assert digest(sorted(matrix.pairs())) == pair_set
    assert digest(matrix.pairs()) == in_order


def test_scaled_matrix_is_pinned():
    assert digest(generated("sparse").scale(10.0).pairs()) == "fea53803b7281bff"


@pytest.mark.parametrize(
    "make, steps, pinned",
    [
        (lambda m: HotspotDriftProcess(m, noise=0.2, redirect_prob=0.5, seed=7),
         6, "42ff33d10e9d35eb"),
        (lambda m: DiurnalDriftProcess(m, amplitude=0.6, period_epochs=6),
         4, "cc24561d8bc81338"),
        (lambda m: HotspotFlipDrift(m, flip_epoch=2, top_pairs=8, seed=7),
         3, "94a34a7a6e5d4d57"),
    ],
    ids=["hotspot", "diurnal", "flip"],
)
def test_drift_deltas_are_pinned(make, steps, pinned):
    process = make(generated("sparse"))
    assert digest(process.step_delta() for _ in range(steps)) == pinned
