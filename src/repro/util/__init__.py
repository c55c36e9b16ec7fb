"""Utility helpers shared across the S-CORE reproduction.

The submodules are intentionally tiny and dependency-free:

``rng``
    Deterministic random-number helpers.  Every stochastic component in the
    library (traffic generation, placement, GA, migration models) accepts an
    explicit seed and derives independent streams through :func:`spawn_rng`.
``stats``
    Sample statistics (the Gini coefficient of traffic sparsity).
``validation``
    Argument-checking helpers that raise consistent, descriptive errors.
"""

from repro.util.rng import make_rng, spawn_rng
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "make_rng",
    "spawn_rng",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
