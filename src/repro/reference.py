"""Oracles: the slow, readable execution paths production is pinned against.

:class:`~repro.core.scheduler.SCOREScheduler` picks its loop from what it
can observe — wave rounds on the fast engine's round cache whenever the
policy freezes a round order, the per-hold loop otherwise.  The paths it
no longer takes survive here, once each, as subclasses hooked in through
one private method or class attribute:

* :class:`NaiveScheduler` — the per-hold loop on the naive
  :class:`~repro.core.cost.CostModel` (the executable statement of
  Eq. 1–2 and Lemma 3); never builds the fast engine.
* :class:`UncachedScheduler` — wave rounds through the uncached wave
  loop, the twin the round cache is pinned bit-exact against.

Only tests and benchmarks import this module; no production module may
(``tests/test_execution_paths.py`` checks the import graph).
"""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.rounds import BatchedRoundEngine, RoundResult
from repro.core.scheduler import SchedulerReport, SCOREScheduler
from repro.sim.experiment import (
    ExperimentConfig,
    build_environment,
    make_scheduler,
)


class NaiveScheduler(SCOREScheduler):
    """S-CORE on the naive :class:`CostModel`: every hold through the
    per-hold loop, every decision through python per-pair math."""

    def __init__(self, *args, use_sharding: bool = False, **kwargs) -> None:
        if use_sharding:
            raise ValueError(
                "NaiveScheduler cannot shard: sharded domains run on the "
                "fast engine"
            )
        super().__init__(*args, **kwargs)

    def _prepare_engines(self) -> CostModel:
        return self._engine.cost_model


class _UncachedRounds(BatchedRoundEngine):
    def run_round(self, order, injector=None) -> RoundResult:
        return self._run_round_uncached(order, injector)


class UncachedScheduler(SCOREScheduler):
    """S-CORE whose wave rounds always take the uncached wave loop: a
    round-local candidate batch, every pending owner re-masked per wave."""

    _rounds_class = _UncachedRounds


def run_oracle(cls, config: ExperimentConfig) -> SchedulerReport:
    """``run_experiment(config).report``, on oracle scheduler ``cls``.

    The stack is the one :func:`~repro.sim.experiment.make_scheduler`
    wires for ``config``, re-hosted on ``cls``, so an oracle run always
    compares against the configuration production would run.
    """
    wired = make_scheduler(build_environment(config))
    scheduler = cls(
        wired.allocation,
        wired.traffic,
        wired._policy,
        wired._engine,
        token_interval_s=wired.token_interval_s,
        use_sharding=wired._use_sharding,
        n_domains=wired._n_domains,
        n_workers=wired._n_workers,
        shard_policy_factory=wired._shard_policy_factory,
    )
    return scheduler.run(n_iterations=config.n_iterations)
