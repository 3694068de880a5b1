"""The benchmark's seeded campaign workloads.

Each workload is one :class:`~repro.campaign.CampaignConfig` shape; the
benchmark seed becomes ``SearchConfig.seed`` (one derived seed per campaign
when a run measures several campaigns).  The "why" of each workload is the
layer it loads and the layer it leaves idle, so a change to one layer has
a workload that shows it and one that should not move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["WORKLOADS", "Workload", "campaign_seeds"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``make_config(seed, workdir)``; ``workdir`` is where a durable
    #: workload writes its checkpoint (None: set-up timing, no writes).
    make_config: Callable
    #: Nominal wall seconds of one campaign on a 2-core x86 host; turns
    #: ``--seconds`` into a fixed campaign count, so the work a run does
    #: depends only on its arguments, never on how fast the host is.
    campaign_seconds: float
    durable: bool = False  # checkpoint every iteration + JSONL event log


def _age_train(seed: int, workdir: str | None):
    from repro.campaign import CampaignConfig, EvaluatorConfig, SearchConfig, TrainingConfig

    return CampaignConfig(
        dataset="covertype",
        size=2000,
        num_nodes=5,
        max_evaluations=60,
        search=SearchConfig(method="AgE", seed=seed, batch_size=256, learning_rate=0.01),
        training=TrainingConfig(epochs=4, nominal_epochs=20),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=8, cache="off"),
    )


def _agebo_ask(seed: int, workdir: str | None):
    from repro.campaign import (
        CampaignConfig,
        CheckpointConfig,
        EvaluatorConfig,
        SearchConfig,
        TrainingConfig,
    )

    return CampaignConfig(
        dataset="airlines",
        size=600,
        num_nodes=3,
        max_evaluations=80,
        search=SearchConfig(
            method="AgEBO",
            seed=seed,
            population_size=20,
            sample_size=5,
            kappa=0.001,
            surrogate="forest",
        ),
        training=TrainingConfig(epochs=1, nominal_epochs=20, warmup_epochs=0),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=8, cache="exact"),
        checkpoint=CheckpointConfig(
            path=None if workdir is None else f"{workdir}/campaign.ckpt", every=1
        ),
    )


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "age_train",
            "AgE on covertype: training (dataparallel + nn) is ~98% of wall-clock "
            "and bo does no work, so training changes show and BO changes must not",
            _age_train,
            campaign_seconds=7.5,
        ),
        Workload(
            "agebo_ask",
            "AgEBO on small airlines: bo.ask (forest fit) dominates, with per-iteration "
            "checkpoints and a JSONL log, so manager and durability changes show",
            _agebo_ask,
            campaign_seconds=9.0,
            durable=True,
        ),
    ]
}


def campaign_seeds(seed: int, count: int) -> list[int]:
    """The ``SearchConfig.seed`` of each campaign a run measures (count <= 16)."""
    return [seed * 16 + i for i in range(count)]
