"""AgE: aging evolution with *static* data-parallel training (the baseline).

Every candidate trains with a fixed (batch size, learning rate, number of
ranks); scaling across ranks follows the linear scaling rule applied inside
the data-parallel trainer.  ``AgE-n`` in the paper is this class with
``num_ranks = n``.
"""

from __future__ import annotations

from typing import Any

from repro.core.results import EvaluationRecord
from repro.core.search import AgingEvolutionBase
from repro.searchspace.archspace import ArchitectureSpace
from repro.workflow.evaluator import Evaluator

__all__ = ["AgE"]


class AgE(AgingEvolutionBase):
    """Aging evolution over ``H_a`` with fixed ``h_m``.

    Parameters
    ----------
    hyperparameters:
        The static data-parallel configuration; the paper's defaults are
        ``batch_size=256, learning_rate=0.01`` with ``num_ranks = n``.
    """

    def __init__(
        self,
        space: ArchitectureSpace,
        evaluator: Evaluator,
        hyperparameters: dict[str, Any] | None = None,
        population_size: int = 100,
        sample_size: int = 10,
        num_workers: int | None = None,
        seed: int = 0,
        mutate_skips: bool = True,
        replacement: str = "aging",
        label: str = "",
    ) -> None:
        hp = {"batch_size": 256, "learning_rate": 0.01, "num_ranks": 1}
        hp.update(hyperparameters or {})
        self.hyperparameters = hp
        super().__init__(
            space,
            evaluator,
            population_size=population_size,
            sample_size=sample_size,
            num_workers=num_workers,
            seed=seed,
            mutate_skips=mutate_skips,
            replacement=replacement,
            label=label or f"AgE-{hp['num_ranks']}",
        )

    def _initial_hyperparameters(self, k: int) -> list[dict[str, Any]]:
        return [dict(self.hyperparameters) for _ in range(k)]

    def _next_hyperparameters(self, results: list[EvaluationRecord]) -> list[dict[str, Any]]:
        return [dict(self.hyperparameters) for _ in results]
