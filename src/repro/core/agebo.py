"""AgEBO: aging evolution + asynchronous Bayesian optimization (Algorithm 1).

The architecture ``h_a`` evolves exactly as in :class:`~repro.core.age.AgE`;
the data-parallel hyperparameters ``h_m`` of every submitted child come
from the BO optimizer's constant-liar ``ask``, after ``tell``-ing it the
finished evaluations' validation accuracies (the blue lines of Algorithm 1,
marginalizing the architecture variables).
"""

from __future__ import annotations

from typing import Any

from repro.bo.optimizer import BayesianOptimizer
from repro.core.results import EvaluationRecord
from repro.core.search import AgingEvolutionBase
from repro.searchspace.archspace import ArchitectureSpace
from repro.searchspace.hpspace import HyperparameterSpace
from repro.workflow.evaluator import Evaluator

__all__ = ["AgEBO"]


class AgEBO(AgingEvolutionBase):
    """Joint NAS + HPS search.

    Parameters
    ----------
    hp_space:
        The (possibly restricted) data-parallel hyperparameter space; fixed
        dimensions ride along as defaults (AgEBO-8-LR etc.).
    kappa:
        UCB exploration weight (paper default 0.001 — strong exploitation).
    lie_strategy:
        Constant-liar dummy value (paper: mean of observed accuracies).
    """

    def __init__(
        self,
        space: ArchitectureSpace,
        hp_space: HyperparameterSpace,
        evaluator: Evaluator,
        population_size: int = 100,
        sample_size: int = 10,
        kappa: float = 0.001,
        n_initial_points: int = 10,
        lie_strategy: str = "mean",
        seed: int = 0,
        mutate_skips: bool = True,
        replacement: str = "aging",
        surrogate: str = "forest",
        warm_start=None,
        label: str = "",
    ) -> None:
        super().__init__(
            space,
            evaluator,
            population_size=population_size,
            sample_size=sample_size,
            seed=seed,
            mutate_skips=mutate_skips,
            replacement=replacement,
            label=label or "AgEBO",
        )
        self.hp_space = hp_space
        self.optimizer = BayesianOptimizer(
            hp_space,
            kappa=kappa,
            n_initial_points=n_initial_points,
            lie_strategy=lie_strategy,
            surrogate=surrogate,
            seed=int(self.rng.integers(2**31)),
        )
        # Transfer learning (paper future work): warm-start the surrogate
        # with (h_m, rank-normalized objective) pairs from a prior search.
        if warm_start:
            from repro.core.transfer import warm_start_optimizer

            self.warm_started = warm_start_optimizer(self.optimizer, warm_start)
        else:
            self.warm_started = 0

    def _initial_hyperparameters(self, k: int) -> list[dict[str, Any]]:
        # Random initialization phase: sample H_m directly.
        return [self.hp_space.sample(self.rng) for _ in range(k)]

    def _next_hyperparameters(self, results: list[EvaluationRecord]) -> list[dict[str, Any]]:
        # optimizer.tell(results.h_m, results.valid_accuracy); ask(|results|).
        self.optimizer.tell(
            [r.config.hyperparameters for r in results],
            [r.objective for r in results],
        )
        batch = self.optimizer.ask(len(results))
        if self.event_bus is not None:
            from repro.campaign.events import BOTellAsk

            self.event_bus.emit(
                BOTellAsk(
                    num_told=len(results),
                    num_asked=len(batch),
                    num_observations=self.optimizer.num_observations,
                    time=self.evaluator.now,
                )
            )
        return batch

    # ------------------------------------------------------------------ #
    # Checkpoint / resume
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, Any]:
        state = super().state_dict()
        state["optimizer"] = self.optimizer.state_dict()
        return state

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore the search, then re-``tell`` the optimizer every record
        whose replacements were submitted (after any warm-start rows)."""
        super().load_state(state)
        told = self.history.records[: len(self.history) - len(self._pending_results)]
        self.optimizer.tell(
            [r.config.hyperparameters for r in told], [r.objective for r in told]
        )
        self.optimizer.load_state(state["optimizer"])
