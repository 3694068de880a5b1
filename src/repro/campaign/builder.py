"""Build a complete campaign from a :class:`CampaignConfig`.

:func:`build_campaign` is the single wiring layer: it constructs the
dataset, the architecture space, the evaluation function, the evaluator
backend with its fault policy and the search method (AgE or an AgEBO
variant, through :mod:`repro.core.variants`) — all from one typed config
— threads a shared :class:`~repro.campaign.events.EventBus` through every
layer, and returns a :class:`Campaign` whose :meth:`Campaign.run`
executes the search.

Construction is intentionally *identical* to hand-wiring the raw classes
(same defaults, same seed flow), so a campaign built here produces a
bit-identical :class:`~repro.core.results.SearchHistory` to the same seeds
run through the class API directly.

:func:`resume_campaign` is the one resume path: it builds the campaign
from the ``CampaignConfig`` a checkpoint embeds (written by
``Campaign.run`` / ``search.checkpoint``) and loads the search state into
it, so every knob — including ones added later — is restored without a
pinned key list.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.campaign.config import CampaignConfig, EvaluatorConfig
from repro.campaign.events import (
    CampaignFinished,
    CampaignStarted,
    EventBus,
)
from repro.core.evaluation import ModelEvaluation
from repro.core.results import SearchHistory
from repro.core.variants import make_age_variant, make_agebo_variant
from repro.datasets import dataset_names, load_dataset
from repro.searchspace.archspace import ArchitectureSpace
from repro.workflow.cache import EvaluationCache
from repro.workflow.evaluator import (
    Evaluator,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)
from repro.workflow.faults import FaultPolicy

__all__ = ["Campaign", "build_campaign", "resume_campaign"]


# --------------------------------------------------------------------- #
@dataclass
class Campaign:
    """Everything :func:`build_campaign` wired together, ready to run."""

    config: CampaignConfig
    dataset: Any
    space: ArchitectureSpace
    evaluation: ModelEvaluation
    evaluator: Evaluator
    search: Any
    event_bus: EventBus

    @property
    def hp_space(self):
        """The search's HyperparameterSpace for AgEBO variants, None for AgE."""
        return getattr(self.search, "hp_space", None)

    def subscribe(self, callback, event_type=None):
        """Shorthand for ``campaign.event_bus.subscribe``."""
        return self.event_bus.subscribe(callback, event_type)

    def run(
        self,
        max_evaluations: int | None = None,
        wall_time_minutes: float | None = None,
    ) -> SearchHistory:
        """Run the campaign to its configured budgets (overridable here)."""
        cfg = self.config
        if max_evaluations is None and wall_time_minutes is None:
            max_evaluations = cfg.max_evaluations
            wall_time_minutes = cfg.wall_time_minutes
        self.event_bus.emit(
            CampaignStarted(
                method=cfg.search.method,
                dataset=cfg.dataset,
                num_workers=cfg.evaluator.num_workers,
                max_evaluations=max_evaluations,
                wall_time_minutes=wall_time_minutes,
            )
        )
        history = self.search.search(
            max_evaluations=max_evaluations,
            wall_time_minutes=wall_time_minutes,
            checkpoint_path=cfg.checkpoint.path,
            checkpoint_every=cfg.checkpoint.every,
        )
        best = history.best().objective if len(history) else float("-inf")
        self.event_bus.emit(
            CampaignFinished(
                num_evaluations=len(history),
                best_objective=best,
                elapsed_minutes=self.evaluator.now,
            )
        )
        return history


# --------------------------------------------------------------------- #
def _build_evaluation(config: CampaignConfig, dataset, space, event_bus) -> ModelEvaluation:
    t = config.training
    evaluation = ModelEvaluation(
        dataset,
        space,
        epochs=t.epochs,
        nominal_epochs=t.nominal_epochs,
        warmup_epochs=t.warmup_epochs,
        plateau_patience=t.plateau_patience,
        objective=t.objective,
        base_seed=t.base_seed,
        apply_linear_scaling=t.apply_linear_scaling,
        dtype=t.dtype,
    )
    evaluation.event_bus = event_bus
    return evaluation


def _make_evaluator(
    config: EvaluatorConfig, run_function: ModelEvaluation, policy: FaultPolicy
) -> Evaluator:
    """The evaluator backend ``config.backend`` names."""
    kwargs = dict(
        num_workers=config.num_workers,
        fault_policy=policy,
        cache=EvaluationCache() if config.cache == "exact" else None,
    )
    cls = {
        "simulated": SimulatedEvaluator,
        "threaded": ThreadedEvaluator,
        "process": ProcessPoolEvaluator,
    }[config.backend]
    return cls(run_function, **kwargs)


def _make_search(config: CampaignConfig, space: ArchitectureSpace, evaluator: Evaluator):
    """AgE with the config's statics, or the AgEBO variant it names."""
    s = config.search
    common = dict(
        population_size=s.population_size,
        sample_size=s.sample_size,
        seed=s.seed,
        mutate_skips=s.mutate_skips,
        replacement=s.replacement,
    )
    if s.method == "AgE":
        return make_age_variant(
            space,
            evaluator,
            num_ranks=s.num_ranks,
            batch_size=s.batch_size,
            learning_rate=s.learning_rate,
            **common,
        )
    return make_agebo_variant(
        s.method,
        space,
        evaluator,
        max_ranks=s.max_ranks,
        kappa=s.kappa,
        n_initial_points=s.n_initial_points,
        lie_strategy=s.lie_strategy,
        surrogate=s.surrogate,
        **common,
    )


def build_campaign(
    config: CampaignConfig, event_bus: EventBus | None = None
) -> Campaign:
    """Construct a ready-to-run campaign from a typed config.

    Every component comes from the config (datasets, spaces, evaluation,
    fault handling, evaluator backend, search method); a shared event bus
    is threaded through all of them.  Pass an existing ``event_bus`` to
    attach subscribers before any construction-time events fire.  The
    config checked its own method, backend and surrogate names when it
    was defined; only the dataset name is checked here.
    """
    if config.dataset not in dataset_names():
        raise ValueError(
            f"unknown dataset {config.dataset!r}; available: {dataset_names()}"
        )
    bus = event_bus if event_bus is not None else EventBus()

    dataset = load_dataset(config.dataset, size=config.size)
    space = ArchitectureSpace(num_nodes=config.num_nodes)
    evaluation = _build_evaluation(config, dataset, space, bus)

    evaluator = _make_evaluator(config.evaluator, evaluation, config.faults.policy())
    evaluator.event_bus = bus

    search = _make_search(config, space, evaluator)
    search.event_bus = bus
    # Checkpoints carry the full campaign config; resume_campaign rebuilds
    # everything from it — no pinned argument list anywhere.
    search.checkpoint_metadata = {"campaign": config.to_dict()}

    return Campaign(
        config=config,
        dataset=dataset,
        space=space,
        evaluation=evaluation,
        evaluator=evaluator,
        search=search,
        event_bus=bus,
    )


def resume_campaign(
    path: str | Path,
    event_bus: EventBus | None = None,
    **overrides: Any,
) -> Campaign:
    """Rebuild a campaign from a checkpoint written by a campaign run.

    The checkpoint's embedded :class:`CampaignConfig` supplies every knob;
    ``overrides`` replace top-level config fields (typically the budgets —
    ``max_evaluations``, ``wall_time_minutes`` — or ``checkpoint``) before
    :func:`build_campaign` constructs the campaign, whose search then loads
    the checkpointed state.  The restored search continues bit-identically
    to an uninterrupted run.
    """
    from repro.core.serialization import load_checkpoint

    data = load_checkpoint(path)
    extra = data.get("extra", {})
    if "campaign" not in extra:
        raise ValueError(
            f"checkpoint {path} does not embed a campaign config; "
            "it was not written through the campaign layer"
        )
    config = CampaignConfig.from_dict(extra["campaign"])
    if overrides:
        config = dataclasses.replace(config, **overrides)
    campaign = build_campaign(config, event_bus)
    campaign.search.load_state(data["search"])
    return campaign
