"""Build a complete campaign from a :class:`CampaignConfig`.

:func:`build_campaign` is the single wiring layer: it constructs the
dataset, the architecture / hyperparameter spaces, the evaluation
function, the (optional) fault injector, the evaluator backend and the
search method — all from one typed config — threads a shared
:class:`~repro.campaign.events.EventBus` through every layer, and returns
a :class:`Campaign` whose :meth:`Campaign.run` executes the search.

Construction is intentionally *identical* to hand-wiring the raw classes
(same defaults, same seed flow), so a campaign built here produces a
bit-identical :class:`~repro.core.results.SearchHistory` to the same seeds
run through the class API directly.

:func:`resume_campaign` rebuilds a campaign from a checkpoint that stores
its own ``CampaignConfig`` (written by ``Campaign.run`` /
``search.checkpoint``), so every knob — including ones added later — is
restored without a pinned key list.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.bo.forest import RandomForestRegressor
from repro.bo.surrogate import KNNSurrogate
from repro.campaign.config import CONFIG_VERSION, CampaignConfig
from repro.campaign.events import (
    CampaignFinished,
    CampaignStarted,
    EventBus,
)
from repro.campaign.registry import (
    EVALUATORS,
    SEARCH_METHODS,
    SURROGATES,
    SearchMethod,
)
from repro.core.age import AgE
from repro.core.agebo import AgEBO
from repro.core.evaluation import ModelEvaluation
from repro.core.results import SearchHistory
from repro.core.variants import AGEBO_VARIANTS, variant_hp_space
from repro.datasets import dataset_names, load_dataset
from repro.searchspace.archspace import ArchitectureSpace
from repro.workflow.cache import EvaluationCache
from repro.workflow.evaluator import (
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)
from repro.workflow.faults import FaultInjector, FaultPolicy

__all__ = ["Campaign", "build_campaign", "resume_campaign"]


# --------------------------------------------------------------------- #
# Built-in registry entries
# --------------------------------------------------------------------- #
def _make_cache(cfg) -> EvaluationCache | None:
    """The evaluator's memoization cache, or None when ``cache="off"``."""
    return EvaluationCache() if cfg.cache == "exact" else None


EVALUATORS.register(
    "simulated",
    lambda run_function, cfg, policy: SimulatedEvaluator(
        run_function,
        num_workers=cfg.num_workers,
        fault_policy=policy,
        cache=_make_cache(cfg),
    ),
)
EVALUATORS.register(
    "threaded",
    lambda run_function, cfg, policy: ThreadedEvaluator(
        run_function,
        num_workers=cfg.num_workers,
        measure_wall_time=cfg.measure_wall_time,
        fault_policy=policy,
        cache=_make_cache(cfg),
    ),
)
EVALUATORS.register(
    "process",
    lambda run_function, cfg, policy: ProcessPoolEvaluator(
        run_function,
        num_workers=cfg.num_workers,
        measure_wall_time=cfg.measure_wall_time,
        fault_policy=policy,
        cache=_make_cache(cfg),
    ),
)

SURROGATES.register("forest", lambda: RandomForestRegressor(n_trees=25, max_depth=10))
SURROGATES.register("knn", lambda: KNNSurrogate())
SURROGATES.register("random", lambda: None)  # handled natively by the optimizer


def _build_age(config: CampaignConfig, space, hp_space, evaluator) -> AgE:
    s = config.search
    return AgE(
        space,
        evaluator,
        hyperparameters={
            "batch_size": s.batch_size,
            "learning_rate": s.learning_rate,
            "num_ranks": s.num_ranks,
        },
        population_size=s.population_size,
        sample_size=s.sample_size,
        seed=s.seed,
        mutate_skips=s.mutate_skips,
        replacement=s.replacement,
        label=f"AgE-{s.num_ranks}",
    )


def _resume_age(path, config, space, hp_space, run_function, evaluator) -> AgE:
    return AgE.resume(path, space, run_function, evaluator=evaluator)


def _build_agebo(config: CampaignConfig, space, hp_space, evaluator) -> AgEBO:
    s = config.search
    return AgEBO(
        space,
        hp_space,
        evaluator,
        population_size=s.population_size,
        sample_size=s.sample_size,
        kappa=s.kappa,
        n_initial_points=s.n_initial_points,
        lie_strategy=s.lie_strategy,
        surrogate=s.surrogate,
        seed=s.seed,
        mutate_skips=s.mutate_skips,
        replacement=s.replacement,
        label=s.method,
    )


def _resume_agebo(path, config, space, hp_space, run_function, evaluator) -> AgEBO:
    return AgEBO.resume(path, space, hp_space, run_function, evaluator=evaluator)


SEARCH_METHODS.register(
    "AgE", SearchMethod("AgE", build=_build_age, resume=_resume_age, uses_bo=False)
)
for _variant in AGEBO_VARIANTS:
    SEARCH_METHODS.register(
        _variant,
        SearchMethod(_variant, build=_build_agebo, resume=_resume_agebo, uses_bo=True),
    )


# --------------------------------------------------------------------- #
@dataclass
class Campaign:
    """Everything :func:`build_campaign` wired together, ready to run."""

    config: CampaignConfig
    dataset: Any
    space: ArchitectureSpace
    hp_space: Any  # HyperparameterSpace for BO methods, None for AgE
    evaluation: ModelEvaluation
    run_function: Callable  # evaluation, possibly wrapped by a FaultInjector
    evaluator: Any
    search: Any
    event_bus: EventBus

    @property
    def fault_injector(self) -> FaultInjector | None:
        return self.run_function if isinstance(self.run_function, FaultInjector) else None

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
def _build_run_function(config: CampaignConfig, dataset, space, event_bus):
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
    f = config.faults
    run_function: Callable = evaluation
    if f.injects:
        run_function = FaultInjector(
            evaluation,
            crash_prob=f.crash_prob,
            hang_prob=f.hang_prob,
            corrupt_prob=f.corrupt_prob,
            hang_factor=f.hang_factor,
            seed=f.fault_seed,
        )
        run_function.event_bus = event_bus
    return evaluation, run_function


def _fault_policy(config: CampaignConfig) -> FaultPolicy:
    f = config.faults
    return FaultPolicy(
        on_error=f.on_error,
        max_retries=f.max_retries,
        retry_backoff=f.retry_backoff,
        timeout=f.timeout,
        failure_objective=f.failure_objective,
        failure_duration=f.failure_duration,
    )


def _validate_names(config: CampaignConfig) -> None:
    if config.dataset not in dataset_names():
        raise ValueError(
            f"unknown dataset {config.dataset!r}; available: {dataset_names()}"
        )
    SEARCH_METHODS.get(config.search.method)  # raises with known names
    EVALUATORS.get(config.evaluator.backend)
    SURROGATES.get(config.search.surrogate)


def build_campaign(
    config: CampaignConfig, event_bus: EventBus | None = None
) -> Campaign:
    """Construct a ready-to-run campaign from a typed config.

    Every component comes from the config (datasets, spaces, evaluation,
    fault handling, evaluator backend, search method); a shared event bus
    is threaded through all of them.  Pass an existing ``event_bus`` to
    attach subscribers before any construction-time events fire.
    """
    _validate_names(config)
    bus = event_bus if event_bus is not None else EventBus()

    dataset = load_dataset(config.dataset, size=config.size)
    space = ArchitectureSpace(num_nodes=config.num_nodes)
    evaluation, run_function = _build_run_function(config, dataset, space, bus)

    evaluator = EVALUATORS.get(config.evaluator.backend)(
        run_function, config.evaluator, _fault_policy(config)
    )
    evaluator.event_bus = bus

    method = SEARCH_METHODS.get(config.search.method)
    hp_space = (
        variant_hp_space(config.search.method, max_ranks=config.search.max_ranks)
        if method.uses_bo
        else None
    )
    search = method.build(config, space, hp_space, evaluator)
    search.event_bus = bus
    # Checkpoints carry the full campaign config; resume_campaign rebuilds
    # everything from it — no pinned argument list anywhere.
    search.checkpoint_metadata = {"campaign": config.to_dict()}

    return Campaign(
        config=config,
        dataset=dataset,
        space=space,
        hp_space=hp_space,
        evaluation=evaluation,
        run_function=run_function,
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
    the campaign is rebuilt.  The restored search continues bit-identically
    to an uninterrupted run.
    """
    from repro.core.serialization import load_checkpoint

    data = load_checkpoint(path)
    extra = data.get("extra", {})
    if "campaign" not in extra:
        if "cli" in extra:
            raise ValueError(
                f"checkpoint {path} was written by the pre-campaign CLI "
                "(pinned argparse keys under extra['cli']); that layout is no "
                "longer supported — re-run the campaign to produce a "
                f"config-version-{CONFIG_VERSION} checkpoint"
            )
        raise ValueError(
            f"checkpoint {path} does not embed a campaign config; "
            "it was not written through the campaign layer"
        )
    config = CampaignConfig.from_dict(extra["campaign"])
    if overrides:
        config = dataclasses.replace(config, **overrides)

    _validate_names(config)
    bus = event_bus if event_bus is not None else EventBus()
    dataset = load_dataset(config.dataset, size=config.size)
    space = ArchitectureSpace(num_nodes=config.num_nodes)
    evaluation, run_function = _build_run_function(config, dataset, space, bus)
    evaluator = EVALUATORS.get(config.evaluator.backend)(
        run_function, config.evaluator, _fault_policy(config)
    )
    evaluator.event_bus = bus

    method = SEARCH_METHODS.get(config.search.method)
    hp_space = (
        variant_hp_space(config.search.method, max_ranks=config.search.max_ranks)
        if method.uses_bo
        else None
    )
    search = method.resume(path, config, space, hp_space, run_function, evaluator)
    search.event_bus = bus
    search.checkpoint_metadata = {"campaign": config.to_dict()}

    return Campaign(
        config=config,
        dataset=dataset,
        space=space,
        hp_space=hp_space,
        evaluation=evaluation,
        run_function=run_function,
        evaluator=evaluator,
        search=search,
        event_bus=bus,
    )
