"""The typed campaign configuration tree.

One :class:`CampaignConfig` is the complete, serializable specification of
a search campaign — the single source every knob flows from: the benchmark
and its size, the search method and its evolution/BO parameters
(:class:`SearchConfig`), the training recipe (:class:`TrainingConfig`),
the evaluator backend (:class:`EvaluatorConfig`), failure handling and
fault injection (:class:`FaultConfig`) and checkpointing
(:class:`CheckpointConfig`).

``to_dict`` / ``from_dict`` round-trip losslessly (JSON-safe, versioned,
unknown keys rejected), and checkpoints store the config itself, so
``--resume`` restores *every* knob — including ones added after the
checkpointing code was written — without a pinned key list.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields
from typing import Any

from repro.bo.liar import LIE_STRATEGIES
from repro.bo.optimizer import SURROGATES
from repro.core.variants import AGEBO_VARIANTS
from repro.workflow.cache import CACHE_MODES
from repro.workflow.evaluator import EVALUATOR_BACKENDS
from repro.workflow.faults import FaultPolicy

__all__ = [
    "CONFIG_VERSION",
    "SearchConfig",
    "TrainingConfig",
    "EvaluatorConfig",
    "FaultConfig",
    "CheckpointConfig",
    "CampaignConfig",
]

#: Version of the serialized config layout.  Bump on incompatible changes;
#: ``from_dict`` refuses other versions with a clear error.
CONFIG_VERSION = 1


def _from_dict(cls, data: Any, context: str):
    """Build a config dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected a mapping, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"{context}: unknown keys {unknown}; known keys are {sorted(known)}")
    return cls(**data)


def _check_name(kind: str, name: str, known: tuple[str, ...]) -> None:
    if name not in known:
        raise ValueError(f"unknown {kind} {name!r}; known: {list(known)}")


@dataclass(frozen=True)
class SearchConfig:
    """The search method and its evolution / BO parameters.

    ``method`` is ``"AgE"`` or one of the AgEBO variants
    (:data:`repro.core.variants.AGEBO_VARIANTS`).  The ``num_ranks`` /
    ``batch_size`` / ``learning_rate`` statics apply to AgE only; the BO
    fields (``kappa`` …) apply to the AgEBO variants only, whose
    ``surrogate`` is one of :data:`repro.bo.SURROGATES`.
    """

    method: str = "AgEBO"
    population_size: int = 100
    sample_size: int = 10
    seed: int = 0
    mutate_skips: bool = True
    replacement: str = "aging"
    # AgE statics
    num_ranks: int = 1
    batch_size: int = 256
    learning_rate: float = 0.01
    # AgEBO / BO parameters
    kappa: float = 0.001
    max_ranks: int = 8
    n_initial_points: int = 10
    lie_strategy: str = "mean"
    surrogate: str = "forest"

    def __post_init__(self) -> None:
        _check_name("search method", self.method, ("AgE",) + AGEBO_VARIANTS)
        _check_name("search.surrogate", self.surrogate, SURROGATES)
        _check_name("search.lie_strategy", self.lie_strategy, LIE_STRATEGIES)
        if self.population_size < 2:
            raise ValueError("search.population_size must be >= 2")
        if not 1 <= self.sample_size <= self.population_size:
            raise ValueError("search.sample_size must be in [1, population_size]")
        _check_name("search.replacement", self.replacement, ("aging", "elitist"))
        if self.num_ranks < 1:
            raise ValueError("search.num_ranks must be >= 1")
        if self.batch_size < 1:
            raise ValueError("search.batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("search.learning_rate must be > 0")
        if self.kappa < 0:
            raise ValueError("search.kappa must be >= 0")
        if self.n_initial_points < 1:
            raise ValueError("search.n_initial_points must be >= 1")


@dataclass(frozen=True)
class TrainingConfig:
    """The per-evaluation training recipe (paper: 20 epochs, warmup 5,
    plateau patience 5); ``epochs`` may be shortened for bench speed while
    ``nominal_epochs`` keeps simulated durations at paper scale."""

    epochs: int = 20
    nominal_epochs: int | None = 20
    warmup_epochs: int = 5
    plateau_patience: int = 5
    objective: str = "best"
    dtype: str = "float32"  # the paper's TensorFlow/Horovod precision; float64 is the oracle
    apply_linear_scaling: bool = True
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("training.epochs must be >= 1")
        if self.objective not in ("best", "final"):
            raise ValueError(f"training.objective must be 'best' or 'final', got {self.objective!r}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"training.dtype must be 'float32' or 'float64', got {self.dtype!r}")


@dataclass(frozen=True)
class EvaluatorConfig:
    """The cluster backend: ``backend`` is one of
    :data:`~repro.workflow.evaluator.EVALUATOR_BACKENDS` (``"simulated"``,
    ``"threaded"`` or ``"process"``); ``cache`` enables evaluation
    memoization (``"off"`` or ``"exact"`` — exact-match canonical-hash
    lookup of already-evaluated configurations)."""

    backend: str = "simulated"
    num_workers: int = 8
    cache: str = "off"

    def __post_init__(self) -> None:
        _check_name("evaluator backend", self.backend, EVALUATOR_BACKENDS)
        if self.num_workers < 1:
            raise ValueError("evaluator.num_workers must be >= 1")
        _check_name("evaluator.cache mode", self.cache, CACHE_MODES)


@dataclass(frozen=True)
class FaultConfig:
    """Failure handling and seeded fault injection: the
    :class:`~repro.workflow.faults.FaultPolicy` fields with campaign
    defaults (all-zero probabilities inject nothing)."""

    on_error: str = "penalize"
    max_retries: int = 2
    retry_backoff: float = 0.0
    timeout: float | None = None
    failure_objective: float = 0.0
    failure_duration: float = 1.0
    crash_prob: float = 0.0
    hang_prob: float = 0.0
    corrupt_prob: float = 0.0
    hang_factor: float = 20.0
    fault_seed: int = 0

    def __post_init__(self) -> None:
        self.policy()  # a bad config fails at definition time, not launch

    def policy(self) -> FaultPolicy:
        """The evaluators' :class:`~repro.workflow.faults.FaultPolicy`."""
        try:
            return FaultPolicy(**dataclasses.asdict(self))
        except ValueError as exc:
            raise ValueError(f"faults: {exc}") from None


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often the search writes resumable checkpoints
    (``path=None`` disables checkpointing)."""

    path: str | None = None
    every: int = 1

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("checkpoint.every must be >= 1")


@dataclass(frozen=True)
class CampaignConfig:
    """The complete specification of one campaign.

    Top-level fields name the benchmark, the architecture space and the
    budgets; the sub-configs cover search, training, evaluator, faults and
    checkpointing.  The whole tree is immutable and JSON-serializable:
    ``CampaignConfig.from_dict(cfg.to_dict()) == cfg`` always holds.
    """

    dataset: str = "covertype"
    size: int = 2000
    num_nodes: int = 5
    max_evaluations: int | None = 50
    wall_time_minutes: float | None = None
    search: SearchConfig = field(default_factory=SearchConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    evaluator: EvaluatorConfig = field(default_factory=EvaluatorConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)

    _SUBCONFIGS = {
        "search": SearchConfig,
        "training": TrainingConfig,
        "evaluator": EvaluatorConfig,
        "faults": FaultConfig,
        "checkpoint": CheckpointConfig,
    }

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.max_evaluations is None and self.wall_time_minutes is None:
            raise ValueError("need at least one of max_evaluations / wall_time_minutes")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1 when set")
        for name, cls in self._SUBCONFIGS.items():
            if not isinstance(getattr(self, name), cls):
                raise TypeError(f"{name} must be a {cls.__name__}")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """Lossless, JSON-safe representation, tagged with the layout
        version; the exact inverse of :meth:`from_dict`."""
        data = dataclasses.asdict(self)
        return {"config_version": CONFIG_VERSION, **data}

    @classmethod
    def from_dict(cls, data: Any) -> "CampaignConfig":
        """Rebuild a config written by :meth:`to_dict`.

        Raises ``ValueError`` with a clear message on a missing or
        unsupported ``config_version`` and on unknown keys anywhere in the
        tree (typo protection + forward-compatibility signal).
        """
        if not isinstance(data, dict):
            raise ValueError(f"campaign config: expected a mapping, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("config_version", None)
        if version != CONFIG_VERSION:
            raise ValueError(
                f"unsupported campaign config version {version!r} "
                f"(this build reads version {CONFIG_VERSION}); "
                "re-create the config with CampaignConfig.to_dict()"
            )
        for name, sub_cls in cls._SUBCONFIGS.items():
            if name in data:
                data[name] = _from_dict(sub_cls, data[name], f"campaign config: {name}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"campaign config: unknown keys {unknown}; known keys are {sorted(known)}"
            )
        return cls(**data)

    # ------------------------------------------------------------------ #
    def replace(self, **changes: Any) -> "CampaignConfig":
        """A copy with top-level fields replaced (sub-configs included)."""
        return dataclasses.replace(self, **changes)
