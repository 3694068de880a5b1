"""Job records flowing through the evaluator."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "JobState", "EvaluationResult", "Job", "job_to_dict", "job_from_dict", "jsonable_metadata"
]


class JobState(enum.Enum):
    PENDING = "pending"  # submitted, waiting for a free worker
    RUNNING = "running"
    RETRYING = "retrying"  # a failed attempt is waiting to be re-run
    DONE = "done"
    FAILED = "failed"  # fault policy exhausted; carries a penalized result


@dataclass
class EvaluationResult:
    """What an evaluation function returns.

    Attributes
    ----------
    objective:
        The scalar to maximize (validation accuracy in the paper).
    duration:
        Evaluation duration in simulated minutes, as the run function
        declares it (every backend keeps it).
    metadata:
        Free-form extras (parameter count, epoch histories, ...).
    """

    objective: float
    duration: float
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")


@dataclass
class Job:
    """One evaluation tracked by an evaluator.

    ``retries`` counts completed failed attempts that were re-run under a
    retry fault policy; ``attempt`` is a monotonically increasing scheduling
    epoch (bumped on every start and on worker-failure rescheduling) used to
    invalidate stale completion events; ``error`` holds the most recent
    failure description, if any.  ``cache_hit`` marks a job whose latest
    attempt was served from an :class:`~repro.workflow.cache.EvaluationCache`
    without re-running the evaluation (credited zero busy time).
    """

    job_id: int
    config: Any
    state: JobState = JobState.PENDING
    submit_time: float = 0.0
    start_time: float = 0.0
    end_time: float = 0.0
    worker: int = -1
    result: EvaluationResult | None = None
    retries: int = 0
    attempt: int = 0
    error: str | None = None
    cache_hit: bool = False

    @property
    def objective(self) -> float:
        if self.result is None:
            raise RuntimeError(f"job {self.job_id} has no result yet")
        return self.result.objective

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for a worker."""
        return self.start_time - self.submit_time


# --------------------------------------------------------------------- #
# Checkpoint (de)serialization
# --------------------------------------------------------------------- #
def jsonable_metadata(metadata: dict[str, Any], lists: bool = True) -> dict[str, Any]:
    """Scalar metadata entries, plus list-of-scalar ones when ``lists``;
    everything else is dropped."""
    out: dict[str, Any] = {}
    for key, value in metadata.items():
        if isinstance(value, (bool, int, float, str)):
            out[key] = value
        elif isinstance(value, (np.integer, np.floating)):
            out[key] = value.item()
        elif lists and isinstance(value, (list, tuple)) and all(
            isinstance(v, (bool, int, float, str, np.integer, np.floating)) for v in value
        ):
            out[key] = [v.item() if isinstance(v, (np.integer, np.floating)) else v for v in value]
    return out


def _config_to_jsonable(config: Any) -> Any:
    """Encode a job config; ModelConfig gets a tagged representation."""
    if hasattr(config, "arch") and hasattr(config, "hyperparameters"):
        return {
            "__model_config__": {
                "arch": np.asarray(config.arch).tolist(),
                "hyperparameters": dict(config.hyperparameters),
            }
        }
    return config


def _config_from_jsonable(data: Any) -> Any:
    if isinstance(data, dict) and "__model_config__" in data:
        from repro.core.config import ModelConfig  # lazy: workflow must not import core eagerly

        inner = data["__model_config__"]
        return ModelConfig(
            arch=np.asarray(inner["arch"], dtype=np.int64),
            hyperparameters=dict(inner["hyperparameters"]),
        )
    return data


def job_to_dict(job: Job) -> dict[str, Any]:
    """JSON-safe snapshot of a job (used by evaluator checkpoints)."""
    return {
        "job_id": job.job_id,
        "config": _config_to_jsonable(job.config),
        "state": job.state.value,
        "submit_time": job.submit_time,
        "start_time": job.start_time,
        "end_time": job.end_time,
        "worker": job.worker,
        "retries": job.retries,
        "attempt": job.attempt,
        "error": job.error,
        "cache_hit": job.cache_hit,
        "result": None
        if job.result is None
        else {
            "objective": job.result.objective,
            "duration": job.result.duration,
            "metadata": jsonable_metadata(job.result.metadata),
        },
    }


def job_from_dict(data: dict[str, Any]) -> Job:
    """Inverse of :func:`job_to_dict`."""
    result = data.get("result")
    return Job(
        job_id=int(data["job_id"]),
        config=_config_from_jsonable(data["config"]),
        state=JobState(data["state"]),
        submit_time=float(data["submit_time"]),
        start_time=float(data["start_time"]),
        end_time=float(data["end_time"]),
        worker=int(data["worker"]),
        retries=int(data.get("retries", 0)),
        attempt=int(data.get("attempt", 0)),
        error=data.get("error"),
        cache_hit=bool(data.get("cache_hit", False)),
        result=None
        if result is None
        else EvaluationResult(
            objective=float(result["objective"]),
            duration=float(result["duration"]),
            metadata=dict(result.get("metadata", {})),
        ),
    )
