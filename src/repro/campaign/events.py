"""Structured lifecycle events and the campaign event bus.

One campaign produces one stream of typed events, all on the manager: the
evaluators emit job lifecycle events (submit / gather / retry), the
faults they inject and each trained attempt's per-epoch events as it
settles, the search loop emits population and checkpoint events and the
BO optimizer tell/ask events.  Subscribers attach to an
:class:`EventBus`; three built-ins cover the common needs:

- :class:`JsonlEventLog` — append every event to a JSONL file that
  :func:`load_events` replays into typed events again;
- :class:`ProgressReporter` — human-readable one-liners as the campaign
  advances;
- :class:`MetricsAggregator` — in-memory utilization / retry / latency
  accounting that reproduces ``repro.analysis.utilization_summary`` from
  the event stream alone.

This module deliberately imports nothing from the rest of ``repro`` so the
lower layers (evaluators, the run function's ``epoch_events``) can build
events without import cycles; they lazy-import the event types where they
build them.

Every event class defined here must be listed in :data:`EVENT_TYPES` — the
catalogue is the schema, and ``tools/check_events.py`` lints that every
emission site only uses catalogued events.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "CampaignEvent",
    "CampaignStarted",
    "CampaignFinished",
    "JobSubmitted",
    "JobGathered",
    "JobRetried",
    "PopulationUpdated",
    "BOTellAsk",
    "EpochEnd",
    "FaultInjected",
    "CheckpointWritten",
    "CacheHit",
    "CacheStore",
    "EVENT_TYPES",
    "EventBus",
    "JsonlEventLog",
    "ProgressReporter",
    "MetricsAggregator",
    "load_events",
    "replay_metrics",
]


@dataclass(frozen=True)
class CampaignEvent:
    """Base class for all campaign lifecycle events."""

    @property
    def name(self) -> str:
        return type(self).__name__

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe representation, tagged with the event name."""
        return {"event": self.name, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class CampaignStarted(CampaignEvent):
    """A campaign run began (emitted once by ``Campaign.run``).

    ``blas`` names the BLAS library training pins and ``blas_threads`` the
    thread count each training call runs at (both None where the BLAS
    cannot be pinned and runs at its own count).
    """

    method: str
    dataset: str
    num_workers: int
    max_evaluations: int | None = None
    wall_time_minutes: float | None = None
    blas: str | None = None
    blas_threads: int | None = None


@dataclass(frozen=True)
class CampaignFinished(CampaignEvent):
    """A campaign run returned its history.  ``elapsed_minutes`` is read
    off the evaluator's clock: simulated minutes on the simulated backend,
    wall-clock minutes on the threaded and process ones."""

    num_evaluations: int
    best_objective: float
    elapsed_minutes: float


@dataclass(frozen=True)
class JobSubmitted(CampaignEvent):
    """A configuration entered an evaluator's queue."""

    job_id: int
    time: float


@dataclass(frozen=True)
class JobGathered(CampaignEvent):
    """A finished job was returned to the manager by ``gather``."""

    job_id: int
    time: float
    objective: float
    duration: float
    submit_time: float
    start_time: float
    end_time: float
    worker: int
    failed: bool
    retries: int


@dataclass(frozen=True)
class JobRetried(CampaignEvent):
    """A failed attempt was re-queued under a retry fault policy."""

    job_id: int
    time: float
    retries: int
    error: str | None


@dataclass(frozen=True)
class PopulationUpdated(CampaignEvent):
    """The aging population absorbed one gathered evaluation."""

    num_evaluations: int
    population_size: int
    objective: float
    best_objective: float
    time: float


@dataclass(frozen=True)
class BOTellAsk(CampaignEvent):
    """The BO optimizer ingested results and proposed replacements."""

    num_told: int
    num_asked: int
    num_observations: int
    time: float


@dataclass(frozen=True)
class EpochEnd(CampaignEvent):
    """One training epoch of job ``job_id``'s attempt, emitted by the
    evaluator on the manager as that attempt settles.

    ``ring_bytes_per_rank`` is the ring-allreduce payload each rank ships
    during the epoch's training steps — one allreduce of the flat gradient
    per step, as the cost model bills it (0 single-rank) — from
    :func:`repro.dataparallel.allreduce.ring_transfer_stats`.
    """

    job_id: int
    epoch: int
    train_loss: float
    val_accuracy: float
    num_ranks: int = 1
    ring_bytes_per_rank: int = 0


@dataclass(frozen=True)
class FaultInjected(CampaignEvent):
    """An evaluator injected a fault into attempt ``retries`` of a job,
    as the attempt started (on the manager)."""

    kind: str  # "crash" | "hang" | "corrupt"
    job_id: int
    retries: int


@dataclass(frozen=True)
class CheckpointWritten(CampaignEvent):
    """The search wrote a resumable checkpoint."""

    path: str
    num_evaluations: int
    time: float


@dataclass(frozen=True)
class CacheHit(CampaignEvent):
    """An evaluator served a job from the evaluation cache (no re-training).

    ``key`` is the canonical config digest
    (:func:`repro.workflow.cache.canonical_config_key`).
    """

    job_id: int
    key: str
    time: float


@dataclass(frozen=True)
class CacheStore(CampaignEvent):
    """A finished evaluation's result was memoized into the cache."""

    job_id: int
    key: str
    time: float


#: The event catalogue: every event class this package may emit.  The
#: schema lint (``tools/check_events.py``) checks emission sites against
#: exactly this mapping.
EVENT_TYPES: dict[str, type[CampaignEvent]] = {
    cls.__name__: cls
    for cls in (
        CampaignStarted,
        CampaignFinished,
        JobSubmitted,
        JobGathered,
        JobRetried,
        PopulationUpdated,
        BOTellAsk,
        EpochEnd,
        FaultInjected,
        CheckpointWritten,
        CacheHit,
        CacheStore,
    )
}


class EventBus:
    """Synchronous publish/subscribe dispatch for campaign events.

    Subscribers are callables; an optional ``event_type`` filter restricts
    delivery to one event class (subclasses included).  Dispatch order is
    subscription order, and emission is synchronous — a subscriber raising
    propagates to the emitter, so subscribers should be cheap and safe.
    """

    def __init__(self) -> None:
        self._subscribers: list[tuple[type[CampaignEvent] | None, Callable]] = []

    def subscribe(
        self,
        callback: Callable[[CampaignEvent], None],
        event_type: type[CampaignEvent] | None = None,
    ) -> Callable[[CampaignEvent], None]:
        """Register ``callback``; returns it so it can be unsubscribed."""
        if not callable(callback):
            raise TypeError(f"subscriber must be callable, got {callback!r}")
        self._subscribers.append((event_type, callback))
        return callback

    def unsubscribe(self, callback: Callable[[CampaignEvent], None]) -> None:
        self._subscribers = [
            (t, cb) for t, cb in self._subscribers if cb is not callback
        ]

    def emit(self, event: CampaignEvent) -> None:
        if not isinstance(event, CampaignEvent):
            raise TypeError(f"can only emit CampaignEvent instances, got {event!r}")
        for event_type, callback in self._subscribers:
            if event_type is None or isinstance(event, event_type):
                callback(event)

    def __len__(self) -> int:
        return len(self._subscribers)


# --------------------------------------------------------------------- #
# Built-in subscribers
# --------------------------------------------------------------------- #
class JsonlEventLog:
    """Append every event to a JSONL file (one tagged object per line)."""

    def __init__(self, path: str | Path) -> None:
        self._open(path, "w")

    @classmethod
    def resume(cls, path: str | Path, num_evaluations: int) -> "JsonlEventLog":
        """Continue the log of a campaign resumed from the checkpoint it
        wrote at ``num_evaluations`` evaluations.

        The log is cut after its last ``CheckpointWritten`` line at that
        count (a torn final line goes with everything else after it), and
        new events are appended, so replaying the joined log gives the
        uninterrupted campaign's metrics.  A missing log is started afresh;
        one with no such line does not belong to the checkpoint and raises
        ``ValueError``.
        """
        path = Path(path)
        if path.exists():
            end, offset = None, 0
            with open(path, "rb") as fh:
                for line in fh:
                    offset += len(line)
                    if b'"CheckpointWritten"' in line and line.endswith(b"\n"):
                        row = json.loads(line)
                        if row.get("event") == "CheckpointWritten" and (
                            row["num_evaluations"] == num_evaluations
                        ):
                            end = offset
            if end is None:
                raise ValueError(
                    f"event log {path} has no checkpoint at {num_evaluations} evaluations; "
                    "it does not belong to this checkpoint"
                )
            os.truncate(path, end)
        log = cls.__new__(cls)
        log._open(path, "a")
        return log

    def _open(self, path: str | Path, mode: str) -> None:
        self.path = Path(path)
        # Line-buffered: a killed campaign's log holds every emitted event.
        self._fh = open(self.path, mode, buffering=1)
        self.num_events = 0

    def __call__(self, event: CampaignEvent) -> None:
        self._fh.write(json.dumps(event.to_dict()) + "\n")
        self.num_events += 1

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_events(path: str | Path) -> list[CampaignEvent]:
    """Replay a :class:`JsonlEventLog` file into typed events.

    The log is line-buffered, but a write cut short can still leave a final
    line with no newline; such a line is skipped when it does not parse.  A
    malformed complete line still raises.
    """
    events: list[CampaignEvent] = []
    lines = Path(path).read_text().split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            if lineno == len(lines):  # unterminated: a write cut short
                break
            raise
        name = row.pop("event", None)
        cls = EVENT_TYPES.get(name)
        if cls is None:
            raise ValueError(f"{path}:{lineno}: unknown event type {name!r}")
        events.append(cls(**row))
    return events


class ProgressReporter:
    """Print a one-line progress update as the campaign advances."""

    def __init__(self, out=None, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        import sys

        self.out = out or sys.stdout
        self.every = every

    def __call__(self, event: CampaignEvent) -> None:
        if isinstance(event, PopulationUpdated):
            if event.num_evaluations % self.every == 0:
                print(
                    f"[{event.num_evaluations:>4} evals] "
                    f"objective={event.objective:.4f} "
                    f"best={event.best_objective:.4f} "
                    f"t={event.time:.1f}min",
                    file=self.out,
                )
        elif isinstance(event, CheckpointWritten):
            print(
                f"[{event.num_evaluations:>4} evals] checkpoint -> {event.path}",
                file=self.out,
            )
        elif isinstance(event, CampaignFinished):
            print(
                f"campaign finished: {event.num_evaluations} evaluations, "
                f"best {event.best_objective:.4f} at t={event.elapsed_minutes:.1f}min",
                file=self.out,
            )


class MetricsAggregator:
    """In-memory campaign metrics from the event stream alone.

    Reproduces the utilization accounting of
    :func:`repro.analysis.utilization.utilization_summary` — busy
    worker-minutes over ``num_workers × elapsed`` — plus retry / fault
    counters and gather latencies, without touching the evaluator.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.num_workers = 0
        self.num_retries = 0
        self.num_faults_injected = 0
        self.num_jobs_done = 0
        self.num_jobs_failed = 0
        self.busy_worker_minutes = 0.0
        self.elapsed_minutes = 0.0
        self.queue_delays: list[float] = []
        self.gather_latencies: list[float] = []
        self.best_objective = float("-inf")
        self.ring_comm_bytes = 0
        self.num_cache_hits = 0
        self.num_cache_stores = 0

    def __call__(self, event: CampaignEvent) -> None:
        self.counts[event.name] = self.counts.get(event.name, 0) + 1
        time = getattr(event, "time", None)
        if time is not None:
            self.elapsed_minutes = max(self.elapsed_minutes, time)
        if isinstance(event, CampaignStarted):
            self.num_workers = event.num_workers
        elif isinstance(event, JobGathered):
            self.num_jobs_done += 1
            if event.failed:
                self.num_jobs_failed += 1
            self.busy_worker_minutes += event.end_time - event.start_time
            self.queue_delays.append(event.start_time - event.submit_time)
            self.gather_latencies.append(event.time - event.end_time)
            if event.objective > self.best_objective:
                self.best_objective = event.objective
        elif isinstance(event, JobRetried):
            self.num_retries += 1
        elif isinstance(event, FaultInjected):
            self.num_faults_injected += 1
        elif isinstance(event, CacheHit):
            self.num_cache_hits += 1
        elif isinstance(event, CacheStore):
            self.num_cache_stores += 1
        elif isinstance(event, EpochEnd):
            # Simulated communication volume: every rank ships the
            # epoch's ring payload (one allreduce per training step).
            self.ring_comm_bytes += event.ring_bytes_per_rank * event.num_ranks

    # ------------------------------------------------------------------ #
    @property
    def utilization(self) -> float:
        denominator = self.num_workers * self.elapsed_minutes
        return self.busy_worker_minutes / denominator if denominator > 0 else 0.0

    @property
    def mean_queue_delay(self) -> float:
        return sum(self.queue_delays) / len(self.queue_delays) if self.queue_delays else 0.0

    @property
    def mean_gather_latency(self) -> float:
        lat = self.gather_latencies
        return sum(lat) / len(lat) if lat else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over gathered jobs (0.0 when nothing finished)."""
        return self.num_cache_hits / self.num_jobs_done if self.num_jobs_done else 0.0

    def summary(self) -> dict[str, Any]:
        """Aggregate metrics as a plain dict (JSON-safe)."""
        return {
            "num_workers": self.num_workers,
            "elapsed_minutes": self.elapsed_minutes,
            "busy_worker_minutes": self.busy_worker_minutes,
            "utilization": self.utilization,
            "num_jobs_done": self.num_jobs_done,
            "num_jobs_failed": self.num_jobs_failed,
            "num_retries": self.num_retries,
            "num_faults_injected": self.num_faults_injected,
            "mean_queue_delay": self.mean_queue_delay,
            "mean_gather_latency": self.mean_gather_latency,
            "best_objective": self.best_objective,
            "ring_comm_bytes": self.ring_comm_bytes,
            "num_cache_hits": self.num_cache_hits,
            "num_cache_stores": self.num_cache_stores,
            "cache_hit_rate": self.cache_hit_rate,
            "event_counts": dict(self.counts),
        }


def replay_metrics(path: str | Path) -> MetricsAggregator:
    """Rebuild campaign metrics by replaying a JSONL event log."""
    aggregator = MetricsAggregator()
    for event in load_events(path):
        aggregator(event)
    return aggregator
