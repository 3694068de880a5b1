"""Node-utilization accounting (paper §IV-C reports ≈94% for both methods).

This is the one utilization account: Σ(end − start) over finished jobs,
divided by ``num_workers`` × elapsed time.  The campaign event stream
reproduces it (:class:`repro.campaign.MetricsAggregator` sums the same
span over ``JobGathered`` events).  A job's span is its last attempt.  A
simulated cache hit counts the minutes it reserved its worker; a
wall-clock hit ends where it starts and counts nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workflow.evaluator import Evaluator
from repro.workflow.jobs import JobState

__all__ = ["UtilizationSummary", "utilization_summary"]


@dataclass(frozen=True)
class UtilizationSummary:
    """Aggregate utilization of an evaluator's finished jobs."""

    num_workers: int
    elapsed_minutes: float
    busy_worker_minutes: float
    utilization: float
    num_jobs_done: int
    mean_queue_delay: float


def utilization_summary(evaluator: Evaluator) -> UtilizationSummary:
    """Summarize worker busy time over the evaluator's elapsed clock."""
    finished = (JobState.DONE, JobState.FAILED)
    done = [j for j in evaluator.jobs if j.state in finished and j.result is not None]
    busy = sum(j.end_time - j.start_time for j in done)
    elapsed = evaluator.now
    delays = [j.queue_delay for j in done]
    return UtilizationSummary(
        num_workers=evaluator.num_workers,
        elapsed_minutes=elapsed,
        busy_worker_minutes=busy,
        utilization=busy / (evaluator.num_workers * elapsed) if elapsed > 0 else 0.0,
        num_jobs_done=len(done),
        mean_queue_delay=sum(delays) / len(delays) if delays else 0.0,
    )
