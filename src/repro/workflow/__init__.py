"""Workflow substrate (paper substitute for the Balsam workflow system).

Provides the non-blocking ``submit`` / ``gather`` manager-worker interface
of Algorithm 1 with three interchangeable backends:

- :class:`SimulatedEvaluator` — an event-driven simulation of a W-worker
  cluster with a simulated wall clock in minutes.  Evaluation *results* are
  produced by really running the evaluation function; evaluation
  *durations* are supplied by the function (typically from
  :class:`repro.dataparallel.TrainingCostModel`).  A function that
  declares its duration (``duration(config)``) has its pending attempts
  trained by the manager and by forked worker processes, at most one
  trainer per usable core (:mod:`repro.workflow.pool`), and settles each
  when its completion is reached; attempts still waiting for a worker
  when the campaign stops are never trained.
- :class:`ThreadedEvaluator` — real concurrent execution on a thread pool,
  used to validate that the search loops are genuinely asynchronous.  A
  timeout abandons a straggler and replaces the pool, so every worker
  stays available.
- :class:`ProcessPoolEvaluator` — true multi-core execution on a process
  pool with worker-crash detection and real timeout cancellation.

The base :class:`Evaluator` owns the one job lifecycle they share: the
wait queue, attempt start on the manager (fault draw and cache lookup)
and delivery (``DONE`` or ``FAILED`` by the result's ``failed`` flag).
All backends accept an optional :class:`EvaluationCache` that serves
duplicate configurations from memo instead of re-training them.
"""

from repro.workflow.events import EventQueue
from repro.workflow.jobs import EvaluationResult, Job, JobState
from repro.workflow.faults import FaultPolicy, InjectedCrash
from repro.workflow.cache import CACHE_MODES, EvaluationCache, canonical_config_key
from repro.workflow.evaluator import (
    Evaluator,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)

__all__ = [
    "EventQueue",
    "Job",
    "JobState",
    "EvaluationResult",
    "Evaluator",
    "SimulatedEvaluator",
    "ThreadedEvaluator",
    "ProcessPoolEvaluator",
    "EvaluationCache",
    "canonical_config_key",
    "CACHE_MODES",
    "FaultPolicy",
    "InjectedCrash",
]
