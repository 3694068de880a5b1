"""Fault policies and deterministic fault injection.

The paper's 3-hour, 129-node campaigns survive stragglers and diverged
trainings because the manager treats evaluation failure as data, not as a
fatal error (§III-C: failed evaluations are penalized with a low objective).
:class:`FaultPolicy` makes that behaviour a first-class, testable contract,
honored identically by every evaluator backend:

- failure handling: what counts as a failure (exceptions, per-job
  timeouts, non-finite objectives), how often to retry, how long to back
  off between attempts (exponential, in evaluator minutes), and what a
  penalized result looks like.  :meth:`FaultPolicy.settle` is the one
  place these rules are applied: every backend hands it each attempt's
  fault kind and outcome and gets back a :class:`Settlement` (accept,
  retry, penalize, or the exception to raise);
- fault injection: seeded crashes (the run function is never called),
  hangs/stragglers (inflated durations, to be caught by the timeout) and
  corrupted results (NaN objectives).  :meth:`FaultPolicy.fault` is a pure
  function of ``(fault_seed, job_id, retries)``, so every backend, a cache
  hit and a resumed campaign all see the same fault on the same attempt.
  The evaluators draw on the manager side when an attempt starts, emit
  ``FaultInjected`` and count ``num_faults_injected``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.workflow.jobs import EvaluationResult

__all__ = ["FaultPolicy", "InjectedCrash", "ON_ERROR_POLICIES", "Settlement"]

ON_ERROR_POLICIES = ("raise", "penalize", "retry")
_FAULT_KINDS = ("crash", "hang", "corrupt")


class InjectedCrash(RuntimeError):
    """The failure of an attempt that drew an injected crash."""


@dataclass(frozen=True)
class Settlement:
    """How one attempt ends under a :class:`FaultPolicy`.

    ``result`` is the accepted result, or the penalized one of a job that
    exhausted the policy (None when the attempt is retried or raised);
    ``error`` describes the failure (None when accepted); ``minutes`` is
    how long the attempt held its worker on the simulated clock, which is
    also the penalized result's duration; ``retry`` re-runs the job;
    ``timed_out`` marks an attempt past the policy timeout; ``exception``
    is what an evaluator raises under ``on_error="raise"``.
    """

    result: EvaluationResult | None
    error: str | None
    minutes: float
    retry: bool = False
    timed_out: bool = False
    exception: BaseException | None = None


@dataclass(frozen=True)
class FaultPolicy:
    """How an evaluator reacts when a run function misbehaves, and which
    faults it injects.

    Parameters
    ----------
    on_error:
        ``"raise"`` propagates the failure to the manager (debugging);
        ``"penalize"`` records a low-objective result and moves on
        (production behaviour — a diverged training must not kill a
        campaign); ``"retry"`` re-runs the job up to ``max_retries`` times
        and penalizes once retries are exhausted.
    max_retries:
        Failed attempts re-run under ``on_error="retry"`` before the job is
        penalized.
    retry_backoff:
        Base backoff in evaluator minutes; attempt ``k`` (1-based) waits
        ``retry_backoff * 2**(k-1)`` minutes before re-entering the queue.
        Zero requeues immediately.
    timeout:
        Per-job limit in evaluator minutes; a job running longer is treated
        as failed at ``start + timeout`` (catches hangs and stragglers).
    failure_objective, failure_duration:
        The penalized :class:`EvaluationResult` recorded for a job that has
        exhausted the policy.
    crash_prob, hang_prob, corrupt_prob:
        Probability that an attempt crashes (fails without calling the run
        function — a worker that died before reporting), hangs (its
        duration is multiplied by ``hang_factor``) or returns a NaN
        objective.  All zero (the default) injects nothing.
    hang_factor:
        Duration multiplier of a hung attempt.
    fault_seed:
        Seed of the injected faults (see :meth:`fault`).
    """

    on_error: str = "raise"
    max_retries: int = 0
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
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(f"unknown on_error policy {self.on_error!r}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 when set")
        if self.failure_duration < 0:
            raise ValueError("failure_duration must be >= 0")
        for kind in _FAULT_KINDS:
            p = getattr(self, f"{kind}_prob")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{kind}_prob must be in [0, 1], got {p}")
        if self.crash_prob + self.hang_prob + self.corrupt_prob > 1.0:
            raise ValueError("crash_prob + hang_prob + corrupt_prob must be <= 1")
        if self.hang_factor < 1.0:
            raise ValueError("hang_factor must be >= 1")
        if self.fault_seed < 0:
            raise ValueError("fault_seed must be >= 0")

    # ------------------------------------------------------------------ #
    def backoff_minutes(self, retries: int) -> float:
        """Delay before retry number ``retries`` (1-based) re-enters the queue."""
        if retries < 1 or self.retry_backoff == 0.0:
            return 0.0
        return self.retry_backoff * 2.0 ** (retries - 1)

    def should_retry(self, retries_so_far: int) -> bool:
        return self.on_error == "retry" and retries_so_far < self.max_retries

    def failure_result(self, error: str, duration: float | None = None) -> EvaluationResult:
        """The penalized result recorded for an exhausted job."""
        return EvaluationResult(
            objective=self.failure_objective,
            duration=self.failure_duration if duration is None else duration,
            metadata={"failed": True, "error": error},
        )

    def classify(self, result: EvaluationResult) -> str | None:
        """Failure description for a returned result, or None if acceptable:
        a non-finite objective (a corrupted or diverged result) fails."""
        if not math.isfinite(result.objective):
            return f"invalid objective {result.objective!r}"
        return None

    # ------------------------------------------------------------------ #
    def fault(self, job_id: int, retries: int) -> str | None:
        """The fault injected into attempt ``retries`` of job ``job_id``.

        One uniform draw from ``(fault_seed, job_id, retries)`` is split
        into crash / hang / corrupt / clean bands.  The draw has no state,
        so it does not depend on call order, backend or cache; with every
        probability zero nothing is drawn.
        """
        if not (self.crash_prob or self.hang_prob or self.corrupt_prob):
            return None
        draw = np.random.default_rng([self.fault_seed, job_id, retries]).random()
        edge = 0.0
        for kind in _FAULT_KINDS:
            edge += getattr(self, f"{kind}_prob")
            if draw < edge:
                return kind
        return None

    def inject(self, kind: str | None, result: EvaluationResult) -> EvaluationResult:
        """``result`` as a hung or corrupted attempt reports it."""
        if kind == "hang":
            return EvaluationResult(
                result.objective,
                result.duration * self.hang_factor,
                {**result.metadata, "injected_hang": True},
            )
        if kind == "corrupt":
            return EvaluationResult(
                float("nan"), result.duration, {**result.metadata, "injected_corruption": True}
            )
        return result

    # ------------------------------------------------------------------ #
    def settle(
        self,
        kind: str | None,
        outcome: EvaluationResult | BaseException | None,
        job_id: int,
        retries: int,
        simulated_clock: bool = False,
    ) -> Settlement:
        """Apply the policy to one attempt of job ``job_id``.

        ``kind`` is the fault drawn for the attempt (:meth:`fault`) and
        ``retries`` the failed attempts before it.  ``outcome`` is the
        result the run function (or the cache) returned, the exception the
        attempt raised, or ``None`` when the backend's clock reaped it at
        the timeout.  On the simulated clock (``simulated_clock=True``) an
        attempt lasts its declared duration, so a returned result whose
        injected duration exceeds the timeout times out here instead.
        """
        timed_out = outcome is None
        if isinstance(outcome, EvaluationResult):
            result = self.inject(kind, outcome)
            timed_out = (
                simulated_clock and self.timeout is not None and result.duration > self.timeout
            )
        exception: BaseException
        if timed_out:
            error = f"timeout after {self.timeout} min"
            if outcome is not None:  # the simulated clock saw the declared duration
                error += f" (duration {result.duration:.2f})"
            minutes, exception = self.timeout, TimeoutError(f"job {job_id}: {error}")
        elif isinstance(outcome, BaseException):
            error, minutes, exception = repr(outcome), self.failure_duration, outcome
        else:
            error = self.classify(result)
            if error is None:
                return Settlement(result, None, result.duration)
            minutes, exception = result.duration, RuntimeError(f"job {job_id}: {error}")
        if self.on_error == "raise":
            return Settlement(None, error, minutes, timed_out=timed_out, exception=exception)
        if self.should_retry(retries):
            return Settlement(None, error, minutes, retry=True, timed_out=timed_out)
        return Settlement(self.failure_result(error, minutes), error, minutes, timed_out=timed_out)
