"""Evaluator backends implementing the submit/gather interface.

Algorithm 1 interacts with the cluster only through two calls —
``submit_evaluation`` (non-blocking) and ``get_finished_evaluations`` —
mirroring DeepHyper/Balsam.  Every backend here exposes exactly that:

- :class:`SimulatedEvaluator` advances a simulated clock to the next job
  completion; the *results* are computed by genuinely running the
  evaluation function, while the *completion time* comes from the
  duration the function reports (the training-cost model).  A function
  that declares that duration up front (``duration(config)``) has its
  attempts trained by a :class:`~repro.workflow.pool.TrainingPool` (the
  manager and forked worker processes, at most one trainer per usable
  core), and each outcome is read only when the attempt's completion is
  reached; any other is run on the manager as its attempt starts.  It
  also models worker deaths and is checkpointable
  (``state_dict`` / ``load_state``): its job table is the one stored copy
  of every evaluation, and the search history and the cache are rebuilt
  from it.  A snapshot holds only the jobs not delivered yet; delivered
  jobs are final, and a checkpoint journals each once
  (:mod:`repro.core.serialization`).
- :class:`ThreadedEvaluator` and :class:`ProcessPoolEvaluator` run
  evaluation functions concurrently on a thread / process pool, as thin
  shells over :class:`_WallClockEvaluator`, which owns the futures and
  ``gather``.

One job lifecycle serves every backend, and :class:`Evaluator` owns it:
the job table, the one FIFO of jobs waiting for a worker, the in-flight
count, the run function, the :class:`~repro.workflow.faults.FaultPolicy`,
the optional :class:`~repro.workflow.cache.EvaluationCache` and the
failure counters.  Every attempt starts on the manager, which stamps it
``RUNNING``, draws its injected fault from ``(fault_seed, job_id,
retries)``, consults the cache and hands it to the backend's ``_launch``;
it is settled by :meth:`FaultPolicy.settle
<repro.workflow.faults.FaultPolicy.settle>`, which decides accept, retry,
penalize or raise; an attempt that ends for good goes through one
``_finish``, which memoizes its result if it is cacheable; and a finished
job is delivered by one ``_deliver``, which ends it ``DONE`` or ``FAILED``
by its result's ``failed`` flag.  So on every backend a cache hit needs an
attempt of its config that has already ended.
The backends keep only their clocks, pools and ``gather`` scans; each
clock decides which attempts time out (the declared duration on the
simulated clock, the reap deadline on the wall clock).  No worker thread
touches a job or emits an event: an attempt's ``EpochEnd`` events come
from its result as it settles, so every backend gives one stream.

Utilization is read off the job table
(:func:`repro.analysis.utilization_summary`) or the ``JobGathered`` stream
(:class:`repro.campaign.MetricsAggregator`), never kept by a backend: a
job's ``start_time`` and ``end_time`` bound its last attempt, stamped when
the manager starts that attempt and when it ends (on the simulated clock,
or on the wall clock by its future's done-callback).
"""

from __future__ import annotations

import collections
import pickle
import time as _time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterable, Sequence

from repro.workflow.cache import EvaluationCache
from repro.workflow.events import EventQueue
from repro.workflow.faults import FaultPolicy, InjectedCrash, Settlement
from repro.workflow.jobs import EvaluationResult, Job, JobState, job_from_dict, job_to_dict
from repro.workflow.pool import TrainingPool, evaluate

__all__ = [
    "EVALUATOR_BACKENDS",
    "Evaluator",
    "SimulatedEvaluator",
    "ThreadedEvaluator",
    "ProcessPoolEvaluator",
]

RunFunction = Callable[[Any], EvaluationResult]

#: Backend names a campaign selects with ``EvaluatorConfig.backend``.
EVALUATOR_BACKENDS = ("simulated", "threaded", "process")

#: The simulated evaluator's checkpointed counters.
_COUNTERS = (
    "num_failures", "num_faults_injected", "num_retries", "num_timeouts", "num_worker_failures"
)


# --------------------------------------------------------------------- #
# Process-pool worker plumbing.  The run function is pickled once at
# construction and installed into each worker via the pool initializer, so
# large captured state (datasets, cost models) crosses the process
# boundary once per worker instead of once per job.
# --------------------------------------------------------------------- #
_WORKER_RUN_FUNCTION: RunFunction | None = None


def _process_worker_init(payload: bytes) -> None:
    global _WORKER_RUN_FUNCTION
    _WORKER_RUN_FUNCTION = pickle.loads(payload)


def _process_worker_call(config: Any) -> EvaluationResult:
    """Run one evaluation in a worker."""
    assert _WORKER_RUN_FUNCTION is not None, "worker pool not initialized"
    return _WORKER_RUN_FUNCTION(config)


def _injected_crash(job: Job) -> InjectedCrash:
    return InjectedCrash(f"injected crash: job {job.job_id}, retry {job.retries}")


class Evaluator:
    """Abstract manager-worker evaluator.

    ``run_function`` is called once per attempt with the job's config and
    returns an :class:`EvaluationResult`; ``num_workers`` is W in the paper
    (128 on Theta; scaled down in the benches); ``fault_policy`` settles
    every attempt (:meth:`FaultPolicy.settle`); ``cache`` is an optional
    :class:`~repro.workflow.cache.EvaluationCache` consulted as each
    attempt starts and filled as each attempt ends for good
    (:meth:`_cacheable` says which results it takes).

    ``event_bus`` is an optional campaign event bus (attached by
    :func:`repro.campaign.build_campaign`); backends emit job lifecycle
    events (:class:`~repro.campaign.events.JobSubmitted`, ``JobGathered``,
    ``JobRetried``, ``WorkerDied``, ``FaultInjected``, ``CacheHit``,
    ``CacheStore``) and the ``EpochEnd`` events of each trained attempt
    through it when set, all on the manager.  ``num_failures`` counts failed
    attempts, ``num_retries`` re-runs, ``num_timeouts`` attempts past the
    policy timeout and ``num_faults_injected`` injected faults.

    The lifecycle lives here.  :meth:`submit` counts a job in flight and
    :meth:`_dispatch` queues it; :meth:`_fill_workers` starts queued
    attempts, oldest first, while the backend reports a free worker
    (``_has_free_worker``), stamping each ``RUNNING`` and handing it to
    the backend's ``_launch(job, kind, cached)``.  A backend's ``gather``
    hands the jobs whose attempts ended for good to :meth:`_finish` (or
    puts them back on the queue, for a retry) and returns :meth:`_deliver`,
    which takes them out of flight.  An attempt whose settlement raises
    (``on_error="raise"``) ends its job ``FAILED`` and out of flight
    before the exception propagates, and jobs finished in the same round
    come back from the next ``gather``.
    """

    event_bus = None

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.run_function = run_function
        self.num_workers = num_workers
        self.cache = cache
        self.fault_policy = fault_policy or FaultPolicy()
        self.num_failures = 0
        self.num_faults_injected = 0
        self.num_retries = 0
        self.num_timeouts = 0
        self._next_id = 0
        self.jobs: list[Job] = []
        # Jobs not handed to the caller yet, in submission order: every
        # job in flight, plus one a raising settlement failed.
        self._undelivered: dict[int, Job] = {}
        self._queue: collections.deque[Job] = collections.deque()
        self._completed: collections.deque[Job] = collections.deque()
        self._in_flight = 0

    @property
    def num_in_flight(self) -> int:
        """Jobs submitted and not delivered yet (queued, running or finished)."""
        return self._in_flight

    def _dispatch(self, job: Job) -> None:
        """Queue an attempt of ``job`` and start queued attempts."""
        self._queue.append(job)
        self._fill_workers()

    def _fill_workers(self) -> None:
        """Start queued attempts, oldest first, while a worker is free."""
        while self._queue and self._has_free_worker():
            job = self._queue.popleft()
            job.state = JobState.RUNNING
            job.start_time = self.now
            job.attempt += 1
            kind, cached = self._begin_attempt(job)
            self._launch(job, kind, cached)

    def _has_free_worker(self) -> bool:
        raise NotImplementedError

    def _launch(self, job: Job, kind: str | None, cached: EvaluationResult | None) -> None:
        """Run the attempt of ``job`` just started under fault ``kind``
        (``cached`` is the memoized result of a cache hit)."""
        raise NotImplementedError

    def _deliver(self) -> list[Job]:
        """Hand the completed jobs to the caller: each leaves flight and
        ends ``FAILED`` if its result is marked failed, ``DONE`` otherwise."""
        finished = list(self._completed)
        self._completed.clear()
        for job in finished:
            self._in_flight -= 1
            self._undelivered.pop(job.job_id, None)
            job.state = JobState.FAILED if job.result.metadata.get("failed") else JobState.DONE
            if self.event_bus is not None:
                from repro.campaign.events import JobGathered

                self.event_bus.emit(
                    JobGathered(
                        job_id=job.job_id,
                        time=self.now,
                        objective=job.result.objective,
                        duration=job.result.duration,
                        submit_time=job.submit_time,
                        start_time=job.start_time,
                        end_time=job.end_time,
                        worker=job.worker,
                        failed=job.state is JobState.FAILED,
                        retries=job.retries,
                    )
                )
        return finished

    def _begin_attempt(self, job: Job) -> tuple[str | None, EvaluationResult | None]:
        """Draw the injected fault of the attempt starting now, then look
        up the cache (a crash skips the lookup).

        Returns ``(kind, cached)``: the fault kind (None when clean) and the
        memoized result when the attempt is a cache hit.  Runs on the
        manager, so the counter and the events stay manager-side.
        """
        kind = self.fault_policy.fault(job.job_id, job.retries)
        if kind is not None:
            self.num_faults_injected += 1
            if self.event_bus is not None:
                from repro.campaign.events import FaultInjected

                self.event_bus.emit(
                    FaultInjected(kind=kind, job_id=job.job_id, retries=job.retries)
                )
        cached = None
        if kind != "crash" and self.cache is not None:
            cached = self.cache.lookup(job.config)
        job.cache_hit = cached is not None
        if job.cache_hit and self.event_bus is not None:
            from repro.campaign.events import CacheHit

            key = self.cache.key(job.config)
            self.event_bus.emit(CacheHit(job_id=job.job_id, key=key, time=self.now))
        return kind, cached

    def _settle(
        self, job: Job, kind: str | None, outcome: Any, simulated_clock: bool = False
    ) -> Settlement:
        """Settle the attempt of ``job`` that just ended (see
        :meth:`FaultPolicy.settle`) and record it: the counters and the
        job's error and result.  First, an attempt that trained (not a
        cache hit, a crash or a reap) emits the events the run function's
        optional ``epoch_events(job_id, config, result)`` hook makes of its
        raw result."""
        hook = getattr(self.run_function, "epoch_events", None)
        trained = isinstance(outcome, EvaluationResult) and not job.cache_hit
        if trained and hook is not None and self.event_bus is not None:
            for event in hook(job.job_id, job.config, outcome):
                self.event_bus.emit(event)
        settlement = self.fault_policy.settle(
            kind, outcome, job.job_id, job.retries, simulated_clock=simulated_clock
        )
        self.num_timeouts += settlement.timed_out
        if settlement.error is not None:
            job.error = settlement.error
            self.num_failures += 1
        if settlement.result is not None:
            job.result = settlement.result
        if settlement.exception is not None:
            # The attempt raises to the caller: its job ends here, undelivered.
            self._in_flight -= 1
            job.state = JobState.FAILED
        return settlement

    def _cacheable(self, job: Job) -> bool:
        """Whether the result of ``job``'s last attempt is memoized: it
        computed the result (no cache hit) under no injected fault, and the
        result is neither marked failed nor rejected by the policy."""
        return (
            not job.cache_hit
            and not job.result.metadata.get("failed")
            and self.fault_policy.classify(job.result) is None
            and self.fault_policy.fault(job.job_id, job.retries) is None
        )

    def _finish(self, job: Job) -> None:
        """``job``'s attempt ended for good: memoize its result if it is
        cacheable (the first store of a key wins), then complete the job."""
        if self.cache is not None and self._cacheable(job):
            if self.cache.store(job.config, job.result) and self.event_bus is not None:
                from repro.campaign.events import CacheStore

                key = self.cache.key(job.config)
                self.event_bus.emit(CacheStore(job_id=job.job_id, key=key, time=self.now))
        self._completed.append(job)

    def _count_retry(self, job: Job) -> None:
        """Book a failed attempt that will be re-run."""
        job.retries += 1
        self.num_retries += 1
        job.state = JobState.RETRYING
        job.worker = -1
        if self.event_bus is not None:
            from repro.campaign.events import JobRetried

            self.event_bus.emit(
                JobRetried(job_id=job.job_id, time=self.now, retries=job.retries, error=job.error)
            )

    def submit(self, configs: Sequence[Any]) -> list[Job]:
        """Queue configurations for evaluation; returns the job records."""
        out = []
        for config in configs:
            job = Job(job_id=self._next_id, config=config, submit_time=self.now)
            self._next_id += 1
            self.jobs.append(job)
            self._undelivered[job.job_id] = job
            if self.event_bus is not None:
                from repro.campaign.events import JobSubmitted

                self.event_bus.emit(JobSubmitted(job_id=job.job_id, time=job.submit_time))
            self._in_flight += 1
            self._dispatch(job)
            out.append(job)
        return out

    def gather(self) -> list[Job]:
        """Return at least one finished job (empty only if none in flight)."""
        raise NotImplementedError

    @property
    def now(self) -> float:
        """Current time in minutes (simulated or wall-clock)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's workers (idempotent; a later submit
        starts them again).  ``Campaign.run`` calls it as it returns."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpointing (optional per backend) -------------------------- #
    def state_dict(self) -> dict[str, Any]:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    def load_state(self, state: dict[str, Any]) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")


class SimulatedEvaluator(Evaluator):
    """Event-driven simulation of a ``num_workers``-node cluster.

    ``run_function`` is called with a job's config and must return an
    :class:`EvaluationResult` whose ``duration`` is in simulated minutes;
    ``num_workers``, ``fault_policy`` and ``cache`` are as in
    :class:`Evaluator`.  ``worker_failures`` lists optional ``(time_minutes,
    worker_id)`` pairs: the worker dies permanently at that simulated
    time; a job running on it is rescheduled (front of the queue) on a
    surviving worker.

    Notes
    -----
    Each attempt is settled as soon as its outcome is known.  A crash, a
    cache hit, an attempt whose billed minutes pass the policy timeout
    and an attempt of a run function that declares no duration are
    settled as they start: the run function (if needed) is called then,
    and one that fails holds its worker for the settlement's minutes
    before being retried or penalized, while one whose settlement raises
    frees its worker at once.

    A run function may declare ``duration(config) -> float``, the minutes
    its call on ``config`` will report, known without training
    (:meth:`repro.core.ModelEvaluation.duration`).  Its other attempts
    pend: a completion event is scheduled as they start, on the event
    counter an eager settlement would take, for the minutes the policy
    bills (the declared duration, times ``hang_factor`` for a hang), and
    the attempt is settled only when that event fires.  Its training is
    dealt to a trainer of the pool as it starts (the manager, or one of
    ``min(cores, num_workers) - 1`` forked workers), and its outcome is
    read when the event fires; the clock, the event queue, fault draws,
    settlement, the cache, events and checkpoints stay on the manager.
    Such a run function must be a pure function of its config: a pool
    worker, the manager and a retrain after a pool worker died then give
    one outcome, and the history does not depend on where or whether the
    pool ran.  The restart after a
    simulated worker death reuses its job's submitted training.  An
    attempt still waiting for a worker when the campaign stops is never
    trained, nor is one of the manager's share whose event never fired;
    :meth:`close` (called as ``Campaign.run`` returns) stops the workers'
    trainings of attempts whose events never fired.  The timeline, and so the
    search history, is the one eager settlement gives; the exception is a
    run function that raises, which fails at its declared end instead of
    after ``failure_duration``, and under ``on_error="raise"`` raises from
    :meth:`gather`.

    A cache hit skips the run-function call (no re-training) but is
    otherwise an ordinary attempt: it draws its fault, is settled like
    computed work and *replays the memoized duration on the simulated
    clock* — the worker stays reserved until ``start + duration`` — so the
    campaign timeline (and the search history) is bit-identical with the
    cache on or off.  A hit therefore counts its reserved minutes in the
    utilization account, as the recomputation it replays would.  A result
    is memoized when its attempt ends (its completion, or the end of the
    minutes an attempt settled at its start holds its worker), so a
    duplicate that starts while the original is still running misses and
    trains, whether the run function declares its duration or not.

    Jobs submitted while all workers are busy wait in the FIFO queue and
    are started when a worker frees.
    """

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        fault_policy: FaultPolicy | None = None,
        worker_failures: Iterable[tuple[float, int]] | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        super().__init__(run_function, num_workers, fault_policy=fault_policy, cache=cache)
        self.num_worker_failures = 0
        self._clock = 0.0
        self._events = EventQueue()  # payload: (kind, ref, attempt)
        self._free_workers = list(range(num_workers - 1, -1, -1))
        self._dead_workers: set[int] = set()
        self._running: dict[int, Job] = {}  # worker -> job
        self._pool = TrainingPool(run_function, num_workers)
        for fail_time, worker in worker_failures or ():
            if not 0 <= worker < num_workers:
                raise ValueError(f"worker_failures names unknown worker {worker}")
            self._events.push(float(fail_time), ("worker_fail", worker, 0))

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._clock

    @property
    def num_alive_workers(self) -> int:
        return self.num_workers - len(self._dead_workers)

    # ------------------------------------------------------------------ #
    def _has_free_worker(self) -> bool:
        return bool(self._free_workers)

    def close(self) -> None:
        """Terminate and join the training workers."""
        self._pool.close()

    def _launch(self, job: Job, kind: str | None, cached: EvaluationResult | None) -> None:
        """Run the attempt on a free worker: settle it now if its outcome
        is known, else schedule its completion event."""
        worker = self._free_workers.pop()
        job.worker = worker
        self._running[worker] = job
        duration = getattr(self.run_function, "duration", None)
        declared = None
        if kind != "crash" and cached is None and callable(duration):
            declared = duration(job.config)
            minutes = declared * self.fault_policy.hang_factor if kind == "hang" else declared
            timeout = self.fault_policy.timeout
            if timeout is None or minutes <= timeout:
                self._events.push(self._clock + minutes, ("complete", job, job.attempt))
                self._pool.submit(job.job_id, job.config)
                return
        if kind == "crash":
            outcome = _injected_crash(job)
        elif cached is not None:
            # A memoized duplicate skips the run function; its duration is
            # replayed on the simulated clock, as a recomputation would be.
            outcome = cached
        elif declared is not None:
            # Past the timeout whatever the training returns; nothing
            # trains, so the result holds no epochs.
            outcome = EvaluationResult(float("nan"), declared)
        else:
            outcome = evaluate(self.run_function, job.config)
        settlement = self._settle(job, kind, outcome, simulated_clock=True)
        if settlement.exception is not None:
            self._raise(job, settlement.exception)
        end_time = self._clock + settlement.minutes
        if settlement.retry:
            self._events.push(end_time, ("fail", job, job.attempt))
        else:
            job.end_time = end_time
            self._events.push(end_time, ("finish", job, job.attempt))

    def _complete(self, job: Job) -> None:
        """Settle a pending attempt at its completion event, with its
        training's outcome."""
        kind = self.fault_policy.fault(job.job_id, job.retries)
        outcome = self._pool.take(job.job_id, job.config)
        settlement = self._settle(job, kind, outcome, simulated_clock=True)
        if settlement.exception is not None:
            self._raise(job, settlement.exception)
        if not settlement.retry:
            job.end_time = self._clock
        self._end_attempt(job, settlement.retry)

    def _raise(self, job: Job, exception: BaseException) -> None:
        """End the attempt of ``job`` now and raise its settlement's exception."""
        job.end_time = self._clock
        self._release_worker(job.worker)
        raise exception

    def _end_attempt(self, job: Job, retry: bool) -> None:
        """Free the worker of an attempt that ended now; finish its job,
        or queue the retry (after the policy's backoff)."""
        self._release_worker(job.worker)
        if not retry:
            self._finish(job)
            return
        self._count_retry(job)
        delay = self.fault_policy.backoff_minutes(job.retries)
        if delay > 0:
            self._events.push(self._clock + delay, ("retry", job, job.attempt))
        else:
            self._queue.append(job)

    def _release_worker(self, worker: int) -> None:
        self._running.pop(worker, None)
        if worker not in self._dead_workers:
            self._free_workers.append(worker)

    def _on_worker_fail(self, worker: int) -> None:
        if worker in self._dead_workers:
            return
        self._dead_workers.add(worker)
        self.num_worker_failures += 1
        if self.event_bus is not None:
            from repro.campaign.events import WorkerDied

            self.event_bus.emit(WorkerDied(worker=worker, time=self._clock))
        if worker in self._free_workers:
            self._free_workers.remove(worker)
        job = self._running.pop(worker, None)
        if job is not None:
            # The in-flight job is rescheduled at the front of the queue;
            # bumping ``attempt`` invalidates its pending completion event.
            job.attempt += 1
            job.worker = -1
            job.state = JobState.PENDING
            self._queue.appendleft(job)

    def gather(self) -> list[Job]:
        """Advance the clock until at least one job finishes; return them.

        Workers freed by an attempt that raised are refilled first.
        """
        self._fill_workers()
        while not self._completed and self._events:
            next_time = self._events.peek_time()
            for end_time, (kind, ref, attempt) in self._events.drain_until(next_time):
                self._clock = max(self._clock, end_time)
                if kind == "worker_fail":
                    self._on_worker_fail(ref)
                elif ref.attempt != attempt:
                    continue  # stale event from a dead worker's attempt
                elif kind == "complete":
                    self._complete(ref)
                elif kind == "retry":
                    self._queue.append(ref)
                else:
                    self._end_attempt(ref, retry=kind == "fail")
            # Start queued jobs on the workers that just freed.
            self._fill_workers()
        if not self._completed and self._in_flight:
            raise RuntimeError(
                f"evaluator deadlocked: {self._in_flight} job(s) in flight but all "
                f"{self.num_workers} workers are dead"
            )
        return self._deliver()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the cluster state (queue, clock, counters)
        and of the jobs not delivered yet.

        Delivered jobs are final: a checkpoint journals each once, and
        :meth:`load_state` takes them back, with the snapshot's, in
        ``"jobs"``.  ``"raised"`` names the undelivered jobs a raising
        settlement failed, so a restore tells them from delivered ones.
        A pending attempt is its ``complete`` event; its job has no result
        and is trained again after a restore (on the pool, in event order),
        since the run function is deterministic in its config.
        """
        entries = self._events.entries()

        def encode_ref(kind: str, ref: Any) -> Any:
            return ref if kind == "worker_fail" else ref.job_id

        undelivered = self._undelivered.values()
        return {
            "num_workers": self.num_workers,
            "clock": self._clock,
            "next_id": self._next_id,
            "in_flight": self._in_flight,
            **{name: getattr(self, name) for name in _COUNTERS},
            "free_workers": list(self._free_workers),
            "dead_workers": sorted(self._dead_workers),
            "running": {str(w): job.job_id for w, job in self._running.items()},
            "waiting": [job.job_id for job in self._queue],
            # Finished beside an attempt that raised, delivered by the next gather.
            "completed": [job.job_id for job in self._completed],
            "events": [
                [t, c, kind, encode_ref(kind, ref), attempt]
                for t, c, (kind, ref, attempt) in entries
            ],
            "event_counter": max((c for _, c, _ in entries), default=-1) + 1,
            "jobs": [job_to_dict(job) for job in undelivered],
            "raised": [job.job_id for job in undelivered if job.state is JobState.FAILED],
            # Cache entries are rebuilt from the jobs; only counters ride along.
            "cache": None
            if self.cache is None
            else [self.cache.hits, self.cache.misses, self.cache.stores],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`state_dict`, its ``"jobs"``
        holding every job of the table (the delivered ones included), into
        an evaluator built with the checkpointed arguments (fault policy
        included)."""
        if state["num_workers"] != self.num_workers:
            raise ValueError(
                f"checkpoint has {state['num_workers']} workers, evaluator has "
                f"{self.num_workers}"
            )
        self._clock = float(state["clock"])
        self._next_id = int(state["next_id"])
        self._in_flight = int(state["in_flight"])
        for name in _COUNTERS:
            setattr(self, name, int(state.get(name, 0)))
        self._free_workers = [int(w) for w in state["free_workers"]]
        self._dead_workers = {int(w) for w in state["dead_workers"]}
        self.jobs = sorted((job_from_dict(row) for row in state["jobs"]), key=lambda j: j.job_id)
        by_id = {job.job_id: job for job in self.jobs}
        raised = {int(jid) for jid in state.get("raised", ())}
        self._undelivered = {
            job.job_id: job
            for job in self.jobs
            if job.state not in (JobState.DONE, JobState.FAILED) or job.job_id in raised
        }
        self._running = {int(w): by_id[jid] for w, jid in state["running"].items()}
        self._queue = collections.deque(by_id[jid] for jid in state["waiting"])
        self._completed = collections.deque(by_id[jid] for jid in state["completed"])
        self._events.restore(
            [
                (t, c, (kind, ref if kind == "worker_fail" else by_id[ref], attempt))
                for t, c, kind, ref, attempt in state["events"]
            ],
            int(state["event_counter"]),
        )
        if state["cache"] is not None:
            # A checkpoint written with caching on restores the cache even
            # when this evaluator was constructed without one.  Its entries
            # are the cacheable results of the jobs whose attempts ended for
            # good: the delivered ones and those finished beside an attempt
            # that raised.  The fault draw is pure, so the attempt that
            # produced a job's result is known again here.
            if self.cache is None:
                self.cache = EvaluationCache()
            ended = {job.job_id for job in self._completed}
            for job in self.jobs:
                if (job.state is JobState.DONE or job.job_id in ended) and self._cacheable(job):
                    self.cache.store(job.config, job.result)
            self.cache.hits, self.cache.misses, self.cache.stores = state["cache"]
        # Pending attempts are dealt to the trainers again, in event order.
        self._pool.close()
        self._pool = TrainingPool(self.run_function, self.num_workers)
        for _, _, (kind, ref, attempt) in self._events.entries():
            if kind == "complete" and ref.attempt == attempt:
                self._pool.submit(ref.job_id, ref.config)


class _WallClockEvaluator(Evaluator):
    """Shared machinery for the wall-clock (thread / process) backends.

    Time is wall-clock minutes since construction.  This class owns the
    tracked futures, the deadline scan and the whole of :meth:`gather`.
    The executor starts with the first attempt handed to a worker and
    :meth:`close` shuts it down, so a closed evaluator runs again.  A
    backend supplies only

    - ``_make_pool()``: a fresh executor with ``num_workers`` workers;
    - ``_worker_call``: the callable a worker runs on a job's config,
      which returns the run function's result;
    - ``_kill_workers()``: reclaim the workers of a broken or hung pool
      and return the innocent tracked jobs to restart.

    At most ``num_workers`` attempts are tracked at once and each has a
    worker of the current or an abandoned pool, so the executor never
    queues work behind a busy worker: an attempt's ``start_time`` (stamped
    on the manager as it is handed over) holds no queue wait, a kill or a
    crash ends only running attempts, and no more than ``num_workers`` job
    spans are ever open together.  Each tracked future maps to its job and
    the fault kind drawn when the attempt started, so gather settles the
    attempt with the kind it ran under.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.num_worker_crashes = 0
        self._t0 = _time.perf_counter()
        self._futures: dict[Future, tuple[Job, str | None]] = {}
        self._pool: Any = None  # started by the first launch

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return (_time.perf_counter() - self._t0) / 60.0

    # ------------------------------------------------------------------ #
    def _has_free_worker(self) -> bool:
        return len(self._futures) < self.num_workers

    def _launch(self, job: Job, kind: str | None, cached: EvaluationResult | None) -> None:
        """Hand the attempt to the pool and track its future.

        A crash or a cache hit never reaches a worker: its future is
        already resolved (to :class:`InjectedCrash`, or to the memoized
        result), and the next gather settles it like computed work.  Until
        then it holds its slot, as a simulated hit holds its worker.
        """
        if kind != "crash" and cached is None:
            if self._pool is None:
                self._pool = self._make_pool()
            future = self._pool.submit(self._worker_call, job.config)
        else:
            future = Future()
            if cached is None:
                future.set_exception(_injected_crash(job))
            else:
                future.set_result(cached)
        future.add_done_callback(self._stamp_end)
        self._futures[future] = (job, kind)

    def _stamp_end(self, future: Future) -> None:
        """Record when the attempt ended, on the manager's clock (runs in
        whichever thread resolves the future)."""
        future.end_time = self.now

    def _make_pool(self) -> Any:
        raise NotImplementedError

    def _worker_call(self, config: Any) -> EvaluationResult:
        raise NotImplementedError

    def _kill_workers(self) -> list[Job]:
        raise NotImplementedError

    def _wait_timeout(self) -> float | None:
        """Seconds to block in ``wait`` before the earliest policy deadline
        of a tracked attempt (None: no timeout, wait for a completion)."""
        timeout = self.fault_policy.timeout
        if timeout is None or not self._futures:
            return None
        start = min(job.start_time for job, _ in self._futures.values())
        return max(0.0, (start + timeout - self.now) * 60.0) + 1e-3

    def gather(self) -> list[Job]:
        """Block until at least one job finishes; return all finished jobs.

        Jobs already completed — siblings collected before a prior
        ``on_error="raise"`` exception — are returned immediately, never
        blocking on unrelated pending futures.  Ended attempts are
        collected *before* any are settled so that retries triggered by a
        crash or a kill are dispatched to the reclaimed pool, never to the
        broken one.  Only tracked futures deliver results: an attempt
        abandoned by a timeout was untracked when it was reaped, so its
        late return is dropped.  An attempt ends when its future resolved
        (stamped by a done-callback), not when gather collects it; one
        that returned at or past its deadline is reaped like one still
        running.
        """
        timeout = self.fault_policy.timeout
        while not self._completed and self._futures:
            done, _ = wait(self._futures, timeout=self._wait_timeout(), return_when=FIRST_COMPLETED)
            # Every attempt collected this round ended by ``now``, before the
            # pool is reclaimed or refilled.
            now = self.now
            # Phase 1: collect each ended attempt's outcome and end time
            # without touching the pool: a result, an exception, or None for
            # a timeout.  A future whose callback has not run yet ended by
            # ``now``.
            ended: list[tuple[Job, str | None, Any, float]] = []
            pool_broken = False
            for future in done:
                job, kind = self._futures.pop(future)
                end_time = getattr(future, "end_time", now)
                outcome = future.exception()
                if isinstance(outcome, BrokenExecutor):
                    pool_broken = True
                    self.num_worker_crashes += 1
                    outcome = RuntimeError(
                        f"job {job.job_id}: worker process crashed ({outcome!r})"
                    )
                elif timeout is not None and end_time >= job.start_time + timeout:
                    outcome = None  # returned at or past its deadline: reaped
                elif outcome is None:
                    outcome = future.result()
                ended.append((job, kind, outcome, end_time))
            # Phase 2: reap attempts past the policy deadline; a running one
            # forces a kill (an abandon, for threads).
            must_kill = False
            if timeout is not None:
                for future, (job, kind) in list(self._futures.items()):
                    if now >= job.start_time + timeout:
                        del self._futures[future]
                        if not future.cancel():
                            must_kill = True
                        ended.append((job, kind, None, now))
            # Phase 3: reclaim the pool if it is broken or holds hung
            # workers; innocent tracked jobs restart first, uncharged, and
            # queued attempts take the workers that are free.
            if pool_broken or must_kill:
                self._queue.extendleft(reversed(self._kill_workers()))
            self._fill_workers()
            # Phase 4: settle every ended attempt (the pool is healthy).
            first_error: BaseException | None = None
            for job, kind, outcome, end_time in ended:
                settlement = self._settle(job, kind, outcome)
                if settlement.retry:
                    self._count_retry(job)
                    self._dispatch(job)
                    continue
                # A cache hit computed nothing: it ends where it started.
                job.end_time = job.start_time if job.cache_hit else end_time
                if settlement.exception is not None:
                    first_error = first_error or settlement.exception
                else:
                    self._finish(job)
            if first_error is not None:
                raise first_error
        return self._deliver()

    def close(self) -> None:
        """Shut the pool down, waiting for its running attempts."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class ThreadedEvaluator(_WallClockEvaluator):
    """Real concurrent evaluation on a thread pool.

    Time is wall-clock minutes since construction; a job's result keeps
    the duration the run function declared.  Every attempt is settled by
    the same :meth:`FaultPolicy.settle` as on :class:`SimulatedEvaluator`,
    so exceptions and invalid objectives are raised, penalized or retried
    with the same errors and penalized durations.  ``timeout`` (wall-clock
    minutes) abandons stragglers: a thread cannot be killed, so the pool
    that holds one is replaced by a fresh pool of ``num_workers`` threads
    and the straggler finishes untracked, its result dropped.  Attempts
    still running on the old pool stay tracked and finish there, and
    every tracked attempt keeps a thread of its own.  Retries are
    resubmitted immediately (exponential backoff is a simulated-minutes
    concept; sleeping real minutes would stall the pool).  An optional
    ``cache`` serves duplicate configurations without a worker: a hit
    ends where it starts, with the memoized result.
    """

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.num_workers)

    def _worker_call(self, config: Any) -> EvaluationResult:
        return self.run_function(config)

    def _kill_workers(self) -> list[Job]:
        """Replace the pool; the hung thread and the running attempts of
        the old pool finish on their own threads."""
        self._pool.shutdown(wait=False)
        self._pool = self._make_pool()
        return []


class ProcessPoolEvaluator(_WallClockEvaluator):
    """True multi-core evaluation on a :class:`ProcessPoolExecutor`.

    The run function must be picklable (a module-level callable or a
    picklable object); it is pickled **once at construction** — failing
    fast with a clear error — and installed into each worker by the pool
    initializer, so heavy captured state crosses the process boundary once
    per worker instead of once per job.  Workers hold no event bus: every
    event, a trained attempt's ``EpochEnd`` included, is emitted by the
    manager from what the worker returned.

    Semantics beyond :class:`ThreadedEvaluator` parity:

    - worker crashes (abnormal exit, killed process) surface as
      :class:`concurrent.futures.BrokenExecutor`; the pool is rebuilt
      *before* any attempt is settled, and every attempt running at the
      moment of the break is settled as a failed attempt (the executor
      cannot attribute the crash to a single job).  ``num_worker_crashes``
      counts the affected attempts, ``num_pool_rebuilds`` the rebuilds;
    - timeouts are *real cancellations*: a hung attempt gets the worker
      processes terminated and the pool rebuilt, reclaiming the slot.
      Innocent running jobs caught in the kill restart first on the fresh
      pool without being charged a retry; queued attempts are untouched.
    """

    _worker_call = staticmethod(_process_worker_call)

    def __init__(self, run_function: RunFunction, *args: Any, **kwargs: Any) -> None:
        try:
            self._payload = pickle.dumps(run_function)
        except Exception as exc:
            raise TypeError(
                "ProcessPoolEvaluator requires a picklable run function "
                "(module-level callable or picklable object); "
                f"pickling failed with: {exc!r}"
            ) from exc
        self.num_pool_rebuilds = 0
        super().__init__(run_function, *args, **kwargs)

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_process_worker_init,
            initargs=(self._payload,),
        )

    def _kill_workers(self) -> list[Job]:
        """Terminate every worker process and build a fresh pool.

        Returns the innocent in-flight jobs (futures still tracked when the
        pool went down) that must be restarted on the new pool; they are
        not charged a retry — the fault was not theirs.
        """
        victims = [job for job, _ in self._futures.values()]
        self._futures.clear()
        for proc in list(getattr(self._pool, "_processes", {}).values()):
            proc.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()
        self.num_pool_rebuilds += 1
        return victims
