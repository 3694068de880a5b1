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
  reached; any other is run on the manager as its attempt starts.  It is
  the one checkpointable backend: a seeded simulated campaign is a
  deterministic function of its config, so a checkpoint journals only the
  finished jobs (:mod:`repro.core.serialization`) and a resume runs the
  campaign again up to it (:meth:`AgingEvolutionBase.resume
  <repro.core.search.AgingEvolutionBase.resume>`), with each journaled
  clean training served from its job line (:meth:`SimulatedEvaluator.serve`).
- :class:`ThreadedEvaluator` and :class:`ProcessPoolEvaluator` run
  evaluation functions concurrently, each worker a single-worker thread /
  process executor of its own, as thin shells over
  :class:`_WallClockEvaluator`, which owns the executors, the futures and
  ``gather``.

One job lifecycle serves every backend, and :class:`Evaluator` owns it:
the job table, the one FIFO of jobs waiting for a worker, the free
workers, the in-flight count, the run function, the
:class:`~repro.workflow.faults.FaultPolicy`, the optional
:class:`~repro.workflow.cache.EvaluationCache` and the failure counters.
Every attempt starts on the manager, which gives it a free worker's index,
stamps it ``RUNNING``, draws its injected fault from ``(fault_seed,
job_id, retries)``, consults the cache and hands it to the backend's
``_launch``;
it is settled by :meth:`FaultPolicy.settle
<repro.workflow.faults.FaultPolicy.settle>`, which decides accept, retry,
penalize or raise; an attempt that ends for good goes through one
``_finish``, which memoizes its result if it is cacheable; and a finished
job is delivered by one ``_deliver``, which ends it ``DONE`` or ``FAILED``
by its result's ``failed`` flag.  So on every backend a cache hit needs an
attempt of its config that has already ended.
The backends keep only their clocks, workers and ``gather`` scans, and
put an attempt's worker back when it ends; each clock decides which
attempts time out (the declared duration on the simulated clock, the reap
deadline on the wall clock).  No worker thread touches a job or emits an
event: an attempt's ``EpochEnd`` events come from its result as it
settles, so every backend gives one stream.

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
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterable, Sequence

from repro.workflow.cache import EvaluationCache, canonical_config_key
from repro.workflow.events import EventQueue
from repro.workflow.faults import FaultPolicy, InjectedCrash
from repro.workflow.jobs import EvaluationResult, Job, JobState
from repro.workflow.pool import TrainingPool

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


# --------------------------------------------------------------------- #
# Process worker plumbing.  The run function is pickled once at
# construction and installed into each worker process by its executor's
# initializer, so large captured state (datasets, cost models) crosses the
# process boundary once per worker instead of once per job.
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
    ``JobRetried``, ``FaultInjected``, ``CacheHit``,
    ``CacheStore``) and the ``EpochEnd`` events of each trained attempt
    through it when set, all on the manager.  ``num_failures`` counts failed
    attempts, ``num_retries`` re-runs, ``num_timeouts`` attempts past the
    policy timeout and ``num_faults_injected`` injected faults.

    The lifecycle lives here.  :meth:`submit` counts a job in flight and
    :meth:`_dispatch` queues it; :meth:`_fill_workers` starts queued
    attempts, oldest first, while a worker is free: each pops a worker
    index in ``[0, num_workers)`` from ``_free_workers`` into
    ``job.worker``, is stamped ``RUNNING`` and is handed to the backend's
    ``_launch(job, kind, cached)``.  Every attempt is settled once, when it
    ends, inside the backend's ``gather``, by :meth:`_settle`; the backend
    puts the attempt's worker back first, and requeues a job whose retry
    it books.  ``gather`` returns :meth:`_deliver`, which takes the
    finished jobs out of flight.

    A raise ends the campaign.  An attempt whose settlement raises
    (``on_error="raise"``) ends its job ``FAILED``, end-stamped, and the
    exception propagates from the ``gather`` that settled it (a ``submit``
    only starts attempts, so it never raises one); from then on every
    :meth:`submit` and ``gather`` refuses at once with a ``RuntimeError``
    whose ``__cause__`` is that exception.  The job table is left as the
    raise found it, for a post-mortem.  To go on past a failed
    evaluation, use ``on_error="penalize"`` or ``"retry"``.
    """

    event_bus = None
    #: Whether a search on this backend can checkpoint and resume: its
    #: campaign must replay bit-identically from its config.
    checkpointable = False

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
        self._queue: collections.deque[Job] = collections.deque()
        self._completed: collections.deque[Job] = collections.deque()
        self._in_flight = 0
        self._free_workers = list(range(num_workers - 1, -1, -1))
        self._raised: BaseException | None = None

    @property
    def num_in_flight(self) -> int:
        """Jobs submitted and not delivered yet (queued, running or finished)."""
        return self._in_flight

    def _dispatch(self, job: Job) -> None:
        """Queue an attempt of ``job`` and start queued attempts."""
        self._queue.append(job)
        self._fill_workers()

    def _fill_workers(self) -> None:
        """Start queued attempts, oldest first, each on the free worker
        freed last, while a worker is free."""
        while self._queue and self._free_workers:
            job = self._queue.popleft()
            job.worker = self._free_workers.pop()
            job.start_time = self.now
            job.attempt += 1
            job.state = JobState.RUNNING
            self._launch(job, *self._begin_attempt(job))

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
        self, job: Job, kind: str | None, outcome: Any, end_time: float,
        simulated_clock: bool = False
    ) -> bool:
        """Settle the attempt of ``job`` that ended at ``end_time`` (see
        :meth:`FaultPolicy.settle`) and record it: the counters and the
        job's error and result.  Then book a retry and return True (the
        backend requeues the job), or stamp the job's end and raise or
        :meth:`_finish`.  First, an attempt that trained (not a cache hit,
        a crash or a reap) emits the events the run function's optional
        ``epoch_events(job_id, config, result)`` hook makes of its raw
        result."""
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
        if settlement.retry:
            job.retries += 1
            self.num_retries += 1
            job.state = JobState.RETRYING
            job.worker = -1
            if self.event_bus is not None:
                from repro.campaign.events import JobRetried

                self.event_bus.emit(
                    JobRetried(
                        job_id=job.job_id, time=self.now, retries=job.retries, error=job.error
                    )
                )
            return True
        job.end_time = end_time
        if settlement.exception is not None:
            job.state = JobState.FAILED
            self._raised = settlement.exception
            raise settlement.exception
        self._finish(job)
        return False

    def _refuse_after_raise(self) -> None:
        """Raise if an attempt's settlement raised: the campaign is over."""
        if self._raised is not None:
            raise RuntimeError(
                "the evaluator raised under on_error='raise' and takes no more work; "
                "use on_error='penalize' or 'retry' to go on past a failed evaluation"
            ) from self._raised

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

    def submit(self, configs: Sequence[Any]) -> list[Job]:
        """Queue configurations for evaluation; returns the job records."""
        self._refuse_after_raise()
        out = []
        for config in configs:
            job = Job(job_id=self._next_id, config=config, submit_time=self.now)
            self._next_id += 1
            self.jobs.append(job)
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


class SimulatedEvaluator(Evaluator):
    """Event-driven simulation of a ``num_workers``-node cluster.

    ``run_function`` is called with a job's config and must return an
    :class:`EvaluationResult` whose ``duration`` is in simulated minutes;
    ``num_workers``, ``fault_policy`` and ``cache`` are as in
    :class:`Evaluator`.

    Notes
    -----
    Each attempt holds its worker from its start for the minutes the
    policy bills it and is settled once, when its one completion event
    fires inside :meth:`gather`.  The minutes come from the outcome known
    as the attempt starts: a crash, a cache hit, or the result of a run
    function that declares no duration (called then).  A run function
    may declare ``duration(config) -> float``, the minutes its call on
    ``config`` will report, known without training
    (:meth:`repro.core.ModelEvaluation.duration`); its attempt is billed
    the declared duration (times ``hang_factor`` for a hang) or times out.
    Unless it times out, its training is dealt to a trainer of the pool as
    it starts (the manager, or one of ``min(cores, num_workers) - 1``
    forked workers) and read when the event fires; the clock, the event
    queue, fault draws, settlement, the cache, events and checkpoints
    stay on the manager.  Such a run function must be a pure function of
    its config: a pool worker, the manager and a retrain after a pool
    worker died then give one outcome, and the history does not depend on
    where or whether the pool ran.  An attempt still waiting for a
    worker when the campaign stops is never trained, nor is one of the
    manager's share whose event never fired; :meth:`close` (called as
    ``Campaign.run`` returns) stops the workers' trainings of attempts
    whose events never fired.  Declaring the duration changes neither the
    timeline nor the history, except for a run function that raises,
    which fails at its declared end instead of after ``failure_duration``.

    A cache hit skips the run-function call (no re-training) but is
    otherwise an ordinary attempt: it draws its fault, is settled like
    computed work and *replays the memoized duration on the simulated
    clock* — the worker stays reserved until ``start + duration`` — so the
    campaign timeline (and the search history) is bit-identical with the
    cache on or off.  A hit therefore counts its reserved minutes in the
    utilization account, as the recomputation it replays would.  A result
    is memoized when its attempt ends, so a duplicate that starts while
    the original is still running misses and trains, whether the run
    function declares its duration or not.

    Jobs submitted while all workers are busy wait in the FIFO queue and
    are started when a worker frees.
    """

    checkpointable = True

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        super().__init__(run_function, num_workers, fault_policy=fault_policy, cache=cache)
        self._clock = 0.0
        self._events = EventQueue()  # payload: (kind, job, outcome)
        self._pool = TrainingPool(run_function, num_workers)

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._clock

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Terminate and join the training workers."""
        self._pool.close()

    def _launch(self, job: Job, kind: str | None, cached: EvaluationResult | None) -> None:
        """Run the attempt on its worker and push its one completion
        event, at the minutes the policy bills the outcome known now; a
        declared training is dealt to the pool unless it times out, and
        any other outcome rides on the event."""
        duration = getattr(self.run_function, "duration", None)
        declared = kind != "crash" and cached is None and callable(duration)
        if kind == "crash":
            outcome = _injected_crash(job)
        elif cached is not None:
            # A memoized duplicate skips the run function; its duration is
            # replayed on the simulated clock, as a recomputation would be.
            outcome = cached
        elif declared:
            # A stand-in billed as the training, and its outcome past the
            # timeout: nothing trains, so the result holds no epochs.
            outcome = EvaluationResult(float("nan"), duration(job.config))
        else:
            outcome = self._pool.outcome(job.config)
        settlement = self.fault_policy.settle(
            kind, outcome, job.job_id, job.retries, simulated_clock=True
        )
        if declared and not settlement.timed_out:
            self._pool.submit(job.job_id, job.config)
            outcome = None  # taken from the pool at the event
        self._events.push(self._clock + settlement.minutes, ("complete", job, outcome))

    def _complete(self, job: Job, outcome: Any) -> None:
        """Free the worker of an attempt that ended now and settle it with
        ``outcome`` (None: its training's, from the pool); a retry waits
        out the policy's backoff before it is queued."""
        self._free_workers.append(job.worker)
        if outcome is None:
            outcome = self._pool.take(job.job_id, job.config)
        kind = self.fault_policy.fault(job.job_id, job.retries)
        if self._settle(job, kind, outcome, self._clock, simulated_clock=True):
            delay = self.fault_policy.backoff_minutes(job.retries)
            if delay > 0:
                self._events.push(self._clock + delay, ("retry", job, None))
            else:
                self._queue.append(job)

    def gather(self) -> list[Job]:
        """Advance the clock until at least one job finishes; return them."""
        self._refuse_after_raise()
        while not self._completed and self._events:
            next_time = self._events.peek_time()
            for end_time, (kind, job, outcome) in self._events.drain_until(next_time):
                self._clock = max(self._clock, end_time)
                if kind == "complete":
                    self._complete(job, outcome)
                else:
                    self._queue.append(job)  # a retry's backoff is over
            # Start queued jobs on the workers that just freed.
            self._fill_workers()
        return self._deliver()

    def serve(self, jobs: Iterable[Job]) -> None:
        """Take the outcome of each config that one of ``jobs`` trained
        cleanly (:meth:`_cacheable`) from that job's result, in place of
        training it, until the next call (``serve(())`` ends it).

        A resume replays its campaign under this, so a journaled job is
        not trained again.  The served outcomes stay in the
        :class:`~repro.workflow.pool.TrainingPool`: the clock, the events
        and the cache never see them.
        """
        self._pool.served = {
            canonical_config_key(job.config): job.result for job in jobs if self._cacheable(job)
        }


class _WallClockEvaluator(Evaluator):
    """Shared machinery for the wall-clock (thread / process) backends.

    Time is wall-clock minutes since construction.  This class owns the
    workers, the tracked futures, the deadline scan and the whole of
    :meth:`gather`.  Each worker index has a single-worker executor of its
    own, started by the first attempt handed to that worker; :meth:`close`
    shuts them all down, so a closed evaluator runs again.  A backend
    supplies only

    - ``_new_worker()``: a fresh single-worker executor;
    - ``_worker_call``: the callable a worker runs on a job's config,
      which returns the run function's result.

    An attempt holds its worker (``job.worker``) until gather collects it,
    so an executor never queues work behind a busy worker: an attempt's
    ``start_time`` (stamped on the manager as it is handed over) holds no
    queue wait, and no more than ``num_workers`` job spans are ever open
    together.  The worker of an attempt that timed out, or whose process
    died, is stopped (:meth:`_retire`) and starts a fresh executor with its
    next attempt, so a timeout or a crash ends only its own attempt.  Each
    tracked future maps to its job and the fault kind drawn when the
    attempt started, so gather settles the attempt with the kind it ran
    under.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.num_worker_crashes = 0
        self._t0 = _time.perf_counter()
        self._futures: dict[Future, tuple[Job, str | None]] = {}
        self._executors: dict[int, Executor] = {}  # worker index -> its executor

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return (_time.perf_counter() - self._t0) / 60.0

    # ------------------------------------------------------------------ #
    def _launch(self, job: Job, kind: str | None, cached: EvaluationResult | None) -> None:
        """Hand the attempt to its worker's executor and track its future.

        A crash or a cache hit never reaches a worker: its future is
        already resolved (to :class:`InjectedCrash`, or to the memoized
        result), and the next gather settles it like computed work.  Until
        then it holds its worker, as a simulated hit holds its worker.
        """
        if kind != "crash" and cached is None:
            executor = self._executors.get(job.worker)
            if executor is None:
                executor = self._executors[job.worker] = self._new_worker()
            future = executor.submit(self._worker_call, job.config)
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

    def _new_worker(self) -> Executor:
        raise NotImplementedError

    def _worker_call(self, config: Any) -> EvaluationResult:
        raise NotImplementedError

    def _retire(self, worker: int) -> None:
        """Stop ``worker``'s executor; the worker's next attempt starts a
        fresh one.  Its process, if it has one, is terminated; a thread
        cannot be, so it runs on to its return, untracked."""
        executor = self._executors.pop(worker, None)
        if executor is not None:
            for proc in list((getattr(executor, "_processes", None) or {}).values()):
                proc.terminate()
            executor.shutdown(wait=False)

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

        Only tracked futures deliver results: an attempt abandoned by a
        timeout was untracked when it was reaped, so its late return is
        dropped.  An attempt ends when its future resolved (stamped by a
        done-callback), not when gather collects it; one that returned at
        or past its deadline is reaped like one still running.  Each ended
        attempt frees its worker as it is settled, and the queued attempts,
        then the retries just booked, take the free workers.  The first
        settlement that raises (``on_error="raise"``) raises at once and
        ends the campaign: the attempts collected with it are left
        unsettled.
        """
        self._refuse_after_raise()
        timeout = self.fault_policy.timeout
        while not self._completed and self._futures:
            done, _ = wait(self._futures, timeout=self._wait_timeout(), return_when=FIRST_COMPLETED)
            # Every attempt collected this round ended by ``now``.
            now = self.now
            # Phase 1: collect each ended attempt's outcome and end time: a
            # result, an exception, or None for a timeout.  A future whose
            # callback has not run yet ended by ``now``.  A worker whose
            # process died is stopped.
            ended: list[tuple[Job, str | None, Any, float]] = []
            for future in done:
                job, kind = self._futures.pop(future)
                end_time = getattr(future, "end_time", now)
                outcome = future.exception()
                if isinstance(outcome, BrokenExecutor):
                    self._retire(job.worker)
                    self.num_worker_crashes += 1
                    outcome = RuntimeError(
                        f"job {job.job_id}: worker process crashed ({outcome!r})"
                    )
                elif timeout is not None and end_time >= job.start_time + timeout:
                    outcome = None  # returned at or past its deadline: reaped
                elif outcome is None:
                    outcome = future.result()
                ended.append((job, kind, outcome, end_time))
            # Phase 2: reap the running attempts past the policy deadline,
            # stopping each one's worker.
            if timeout is not None:
                for future, (job, kind) in list(self._futures.items()):
                    if now >= job.start_time + timeout:
                        del self._futures[future]
                        self._retire(job.worker)
                        ended.append((job, kind, None, now))
            # Phase 3: free each ended attempt's worker and settle the
            # attempt, then start queued attempts and booked retries.
            for job, kind, outcome, end_time in ended:
                self._free_workers.append(job.worker)
                # A cache hit computed nothing: it ends where it started.
                if self._settle(job, kind, outcome, job.start_time if job.cache_hit else end_time):
                    self._queue.append(job)
            self._fill_workers()
        return self._deliver()

    def close(self) -> None:
        """Shut every worker down, waiting for its running attempt."""
        for executor in self._executors.values():
            executor.shutdown(wait=True, cancel_futures=True)
        self._executors.clear()


class ThreadedEvaluator(_WallClockEvaluator):
    """Real concurrent evaluation, one thread per worker.

    Time is wall-clock minutes since construction; a job's result keeps
    the duration the run function declared.  Every attempt is settled by
    the same :meth:`FaultPolicy.settle` as on :class:`SimulatedEvaluator`,
    so exceptions and invalid objectives are raised, penalized or retried
    with the same errors and penalized durations.  ``timeout`` (wall-clock
    minutes) abandons stragglers: a thread cannot be killed, so the
    straggler finishes untracked on its old thread, its result dropped,
    and its worker starts a fresh thread with its next attempt.  Attempts
    on the other workers run on undisturbed.  Retries are resubmitted
    immediately (exponential backoff is a simulated-minutes concept;
    sleeping real minutes would stall a worker).  An optional ``cache``
    serves duplicate configurations without a worker call: a hit ends
    where it starts, with the memoized result.
    """

    def _new_worker(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=1)

    def _worker_call(self, config: Any) -> EvaluationResult:
        return self.run_function(config)


class ProcessPoolEvaluator(_WallClockEvaluator):
    """True multi-core evaluation, one worker process per worker.

    Each worker is a single-worker :class:`ProcessPoolExecutor`, started
    by its first attempt.  The run function must be picklable (a
    module-level callable or a picklable object); it is pickled **once at
    construction** — failing fast with a clear error — and installed into
    each worker process by its executor's initializer, so heavy captured
    state crosses the process boundary once per worker process instead of
    once per job.  Workers hold no event bus: every event, a trained
    attempt's ``EpochEnd`` included, is emitted by the manager from what
    the worker returned.

    Semantics beyond :class:`ThreadedEvaluator` parity:

    - a worker crash (abnormal exit, killed process) surfaces as
      :class:`concurrent.futures.BrokenExecutor` on the one future of that
      worker's executor, so that attempt alone fails, settled like any
      failed attempt, and the worker starts a fresh process with its next
      attempt.  ``num_worker_crashes`` counts the crashed attempts;
    - timeouts are *real cancellations*: a hung attempt's worker process
      is terminated, reclaiming its CPU, and the worker starts a fresh
      process with its next attempt.  Attempts on the other workers run on
      undisturbed.
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
        super().__init__(run_function, *args, **kwargs)

    def _new_worker(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1, initializer=_process_worker_init, initargs=(self._payload,)
        )
