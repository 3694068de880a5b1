"""Evaluator backends implementing the submit/gather interface.

Algorithm 1 interacts with the cluster only through two calls —
``submit_evaluation`` (non-blocking) and ``get_finished_evaluations`` —
mirroring DeepHyper/Balsam.  Every backend here exposes exactly that:

- :class:`SimulatedEvaluator` advances a simulated clock to the next job
  completion; the *results* are computed by genuinely running the
  evaluation function at submit time, while the *completion time* comes
  from the ``duration`` the function reports (the training-cost model).
- :class:`ThreadedEvaluator` and :class:`ProcessPoolEvaluator` run
  evaluation functions concurrently on a thread / process pool.  Both
  are thin shells over :class:`_WallClockEvaluator`, which owns submit,
  dispatch and the whole of ``gather``: collect finished futures, reap
  attempts past the policy deadline, reclaim the pool when it broke or
  holds a hung worker, then route every outcome through the
  :class:`~repro.workflow.faults.FaultPolicy`.  A backend supplies only
  ``_make_pool``, ``_submit_attempt`` (a future resolving to ``(result,
  elapsed_min)``), ``_kill_workers`` (threads can only abandon a
  straggler; processes are terminated and the pool rebuilt) and the
  ``_busy_in_worker`` flag saying where busy time is measured.

All backends honor the same :class:`~repro.workflow.faults.FaultPolicy`
(retries with exponential backoff, per-job timeouts, penalized results,
seeded fault injection) and the same optional
:class:`~repro.workflow.cache.EvaluationCache` (duplicate configurations
are served from memo without re-training).  Every attempt starts on the
manager: it draws its injected fault from ``(fault_seed, job_id,
retries)`` and then consults the cache, so the fault sequence is the same
on every backend and with the cache on or off.  The simulated backend
additionally models worker failures — a worker dies at a scheduled time,
its in-flight job is rescheduled on a surviving worker — and is
checkpointable via ``state_dict`` / ``load_state`` so a killed campaign
resumes bit-identically.  Its job table is the one stored copy of
every evaluation: the search history and the cache entries are rebuilt
from it on load.
"""

from __future__ import annotations

import collections
import copy
import pickle
import threading
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
from repro.workflow.faults import FaultPolicy, InjectedCrash
from repro.workflow.jobs import EvaluationResult, Job, JobState, job_from_dict, job_to_dict

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
# Process-pool worker plumbing.  The run function is pickled once at
# construction and installed into each worker via the pool initializer, so
# large captured state (datasets, cost models) crosses the process
# boundary once per worker instead of once per job.
# --------------------------------------------------------------------- #
_WORKER_RUN_FUNCTION: RunFunction | None = None


def _process_worker_init(payload: bytes) -> None:
    global _WORKER_RUN_FUNCTION
    _WORKER_RUN_FUNCTION = pickle.loads(payload)


def _process_worker_call(config: Any) -> tuple[EvaluationResult, float]:
    """Run one evaluation in a worker; returns (result, elapsed minutes)."""
    assert _WORKER_RUN_FUNCTION is not None, "worker pool not initialized"
    t0 = _time.perf_counter()
    result = _WORKER_RUN_FUNCTION(config)
    return result, (_time.perf_counter() - t0) / 60.0


def _strip_event_bus(fn: Any) -> Any:
    """A shallow copy of a run function with its event bus detached.

    Campaign buses hold arbitrary subscribers (open JSONL files, stdout
    reporters) that cannot cross a process boundary; worker-side emissions
    could not reach the manager's bus anyway.
    """
    if getattr(fn, "event_bus", None) is None:
        return fn
    clone = copy.copy(fn)
    clone.event_bus = None
    return clone


def _injected_crash(job: Job) -> InjectedCrash:
    return InjectedCrash(f"injected crash: job {job.job_id}, retry {job.retries}")


class Evaluator:
    """Abstract manager-worker evaluator.

    ``event_bus`` is an optional campaign event bus (attached by
    :func:`repro.campaign.build_campaign`); backends emit job lifecycle
    events (:class:`~repro.campaign.events.JobSubmitted`, ``JobGathered``,
    ``JobRetried``, ``WorkerDied``, ``FaultInjected``, ``CacheHit``,
    ``CacheStore``) through it when set.  ``cache`` is an optional
    :class:`~repro.workflow.cache.EvaluationCache` consulted as each
    attempt starts and filled by clean successful attempts.
    """

    event_bus = None
    cache: EvaluationCache | None = None

    def _emit_submitted(self, job: Job) -> None:
        if self.event_bus is not None:
            from repro.campaign.events import JobSubmitted

            self.event_bus.emit(JobSubmitted(job_id=job.job_id, time=job.submit_time))

    def _emit_gathered(self, job: Job) -> None:
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

    def _emit_retried(self, job: Job) -> None:
        if self.event_bus is not None:
            from repro.campaign.events import JobRetried

            self.event_bus.emit(
                JobRetried(
                    job_id=job.job_id,
                    time=self.now,
                    retries=job.retries,
                    error=job.error,
                )
            )

    def _emit_cache_hit(self, job: Job) -> None:
        if self.event_bus is not None and self.cache is not None:
            from repro.campaign.events import CacheHit

            self.event_bus.emit(
                CacheHit(job_id=job.job_id, key=self.cache.key(job.config), time=self.now)
            )

    def _emit_cache_store(self, job: Job) -> None:
        if self.event_bus is not None and self.cache is not None:
            from repro.campaign.events import CacheStore

            self.event_bus.emit(
                CacheStore(job_id=job.job_id, key=self.cache.key(job.config), time=self.now)
            )

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
        if job.cache_hit:
            self._emit_cache_hit(job)
        return kind, cached

    def _cache_store(self, job: Job) -> None:
        """Memoize a successful, freshly computed result of a clean attempt
        (a hang or a corruption never reaches the cache)."""
        if self.cache is None or job.cache_hit or job.result is None:
            return
        if self.cache.store(job.config, job.result):
            self._emit_cache_store(job)

    def submit(self, configs: Sequence[Any]) -> list[Job]:
        """Queue configurations for evaluation; returns the job records."""
        raise NotImplementedError

    def gather(self) -> list[Job]:
        """Return at least one finished job (empty only if none in flight)."""
        raise NotImplementedError

    @property
    def now(self) -> float:
        """Current time in minutes (simulated or wall-clock)."""
        raise NotImplementedError

    @property
    def num_in_flight(self) -> int:
        raise NotImplementedError

    # -- checkpointing (optional per backend) -------------------------- #
    def state_dict(self) -> dict[str, Any]:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    def load_state(self, state: dict[str, Any]) -> None:
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")


class SimulatedEvaluator(Evaluator):
    """Event-driven simulation of a ``num_workers``-node cluster.

    Parameters
    ----------
    run_function:
        Called once per attempt (at start time); must return an
        :class:`EvaluationResult` whose ``duration`` is in simulated
        minutes.
    num_workers:
        W in the paper (128 on Theta; scaled down in the benches).
    fault_policy:
        Uniform failure handling (see :class:`FaultPolicy`).
    worker_failures:
        Optional ``(time_minutes, worker_id)`` pairs: the worker dies
        permanently at that simulated time; a job running on it is
        rescheduled (front of the queue) on a surviving worker.
    cache:
        Optional :class:`~repro.workflow.cache.EvaluationCache`.  A hit
        skips the run-function call (no re-training) but is otherwise an
        ordinary attempt: it draws its fault, passes the timeout and
        classify checks, and *replays the memoized duration on the
        simulated clock* — the worker stays reserved until ``start +
        duration`` — so the campaign timeline (and the search history) is
        bit-identical with the cache on or off.  Hits are credited zero
        busy time, keeping ``utilization()`` honest about compute that
        never happened.

    Notes
    -----
    Jobs submitted while all workers are busy wait in a FIFO queue and are
    started when a worker frees — their results are computed lazily at
    start so the run function observes correct ordering.  Worker busy time
    is tracked for the node-utilization analysis (§IV-C, ≈94%);
    ``utilization()`` is busy worker-minutes over *alive* worker-minutes,
    so dead workers stop counting against the denominator.
    """

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        fault_policy: FaultPolicy | None = None,
        worker_failures: Iterable[tuple[float, int]] | None = None,
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
        self.num_worker_failures = 0
        self._clock = 0.0
        self._events = EventQueue()  # payload: (kind, ref, attempt)
        self._free_workers = list(range(num_workers - 1, -1, -1))
        self._dead_workers: set[int] = set()
        self._running: dict[int, Job] = {}  # worker -> job
        self._waiting: collections.deque[Job] = collections.deque()
        self._next_id = 0
        self._in_flight = 0
        self._busy_time = 0.0
        self._capacity_time = 0.0  # integral of alive workers over time
        self.jobs: list[Job] = []
        for fail_time, worker in worker_failures or ():
            if not 0 <= worker < num_workers:
                raise ValueError(f"worker_failures names unknown worker {worker}")
            self._events.push(float(fail_time), ("worker_fail", worker, 0))

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return self._clock

    @property
    def num_in_flight(self) -> int:
        return self._in_flight

    @property
    def num_free_workers(self) -> int:
        return len(self._free_workers)

    @property
    def num_alive_workers(self) -> int:
        return self.num_workers - len(self._dead_workers)

    def utilization(self) -> float:
        """Busy worker-minutes over available (alive) worker-minutes so far."""
        if self._capacity_time == 0.0:
            return 0.0
        return self._busy_time / self._capacity_time

    # ------------------------------------------------------------------ #
    def submit(self, configs: Sequence[Any]) -> list[Job]:
        out = []
        for config in configs:
            job = Job(job_id=self._next_id, config=config, submit_time=self._clock)
            self._next_id += 1
            self.jobs.append(job)
            self._in_flight += 1
            self._emit_submitted(job)
            if self._free_workers:
                self._start(job)
            else:
                self._waiting.append(job)
            out.append(job)
        return out

    def _start(self, job: Job) -> None:
        """Run one attempt of ``job`` on a free worker."""
        policy = self.fault_policy
        worker = self._free_workers.pop()
        job.worker = worker
        job.state = JobState.RUNNING
        job.start_time = self._clock
        job.attempt += 1
        self._running[worker] = job
        kind, cached = self._begin_attempt(job)
        failure: str | None = None
        attempt_duration = policy.failure_duration
        try:
            if kind == "crash":
                raise _injected_crash(job)
            # A memoized duplicate skips the run function; its duration is
            # replayed on the simulated clock, as a recomputation would be.
            result = cached if cached is not None else self.run_function(job.config)
        except Exception as exc:
            if policy.on_error == "raise":
                raise
            failure = repr(exc)
        else:
            result = policy.inject(kind, result)
            if policy.timeout is not None and result.duration > policy.timeout:
                failure = f"timeout after {policy.timeout} min (duration {result.duration:.2f})"
                attempt_duration = policy.timeout
                self.num_timeouts += 1
            else:
                failure = policy.classify(result)
                if failure is not None:
                    attempt_duration = result.duration
                if failure is not None and policy.on_error == "raise":
                    raise RuntimeError(f"job {job.job_id}: {failure}")
        if failure is None:
            job.result = result
            job.end_time = self._clock + result.duration
            self._events.push(job.end_time, ("finish", job, job.attempt))
            if kind is None:
                self._cache_store(job)
            return
        # Failed attempt: the worker is occupied for the attempt duration.
        job.error = failure
        self.num_failures += 1
        if policy.should_retry(job.retries):
            self._events.push(self._clock + attempt_duration, ("fail", job, job.attempt))
        else:
            job.result = policy.failure_result(failure, attempt_duration)
            job.end_time = self._clock + attempt_duration
            self._events.push(job.end_time, ("finish", job, job.attempt))

    # ------------------------------------------------------------------ #
    def _advance(self, t: float) -> None:
        if t > self._clock:
            self._capacity_time += self.num_alive_workers * (t - self._clock)
            self._clock = t

    def _release_worker(self, worker: int) -> None:
        self._running.pop(worker, None)
        if worker not in self._dead_workers:
            self._free_workers.append(worker)

    def _fill_workers(self) -> None:
        while self._waiting and self._free_workers:
            self._start(self._waiting.popleft())

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
            if not job.cache_hit:
                self._busy_time += self._clock - job.start_time
            job.attempt += 1
            job.worker = -1
            job.state = JobState.PENDING
            self._waiting.appendleft(job)

    def gather(self) -> list[Job]:
        """Advance the clock until at least one job finishes; return them."""
        while self._events:
            next_time = self._events.peek_time()
            finished: list[Job] = []
            for end_time, (kind, ref, attempt) in self._events.drain_until(next_time):
                self._advance(end_time)
                if kind == "worker_fail":
                    self._on_worker_fail(ref)
                    continue
                job = ref
                if job.attempt != attempt:
                    continue  # stale event from a dead worker's attempt
                if kind == "finish":
                    job.state = (
                        JobState.FAILED if job.result.metadata.get("failed") else JobState.DONE
                    )
                    if not job.cache_hit:
                        # Cache hits reserved the worker for the memoized
                        # duration but computed nothing: zero busy credit.
                        self._busy_time += end_time - job.start_time
                    self._release_worker(job.worker)
                    self._in_flight -= 1
                    finished.append(job)
                elif kind == "fail":
                    if not job.cache_hit:
                        self._busy_time += end_time - job.start_time
                    self._release_worker(job.worker)
                    job.retries += 1
                    self.num_retries += 1
                    job.state = JobState.RETRYING
                    job.worker = -1
                    self._emit_retried(job)
                    delay = self.fault_policy.backoff_minutes(job.retries)
                    if delay > 0:
                        self._events.push(self._clock + delay, ("retry", job, job.attempt))
                    else:
                        self._waiting.append(job)
                elif kind == "retry":
                    self._waiting.append(job)
            # Start queued jobs on the workers that just freed.
            self._fill_workers()
            if finished:
                for job in finished:
                    self._emit_gathered(job)
                return finished
        if self._in_flight:
            raise RuntimeError(
                f"evaluator deadlocked: {self._in_flight} job(s) in flight but all "
                f"{self.num_workers} workers are dead"
            )
        return []

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of the full cluster state (jobs, queue, clock)."""
        entries = self._events.entries()

        def encode_ref(kind: str, ref: Any) -> Any:
            return ref if kind == "worker_fail" else ref.job_id

        return {
            "num_workers": self.num_workers,
            "clock": self._clock,
            "busy_time": self._busy_time,
            "capacity_time": self._capacity_time,
            "next_id": self._next_id,
            "in_flight": self._in_flight,
            "num_failures": self.num_failures,
            "num_faults_injected": self.num_faults_injected,
            "num_retries": self.num_retries,
            "num_timeouts": self.num_timeouts,
            "num_worker_failures": self.num_worker_failures,
            "free_workers": list(self._free_workers),
            "dead_workers": sorted(self._dead_workers),
            "running": {str(w): job.job_id for w, job in self._running.items()},
            "waiting": [job.job_id for job in self._waiting],
            "events": [
                [t, c, kind, encode_ref(kind, ref), attempt]
                for t, c, (kind, ref, attempt) in entries
            ],
            "event_counter": max((c for _, c, _ in entries), default=-1) + 1,
            "jobs": [job_to_dict(job) for job in self.jobs],
            # Cache entries are rebuilt from the jobs; only counters ride along.
            "cache": None
            if self.cache is None
            else [self.cache.hits, self.cache.misses, self.cache.stores],
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore a snapshot taken by :meth:`state_dict` into an evaluator
        built with the checkpointed arguments (fault policy included)."""
        if state["num_workers"] != self.num_workers:
            raise ValueError(
                f"checkpoint has {state['num_workers']} workers, evaluator has "
                f"{self.num_workers}"
            )
        self._clock = float(state["clock"])
        self._busy_time = float(state["busy_time"])
        self._capacity_time = float(state["capacity_time"])
        self._next_id = int(state["next_id"])
        self._in_flight = int(state["in_flight"])
        self.num_failures = int(state["num_failures"])
        self.num_faults_injected = int(state.get("num_faults_injected", 0))
        self.num_retries = int(state["num_retries"])
        self.num_timeouts = int(state["num_timeouts"])
        self.num_worker_failures = int(state["num_worker_failures"])
        self._free_workers = [int(w) for w in state["free_workers"]]
        self._dead_workers = {int(w) for w in state["dead_workers"]}
        self.jobs = [job_from_dict(row) for row in state["jobs"]]
        by_id = {job.job_id: job for job in self.jobs}
        self._running = {int(w): by_id[jid] for w, jid in state["running"].items()}
        self._waiting = collections.deque(by_id[jid] for jid in state["waiting"])
        self._events.restore(
            [
                (t, c, (kind, ref if kind == "worker_fail" else by_id[ref], attempt))
                for t, c, kind, ref, attempt in state["events"]
            ],
            int(state["event_counter"]),
        )
        if state["cache"] is not None:
            # A checkpoint written with caching on restores the cache even
            # when this evaluator was constructed without one.  Every job
            # with a non-failed result from a clean attempt holds its key's
            # memoized entry: the first clean success is stored at start and
            # every later job with that key replays it (a restart after a
            # worker death included).  The fault draw is pure, so the
            # attempt that produced a job's result is known again here.
            if self.cache is None:
                self.cache = EvaluationCache()
            for job in self.jobs:
                if (
                    job.result is not None
                    and not job.result.metadata.get("failed")
                    and self.fault_policy.fault(job.job_id, job.retries) is None
                ):
                    self.cache.store(job.config, job.result)
            self.cache.hits, self.cache.misses, self.cache.stores = state["cache"]


class _WallClockEvaluator(Evaluator):
    """Shared machinery for the wall-clock (thread / process) backends.

    Time is wall-clock minutes since construction.  This class owns submit
    bookkeeping, :meth:`_dispatch`, the deadline scan and the whole of
    :meth:`gather`; a backend supplies only

    - ``_make_pool()``: a fresh executor with ``num_workers`` workers;
    - ``_submit_attempt(job)``: queue one attempt on a worker and track its
      future, which resolves to ``(result, elapsed_min)``;
    - ``_kill_workers()``: reclaim every worker of a broken or hung pool
      and return the innocent in-flight jobs to re-dispatch;
    - ``_busy_in_worker``: ``True`` when attempts stamp ``start_time`` and
      credit busy time inside the worker (threads), ``False`` when a job
      is ``RUNNING`` from dispatch and gather credits busy time
      (processes).
    """

    _busy_in_worker = False

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        measure_wall_time: bool = False,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.run_function = run_function
        self.num_workers = num_workers
        self.measure_wall_time = measure_wall_time
        self.cache = cache
        self.fault_policy = fault_policy or FaultPolicy()
        self.num_failures = 0
        self.num_faults_injected = 0
        self.num_retries = 0
        self.num_timeouts = 0
        self.num_worker_crashes = 0
        self._t0 = _time.perf_counter()
        self._futures: dict[Future, Job] = {}
        self._completed: collections.deque[Job] = collections.deque()
        self._busy_time = 0.0
        self._lock = threading.Lock()
        self._next_id = 0
        self.jobs: list[Job] = []
        self._pool = self._make_pool()

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        return (_time.perf_counter() - self._t0) / 60.0

    @property
    def num_in_flight(self) -> int:
        with self._lock:
            return len(self._futures) + len(self._completed)

    def utilization(self) -> float:
        """Measured busy worker-minutes over elapsed worker-minutes."""
        elapsed = self.now
        if elapsed == 0.0:
            return 0.0
        return self._busy_time / (self.num_workers * elapsed)

    # ------------------------------------------------------------------ #
    def submit(self, configs: Sequence[Any]) -> list[Job]:
        out = []
        for config in configs:
            with self._lock:
                job = Job(job_id=self._next_id, config=config, submit_time=self.now)
                self._next_id += 1
                self.jobs.append(job)
            self._emit_submitted(job)
            self._dispatch(job)
            out.append(job)
        return out

    def _dispatch(self, job: Job) -> None:
        """Start one attempt of ``job``.

        A crash or a cache hit never reaches a worker: its future is
        already resolved (to :class:`InjectedCrash`, or to the memoized
        result with zero elapsed time), so the next gather routes it
        through the same policy checks as computed work.
        """
        kind, cached = self._begin_attempt(job)
        if kind != "crash" and cached is None:
            self._submit_attempt(job)
            return
        future: Future = Future()
        if cached is None:
            future.set_exception(_injected_crash(job))
        else:
            future.set_result((cached, 0.0))
        with self._lock:
            self._start_attempt(job)
            self._futures[future] = job

    def _make_pool(self) -> Any:
        raise NotImplementedError

    def _submit_attempt(self, job: Job) -> None:
        raise NotImplementedError

    def _kill_workers(self) -> list[Job]:
        raise NotImplementedError

    def _start_attempt(self, job: Job) -> None:
        """Mark a new attempt of ``job`` as running (caller holds the lock)."""
        job.state = JobState.RUNNING
        job.start_time = self.now
        job.attempt += 1

    def _credit(self, minutes: float) -> None:
        with self._lock:
            self._busy_time += minutes

    def _credit_unmeasured(self, jobs: list[Job]) -> None:
        """Credit attempts that ended with no in-worker timing.

        Crashed, raising, reaped and killed attempts are credited wall time
        since dispatch — but executors start work in FIFO order, so only
        the ``num_workers`` oldest dispatches can have been running; the
        younger ones were still queued and are credited nothing.
        """
        now = self.now
        oldest = sorted(jobs, key=lambda job: job.start_time)[: self.num_workers]
        self._credit(sum(max(0.0, now - job.start_time) for job in oldest))

    def _finalize(self, job: Job, state: JobState) -> None:
        # Busy time is credited per attempt as attempts end, not here.  A
        # cache hit computed nothing: it ends where it started.
        job.end_time = job.start_time if job.cache_hit else self.now
        job.state = state

    def _handle_failure(self, job: Job, error: str, finished: list[Job]) -> None:
        """Penalize or retry one failed attempt (policy is not 'raise')."""
        policy = self.fault_policy
        job.error = error
        self.num_failures += 1
        if policy.should_retry(job.retries):
            job.retries += 1
            self.num_retries += 1
            job.state = JobState.RETRYING
            self._emit_retried(job)
            self._dispatch(job)
        else:
            job.result = policy.failure_result(error)
            self._finalize(job, JobState.FAILED)
            finished.append(job)

    def _wait_timeout(self, pending_jobs: Iterable[Job]) -> float | None:
        """Seconds to block in ``wait`` before the earliest policy deadline.

        Jobs that are dispatched but not yet started (``RETRYING`` retries
        queued behind busy workers, fresh ``PENDING`` dispatches) carry a
        stale or zero ``start_time``; their deadline cannot be earlier than
        ``now + timeout``, so that bound keeps the wait finite — a retry
        that starts and then hangs is re-examined (and reaped) instead of
        blocking gather forever on a wait with no timeout.
        """
        policy = self.fault_policy
        if policy.timeout is None:
            return None
        now = self.now
        deadlines = [
            (job.start_time if job.state is JobState.RUNNING else now) + policy.timeout
            for job in pending_jobs
        ]
        if not deadlines:
            return None
        return max(0.0, (min(deadlines) - now) * 60.0) + 1e-3

    def gather(self) -> list[Job]:
        """Block until at least one job finishes; return all finished jobs.

        Jobs already buffered in ``_completed`` — siblings collected before
        a prior ``on_error="raise"`` exception — are returned immediately,
        never blocking on unrelated pending futures.  Outcomes are
        collected *before* any failure routing so that retries triggered
        by a crash or a kill are dispatched to the reclaimed pool, never
        to the broken one.  Only tracked futures deliver results: an
        attempt abandoned by a timeout was untracked when it was reaped, so
        its late return is dropped.
        """
        policy = self.fault_policy
        while True:
            with self._lock:
                finished = list(self._completed)
                self._completed.clear()
                pending = dict(self._futures)
            if finished:
                for job in finished:
                    self._emit_gathered(job)
                return finished
            if not pending:
                return []
            done, _ = wait(
                pending.keys(),
                timeout=self._wait_timeout(pending.values()),
                return_when=FIRST_COMPLETED,
            )
            # Phase 1: collect outcomes without touching the pool.
            outcomes: list[tuple[Job, BaseException | None, Any]] = []
            for future in done:
                with self._lock:
                    job = self._futures.pop(future, None)
                if job is None:
                    continue  # already reaped by a timeout
                exc = future.exception()
                outcomes.append((job, exc, None if exc is not None else future.result()))
            pool_broken = any(isinstance(exc, BrokenExecutor) for _, exc, _ in outcomes)
            # Phase 2: reap attempts past the policy deadline.  Attempts
            # still queued are cancelled in place; attempts already running
            # in a worker force a kill (an abandon, for threads).
            overdue: list[Job] = []
            unmeasured = [
                job
                for job, exc, _ in outcomes
                if exc is not None and not isinstance(exc, InjectedCrash)
            ]
            must_kill = False
            if policy.timeout is not None:
                now = self.now
                for future, job in pending.items():
                    if future in done or job.state is not JobState.RUNNING:
                        continue
                    if now >= job.start_time + policy.timeout:
                        with self._lock:
                            self._futures.pop(future, None)
                            self.num_timeouts += 1
                        if not future.cancel():
                            must_kill = True
                            unmeasured.append(job)
                        overdue.append(job)
            # Phase 3: reclaim the pool if it is broken or holds hung
            # workers; innocent in-flight jobs are re-dispatched uncharged.
            victims = self._kill_workers() if pool_broken or must_kill else []
            if not self._busy_in_worker:
                self._credit_unmeasured(unmeasured + victims)
            for job in victims:
                self._dispatch(job)
            # Phase 4: route outcomes through the policy (pool is healthy).
            failures: list[tuple[Job, str, BaseException]] = []
            for job, exc, payload in outcomes:
                if exc is None:
                    result, elapsed_min = payload
                    if not self._busy_in_worker:
                        self._credit(elapsed_min)
                    if self.measure_wall_time and not job.cache_hit:
                        result = EvaluationResult(
                            result.objective, elapsed_min, result.metadata
                        )
                    kind = policy.fault(job.job_id, job.retries)
                    job.result = policy.inject(kind, result)
                    error = policy.classify(job.result)
                    if error is None:
                        self._finalize(job, JobState.DONE)
                        if kind is None:
                            self._cache_store(job)
                        finished.append(job)
                        continue
                    exc = RuntimeError(f"job {job.job_id}: {error}")
                elif isinstance(exc, BrokenExecutor):
                    self.num_worker_crashes += 1
                    exc = RuntimeError(f"job {job.job_id}: worker process crashed ({exc!r})")
                failures.append((job, repr(exc), exc))
            for job in overdue:
                error = f"timeout after {policy.timeout} min"
                failures.append((job, error, TimeoutError(f"job {job.job_id}: {error}")))
            first_error: BaseException | None = None
            for job, error, exc in failures:
                if policy.on_error == "raise":
                    job.error = error
                    self._finalize(job, JobState.FAILED)
                    first_error = first_error or exc
                else:
                    self._handle_failure(job, error, finished)
            if first_error is not None:
                with self._lock:
                    self._completed.extend(finished)
                raise first_error
            if finished:
                for job in finished:
                    self._emit_gathered(job)
                return finished

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Alias for :meth:`shutdown` (context-manager parity)."""
        self.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ThreadedEvaluator(_WallClockEvaluator):
    """Real concurrent evaluation on a thread pool.

    Time is wall-clock minutes since construction.  The reported job
    duration is the run function's declared duration unless
    ``measure_wall_time=True``, in which case the measured elapsed time
    (in minutes) replaces it.

    The :class:`FaultPolicy` surface matches :class:`SimulatedEvaluator`
    (API parity): exceptions and invalid objectives are raised, penalized
    or retried; ``timeout`` (wall-clock minutes) abandons stragglers — the
    worker thread keeps running but the job is finalized with a penalized
    result so the campaign never blocks on a hung evaluation.  Retries are
    resubmitted immediately (exponential backoff is a simulated-minutes
    concept; sleeping real minutes would stall the pool).

    Worker busy time is accumulated *per attempt* as each attempt's thread
    returns (a retried job credits every attempt, not just the last, and
    an abandoned attempt credits its time when its thread finally
    returns), and an optional ``cache`` serves duplicate configurations
    without a worker: a hit ends where it starts, with the memoized
    result and zero busy-time credit.
    """

    _busy_in_worker = True

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=self.num_workers)

    def _submit_attempt(self, job: Job) -> None:
        def attempt() -> tuple[EvaluationResult, float]:
            with self._lock:
                self._start_attempt(job)
            t0 = _time.perf_counter()
            try:
                result = self.run_function(job.config)
            finally:
                # Every attempt that ran credits its own elapsed time,
                # including failed ones and abandoned ones that return late.
                elapsed_min = (_time.perf_counter() - t0) / 60.0
                self._credit(elapsed_min)
            return result, elapsed_min

        future = self._pool.submit(attempt)
        with self._lock:
            self._futures[future] = job

    def _kill_workers(self) -> list[Job]:
        return []  # threads cannot be killed; a hung attempt is abandoned


class ProcessPoolEvaluator(_WallClockEvaluator):
    """True multi-core evaluation on a :class:`ProcessPoolExecutor`.

    The run function must be picklable (a module-level callable or a
    picklable object); it is pickled **once at construction** — failing
    fast with a clear error — and installed into each worker by the pool
    initializer, so heavy captured state crosses the process boundary once
    per worker instead of once per job.  Attached campaign event buses are
    stripped from the pickled copy (worker-side emissions could not reach
    the manager's bus); all lifecycle events are emitted by the manager.

    Semantics beyond :class:`ThreadedEvaluator` parity:

    - a job is marked ``RUNNING`` when its attempt is *dispatched* (the
      manager cannot observe the exact moment a worker picks it up), so
      the policy ``timeout`` covers queue delay + execution;
    - worker crashes (abnormal exit, killed process) surface as
      :class:`concurrent.futures.BrokenExecutor`; the pool is rebuilt
      *before* any failure routing, and every attempt in flight at the
      moment of the break is routed through the :class:`FaultPolicy` as a
      failed attempt (the executor cannot attribute the crash to a single
      job).  ``num_worker_crashes`` counts the affected attempts,
      ``num_pool_rebuilds`` the rebuilds;
    - timeouts are *real cancellations*: a hung attempt that cannot be
      cancelled from the queue gets the worker processes terminated and
      the pool rebuilt, reclaiming the slot (threads can only abandon).
      Innocent in-flight jobs caught in the kill are re-dispatched on the
      fresh pool without being charged a retry.

    Busy time is credited per attempt: successful attempts report their
    measured in-worker wall time; crashed/timed-out/failed attempts are
    credited manager-observed wall time since dispatch, and only the
    ``num_workers`` oldest of them, since younger ones were still queued.
    Injected crashes and cache hits never reach a worker and are credited
    nothing.
    """

    def __init__(
        self,
        run_function: RunFunction,
        num_workers: int,
        measure_wall_time: bool = False,
        fault_policy: FaultPolicy | None = None,
        cache: EvaluationCache | None = None,
    ) -> None:
        try:
            self._payload = pickle.dumps(_strip_event_bus(run_function))
        except Exception as exc:
            raise TypeError(
                "ProcessPoolEvaluator requires a picklable run function "
                "(module-level callable or picklable object); "
                f"pickling failed with: {exc!r}"
            ) from exc
        self.num_pool_rebuilds = 0
        super().__init__(
            run_function,
            num_workers,
            measure_wall_time=measure_wall_time,
            fault_policy=fault_policy,
            cache=cache,
        )

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            initializer=_process_worker_init,
            initargs=(self._payload,),
        )

    def _submit_attempt(self, job: Job) -> None:
        with self._lock:
            self._start_attempt(job)
            future = self._pool.submit(_process_worker_call, job.config)
            self._futures[future] = job

    def _kill_workers(self) -> list[Job]:
        """Terminate every worker process and build a fresh pool.

        Returns the innocent in-flight jobs (futures still tracked when the
        pool went down) that must be re-dispatched on the new pool; they
        are not charged a retry — the fault was not theirs.
        """
        with self._lock:
            victims = list(self._futures.values())
            self._futures.clear()
        for proc in list(getattr(self._pool, "_processes", {}).values()):
            proc.terminate()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._make_pool()
        self.num_pool_rebuilds += 1
        return victims
