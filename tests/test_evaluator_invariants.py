"""Seeded property-style invariant tests for all evaluator backends.

Random (but seeded, via plain ``random.Random`` — no hypothesis dependency)
submit/gather schedules driven against ``SimulatedEvaluator``,
``ThreadedEvaluator`` and ``ProcessPoolEvaluator``, asserting structural
invariants that must hold for *any* schedule:

- jobs start in FIFO submission order (absent faults),
- ``num_in_flight`` always equals submitted-minus-finished,
- workers are conserved: free + busy + dead == num_workers,
- utilization (:func:`repro.analysis.utilization_summary`) stays within
  [0, 1] at every quiescent point.

The wall-clock schedule, retry and raise checks run on both the thread
and the process backend, which share one ``gather``; a result marked
``failed`` ends ``FAILED`` on all three backends, which share one
delivery.  Plus targeted regressions: gather blocking on pending futures
while holding buffered finished jobs, a tracked attempt without a running
start stamped by the manager (or a queued job that is tracked), a
simulated ``on_error="raise"`` leaving a phantom in-flight job on a held
worker, a thread pool that lost a worker to an abandoned straggler,
process attempts queued behind a busy worker carrying their queue wait in
``start_time`` and failing with a crash, attempts starting while finished
ones were not gathered yet (more than ``num_workers`` open spans), and a
late-returning abandoned thread attempt clobbering its retry's result.
Last, a differential test runs one fault-injected simulated schedule with
the run function's duration declared (trained lazily, at completion) and
hidden (trained as each attempt starts): the job tables and event streams
must agree, and the lazy run must train less.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.analysis import utilization_summary
from repro.workflow import (
    EvaluationCache,
    EvaluationResult,
    FaultPolicy,
    Job,
    JobState,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)

SCHEDULE_SEEDS = [11, 23, 37, 59]


# --------------------------------------------------------------------- #
# Module-level run functions: the process backend requires picklable ones.
# --------------------------------------------------------------------- #
def hashed_run(config):
    h = (int(config) * 2654435761) % 997
    return EvaluationResult(objective=(h % 100) / 100.0, duration=1.0 + (h % 7))


def flaky_every_fourth(config):
    if int(config) % 4 == 0:
        raise RuntimeError("injected")
    return hashed_run(config)


def crash_on_negative(config):
    if int(config) < 0:
        os._exit(17)  # abnormal worker death, not a catchable exception
    return hashed_run(config)


def hang_on_negative(config):
    if int(config) < 0:
        time.sleep(300)
    return hashed_run(config)


def sleep_then_return(seconds):
    time.sleep(float(seconds))
    return hashed_run(1)


def marked_failed(config):
    """A result the run function itself marks as failed."""
    return EvaluationResult(objective=0.0, duration=1.0, metadata={"failed": True})


def drain(ev, wall_limit_s=60.0):
    """Gather until nothing is in flight (bounded by a wall-clock guard)."""
    finished = []
    deadline = time.monotonic() + wall_limit_s
    while ev.num_in_flight:
        assert time.monotonic() < deadline, "evaluator failed to drain in time"
        finished.extend(ev.gather())
    return finished


def seeded_run(seed: int):
    """Deterministic per-config durations/objectives from a hash."""

    def run(config):
        h = (int(config) * 2654435761 + seed) % 997
        return EvaluationResult(
            objective=(h % 100) / 100.0, duration=1.0 + (h % 7)
        )

    return run


def random_schedule(ev, rng, num_jobs, max_batch=5):
    """Drive a random submit/gather interleaving; return finished jobs in
    gather order.  Invariant-checks ``num_in_flight`` at every step."""
    submitted = 0
    finished = []
    while submitted < num_jobs or ev.num_in_flight > 0:
        if submitted < num_jobs and (ev.num_in_flight == 0 or rng.random() < 0.5):
            batch = min(rng.randint(1, max_batch), num_jobs - submitted)
            ev.submit(list(range(submitted, submitted + batch)))
            submitted += batch
        else:
            finished.extend(ev.gather())
        assert ev.num_in_flight == submitted - len(finished)
        assert ev.num_in_flight >= 0
    return finished


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_fifo_start_order(seed):
    """With no faults, jobs grab workers in submission (job_id) order."""
    rng = random.Random(seed)
    ev = SimulatedEvaluator(seeded_run(seed), num_workers=rng.randint(1, 6))
    finished = random_schedule(ev, rng, num_jobs=30)
    assert len(finished) == 30
    by_id = sorted(finished, key=lambda j: j.job_id)
    starts = [j.start_time for j in by_id]
    assert starts == sorted(starts)
    assert all(j.state is JobState.DONE for j in finished)


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_worker_conservation_and_utilization(seed):
    rng = random.Random(seed)
    num_workers = rng.randint(2, 6)
    ev = SimulatedEvaluator(seeded_run(seed), num_workers=num_workers)
    submitted = 0
    finished = 0
    while submitted < 25 or ev.num_in_flight > 0:
        if submitted < 25 and (ev.num_in_flight == 0 or rng.random() < 0.5):
            batch = rng.randint(1, 4)
            ev.submit(list(range(submitted, submitted + batch)))
            submitted += batch
        else:
            finished += len(ev.gather())
        free = len(ev._free_workers)
        busy = len(ev._running)
        dead = len(ev._dead_workers)
        assert free + busy + dead == num_workers
        assert 0.0 <= utilization_summary(ev).utilization <= 1.0


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_single_worker_serializes_fifo(seed):
    """One worker: completion order == submission order, end-to-end."""
    rng = random.Random(seed)
    ev = SimulatedEvaluator(seeded_run(seed), num_workers=1)
    finished = random_schedule(ev, rng, num_jobs=15)
    assert [j.job_id for j in finished] == sorted(j.job_id for j in finished)
    # Back-to-back on one worker: each job starts when the previous ends.
    for prev, cur in zip(finished, finished[1:]):
        assert cur.start_time >= prev.end_time


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_sim_invariants_hold_under_faults(seed):
    """The accounting invariants survive crashes, retries and timeouts."""
    rng = random.Random(seed)

    def flaky(config):
        h = (int(config) * 2654435761 + seed) % 997
        if h % 5 == 0:
            raise RuntimeError("injected")
        return EvaluationResult(objective=(h % 100) / 100.0, duration=1.0 + (h % 9))

    policy = FaultPolicy(
        on_error="retry", max_retries=1, retry_backoff=0.5,
        timeout=8.0, failure_duration=0.5,
    )
    num_workers = rng.randint(2, 5)
    ev = SimulatedEvaluator(flaky, num_workers=num_workers, fault_policy=policy)
    finished = random_schedule(ev, rng, num_jobs=30)
    assert len(finished) == 30
    assert all(j.state in (JobState.DONE, JobState.FAILED) for j in finished)
    free = len(ev._free_workers)
    assert free + len(ev._running) + len(ev._dead_workers) == num_workers
    assert 0.0 <= utilization_summary(ev).utilization <= 1.0


def test_sim_raise_releases_worker_and_leaves_flight():
    """An attempt settled with ``on_error="raise"`` ends its job before the
    exception propagates: its worker is free and nothing stays in flight
    (pre-fix the job held its worker, and the next gather raised "all 2
    workers are dead")."""
    ev = SimulatedEvaluator(
        flaky_every_fourth, num_workers=2, fault_policy=FaultPolicy(on_error="raise")
    )
    with pytest.raises(RuntimeError, match="injected"):
        ev.submit([4])
    assert ev.gather() == []
    assert ev.num_in_flight == 0
    assert ev.jobs[0].state is JobState.FAILED
    jobs = ev.submit([1, 2])
    assert {job.worker for job in jobs} == {0, 1}
    assert {job.start_time for job in jobs} == {0.0}
    finished = drain(ev)
    assert sorted(job.job_id for job in finished) == [1, 2]
    assert all(job.state is JobState.DONE for job in finished)


# --------------------------------------------------------------------- #
# Wall-clock backends: one shared gather, one parametrized parity suite
# --------------------------------------------------------------------- #
WALL_CLOCK = {"threaded": ThreadedEvaluator, "process": ProcessPoolEvaluator}
BACKENDS = {"simulated": SimulatedEvaluator, **WALL_CLOCK}


@pytest.mark.parametrize("backend", BACKENDS)
def test_result_marked_failed_ends_failed_on_every_backend(backend):
    """One delivery sets the final state from the result's ``failed`` flag
    (pre-fix the wall-clock backends ended such a job ``DONE``)."""
    ev = BACKENDS[backend](marked_failed, num_workers=2)
    try:
        ev.submit([0, 1])
        finished = drain(ev)
    finally:
        if backend in WALL_CLOCK:
            ev.close()
    assert sorted(job.job_id for job in finished) == [0, 1]
    assert all(job.state is JobState.FAILED for job in finished)
    assert ev.num_failures == 0  # the run function succeeded; no attempt failed


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS[:2])
@pytest.mark.parametrize("backend", WALL_CLOCK)
def test_wallclock_schedule_invariants(backend, seed):
    """The schedule invariants hold on the real-thread and real-process
    backends (smaller scale)."""
    rng = random.Random(seed)
    with WALL_CLOCK[backend](hashed_run, num_workers=3) as ev:
        finished = random_schedule(ev, rng, num_jobs=10, max_batch=3)
        assert len(finished) == 10
        assert all(j.state is JobState.DONE for j in finished)
        assert sorted(j.job_id for j in finished) == list(range(10))
        assert 0.0 <= utilization_summary(ev).utilization <= 1.0
        assert ev.num_in_flight == 0


@pytest.mark.parametrize("backend", WALL_CLOCK)
def test_wallclock_spans_never_outnumber_workers(backend):
    """Attempts that finished but were not gathered yet still hold their
    workers: jobs submitted meanwhile wait, so the job table never has more
    than ``num_workers`` open spans and utilization stays <= 1 (pre-fix
    the late submissions started at once and utilization read ~2)."""
    with WALL_CLOCK[backend](hashed_run, num_workers=2) as ev:
        ev.submit([0, 1])
        deadline = time.monotonic() + 30
        while not all(future.done() for future in list(ev._futures)):
            assert time.monotonic() < deadline, "first batch did not finish"
            time.sleep(0.005)
        ev.submit([2, 3])
        time.sleep(0.3)
        finished = drain(ev)
        assert sorted(job.job_id for job in finished) == [0, 1, 2, 3]
        assert 0.0 <= utilization_summary(ev).utilization <= 1.0


@pytest.mark.parametrize("backend", WALL_CLOCK)
def test_wallclock_retry_policy_parity(backend):
    """Deterministic worker-side exceptions retry then penalize, exactly
    as on the simulated backend."""
    policy = FaultPolicy(on_error="retry", max_retries=1, failure_objective=-1.0)
    with WALL_CLOCK[backend](flaky_every_fourth, num_workers=2, fault_policy=policy) as ev:
        ev.submit(list(range(8)))
        finished = drain(ev)
    assert len(finished) == 8
    failed = sorted(j.job_id for j in finished if j.state is JobState.FAILED)
    assert failed == [0, 4]  # always-failing configs exhaust their retry
    for job in finished:
        if job.state is JobState.FAILED:
            assert job.objective == -1.0
            assert job.retries == 1
        else:
            assert job.state is JobState.DONE


@pytest.mark.parametrize("backend", WALL_CLOCK)
def test_wallclock_raise_policy_propagates(backend):
    policy = FaultPolicy(on_error="raise")
    with WALL_CLOCK[backend](flaky_every_fourth, num_workers=1, fault_policy=policy) as ev:
        ev.submit([4])
        with pytest.raises(Exception, match="injected"):
            drain(ev)


@pytest.mark.parametrize("backend", WALL_CLOCK)
def test_wallclock_attempt_returned_past_its_deadline_times_out(backend):
    """An attempt that returns after its deadline, while the manager is
    busy elsewhere, times out like one still running: its end is stamped
    when its future resolves, not when gather collects it (pre-fix the
    returned attempt was accepted and ended at the gather)."""
    policy = FaultPolicy(on_error="penalize", timeout=0.5 / 60)
    with WALL_CLOCK[backend](sleep_then_return, num_workers=1, fault_policy=policy) as ev:
        ev.submit([0.7])
        time.sleep(1.0)
        gathered_at = ev.now
        (job,) = ev.gather()
    assert job.state is JobState.FAILED and "timeout" in job.error
    assert ev.num_timeouts == 1
    assert job.start_time + 0.7 / 60 <= job.end_time < gathered_at


def test_process_results_match_run_function():
    """Objectives computed in worker processes round-trip exactly."""
    with ProcessPoolEvaluator(hashed_run, num_workers=2) as ev:
        ev.submit(list(range(8)))
        finished = drain(ev)
    by_id = {j.job_id: j for j in finished}
    for i in range(8):
        expected = hashed_run(i)
        assert by_id[i].objective == expected.objective
        assert by_id[i].result.duration == expected.duration


def test_process_worker_crash_routed_through_policy():
    """An abnormal worker exit (os._exit) becomes a policy failure, the
    pool is rebuilt, and the evaluator keeps working."""
    policy = FaultPolicy(on_error="penalize", failure_objective=-1.0)
    with ProcessPoolEvaluator(crash_on_negative, num_workers=2, fault_policy=policy) as ev:
        ev.submit([-1])
        finished = drain(ev)
        assert len(finished) == 1
        job = finished[0]
        assert job.state is JobState.FAILED
        assert job.objective == -1.0
        assert "crash" in (job.error or "").lower()
        assert ev.num_worker_crashes >= 1
        assert ev.num_pool_rebuilds >= 1
        # The rebuilt pool still evaluates.
        ev.submit([5])
        more = drain(ev)
        assert len(more) == 1 and more[0].state is JobState.DONE
        assert more[0].objective == hashed_run(5).objective


def test_process_timeout_kills_hung_worker_and_reclaims_slot():
    """A hung worker process is genuinely terminated: with one worker, a
    follow-up job can only complete if the slot was reclaimed."""
    policy = FaultPolicy(on_error="penalize", timeout=0.02, failure_objective=-1.0)
    with ProcessPoolEvaluator(hang_on_negative, num_workers=1, fault_policy=policy) as ev:
        ev.submit([-1])
        finished = drain(ev)
        assert len(finished) == 1
        assert finished[0].state is JobState.FAILED
        assert "timeout" in finished[0].error
        assert ev.num_timeouts == 1
        assert ev.num_pool_rebuilds >= 1
        ev.submit([7])
        more = drain(ev)
        assert len(more) == 1 and more[0].state is JobState.DONE


@pytest.mark.parametrize("run", [hang_on_negative, crash_on_negative])
def test_process_reclaim_credits_only_running_attempts(run):
    """With one worker, jobs 5 and 6 wait on the manager until the hung or
    crashing job -1 ends: their spans hold no queue wait, so utilization
    stays <= 1, and the kill or crash fails only -1 (pre-fix the executor
    queued 5 and 6, which started their clocks at dispatch — utilization
    read up to ~1.9 — and a crash failed them along with -1)."""
    policy = FaultPolicy(on_error="penalize", timeout=0.02)
    with ProcessPoolEvaluator(run, num_workers=1, fault_policy=policy) as ev:
        ev.submit([-1, 5, 6])
        finished = drain(ev)
        assert len(finished) == 3
        assert ev.num_pool_rebuilds >= 1
        assert 0.0 <= utilization_summary(ev).utilization <= 1.0
    states = {job.job_id: job.state for job in finished}
    assert states == {0: JobState.FAILED, 1: JobState.DONE, 2: JobState.DONE}


def test_process_rejects_unpicklable_run_function():
    """Pickling happens once at construction — failing fast, not per job."""
    with pytest.raises(TypeError, match="picklable"):
        ProcessPoolEvaluator(lambda config: None, num_workers=1)


# --------------------------------------------------------------------- #
# Regression: gather must return buffered finished jobs immediately
# --------------------------------------------------------------------- #
def test_threaded_gather_returns_buffered_without_blocking():
    """Jobs already in ``_completed`` are delivered without waiting on an
    unrelated pending future (pre-fix: gather blocked in ``wait``)."""
    release = threading.Event()

    def blocked(config):
        release.wait(30)
        return EvaluationResult(objective=0.5, duration=0.0)

    ev = ThreadedEvaluator(blocked, num_workers=1)
    try:
        ev.submit([0])  # occupies the only worker, future stays pending
        buffered = Job(
            job_id=99, config=1, state=JobState.DONE,
            result=EvaluationResult(objective=0.9, duration=0.0),
        )
        ev._completed.append(buffered)
        ev._in_flight += 1  # the buffered job counts as in flight
        out: list[Job] = []
        t = threading.Thread(target=lambda: out.extend(ev.gather()))
        t.start()
        t.join(5.0)
        assert not t.is_alive(), (
            "gather blocked on a pending future while holding buffered jobs"
        )
        assert [j.job_id for j in out] == [99]
    finally:
        release.set()
        drain(ev)
        ev.close()


def test_threaded_raise_buffers_siblings_for_next_gather():
    """With on_error='raise', finished siblings of a failing job survive
    the raise and come back from the *next* gather call, immediately."""
    release = threading.Event()

    def run(config):
        config = int(config)
        if config == 0:
            raise RuntimeError("boom")
        if config == 2:
            release.wait(30)  # unrelated straggler
        return EvaluationResult(objective=config / 10.0, duration=0.0)

    ev = ThreadedEvaluator(run, num_workers=3, fault_policy=FaultPolicy(on_error="raise"))
    try:
        ev.submit([0, 1, 2])
        # Wait until the failing job and its fast sibling have both settled
        # so one gather round observes them together.
        deadline = time.monotonic() + 10
        while sum(f.done() for f in list(ev._futures)) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with pytest.raises(RuntimeError, match="boom"):
            ev.gather()
        out: list[Job] = []
        t = threading.Thread(target=lambda: out.extend(ev.gather()))
        t.start()
        t.join(5.0)
        assert not t.is_alive(), "buffered sibling was not returned immediately"
        assert [j.job_id for j in out] == [1]
        assert out[0].state is JobState.DONE
    finally:
        release.set()
        drain(ev)
        ev.close()


# --------------------------------------------------------------------- #
# Every tracked attempt runs; every queued job waits untracked
# --------------------------------------------------------------------- #
def test_tracked_attempts_run_and_queued_jobs_are_untracked():
    """The manager stamps each attempt ``RUNNING`` as it hands it to a
    worker, so every tracked future's job has a start by the time
    ``submit`` returns, the queued jobs are not tracked, and the wait
    bound is the earliest tracked deadline (no stale-start fallback)."""
    release = threading.Event()

    def blocked(config):
        release.wait(30)
        return EvaluationResult(objective=0.5, duration=0.0)

    ev = ThreadedEvaluator(
        blocked, num_workers=2, fault_policy=FaultPolicy(on_error="penalize", timeout=2.0)
    )
    try:
        before = ev.now
        ev.submit([0, 1, 2, 3])
        after = ev.now
        tracked = [job for job, _ in ev._futures.values()]
        assert sorted(job.job_id for job in tracked) == [0, 1]
        for job in tracked:
            assert job.state is JobState.RUNNING
            assert job.attempt == 1
            assert before <= job.start_time <= after
        queued = list(ev._queue)
        assert [job.job_id for job in queued] == [2, 3]
        assert all(job.state is JobState.PENDING and job.attempt == 0 for job in queued)
        assert not {job.job_id for job in queued} & {job.job_id for job in tracked}
        bound = ev._wait_timeout()
        earliest = min(job.start_time for job in tracked)
        assert bound == pytest.approx((earliest + 2.0 - ev.now) * 60.0, abs=0.5)
        # No policy timeout -> wait for a completion, unbounded.
        ev.fault_policy = FaultPolicy(on_error="penalize", timeout=None)
        assert ev._wait_timeout() is None
    finally:
        release.set()
        drain(ev)
        ev.close()


def test_threaded_abandon_keeps_every_worker():
    """After a timeout abandons a straggler, both workers are available:
    two jobs meet at a barrier only if they run at the same time (pre-fix
    the straggler kept one of the two threads, so the barrier broke)."""
    release = threading.Event()
    barrier = threading.Barrier(2, timeout=5)

    def run(config):
        if config < 0:
            release.wait(30)
        else:
            barrier.wait()
        return EvaluationResult(objective=0.5, duration=0.0)

    policy = FaultPolicy(on_error="penalize", timeout=0.05 / 60.0)  # 50 ms
    ev = ThreadedEvaluator(run, num_workers=2, fault_policy=policy)
    try:
        ev.submit([-1])
        (straggler,) = drain(ev, wall_limit_s=30.0)
        assert straggler.state is JobState.FAILED
        assert ev.num_timeouts == 1
        # The pair must not be reaped while it gathers at the barrier.
        ev.fault_policy = FaultPolicy(on_error="penalize")
        ev.submit([1, 2])
        finished = drain(ev, wall_limit_s=30.0)
        assert sorted(job.job_id for job in finished) == [1, 2]
        assert all(job.state is JobState.DONE for job in finished)
    finally:
        release.set()
        ev.close()


def test_threaded_hung_retry_does_not_deadlock_gather():
    """First attempt fails fast; the retry hangs.  gather must reap the
    hung retry at the policy deadline instead of blocking forever."""
    state = {"n": 0}
    release = threading.Event()

    def fail_then_hang(config):
        state["n"] += 1
        if state["n"] == 1:
            raise RuntimeError("boom")
        release.wait(300)
        return EvaluationResult(objective=0.5, duration=0.0)

    policy = FaultPolicy(
        on_error="retry", max_retries=1, timeout=0.01, failure_objective=-1.0
    )
    ev = ThreadedEvaluator(fail_then_hang, num_workers=1, fault_policy=policy)
    try:
        ev.submit([0])
        finished = drain(ev, wall_limit_s=30.0)
        assert len(finished) == 1
        job = finished[0]
        assert job.state is JobState.FAILED
        assert job.objective == -1.0
        assert ev.num_timeouts == 1
    finally:
        release.set()
        ev.close()


# --------------------------------------------------------------------- #
# Regression: an abandoned attempt that returns late is dropped
# --------------------------------------------------------------------- #
def test_threaded_abandoned_attempt_late_return_is_dropped():
    """The first attempt hangs past the timeout and then returns 0.1; the
    retry (on the second worker) returns 0.9 first.  Only the tracked
    (retry) future may set the result — the late 0.1 must not clobber it."""
    hang_s = 0.4
    state = {"n": 0}
    returned = threading.Event()

    def hang_then_recover(config):
        state["n"] += 1
        if state["n"] == 1:
            time.sleep(hang_s)
            returned.set()
            return EvaluationResult(objective=0.1, duration=0.0)
        return EvaluationResult(objective=0.9, duration=0.0)

    policy = FaultPolicy(on_error="retry", max_retries=1, timeout=0.1 / 60.0)
    ev = ThreadedEvaluator(hang_then_recover, num_workers=2, fault_policy=policy)
    try:
        ev.submit([0])
        finished = drain(ev, wall_limit_s=30.0)
        returned.wait(30)  # the abandoned thread has returned its 0.1
    finally:
        ev.close()
    assert len(finished) == 1
    job = finished[0]
    assert job.state is JobState.DONE
    assert job.retries == 1
    assert ev.num_timeouts == 1
    assert state["n"] == 2
    assert job.result.objective == 0.9  # the late 0.1 never lands


# --------------------------------------------------------------------- #
# Lazy simulated evaluation: a run function that declares its duration is
# trained only when its attempt's completion is reached, with the timeline
# of eager (train-at-start) settlement
# --------------------------------------------------------------------- #
DIFFERENTIAL_SEEDS = [1, 2, 3] + (
    [int(os.environ["FAULT_SEED"])] if os.environ.get("FAULT_SEED") else []
)


class DeclaringRun:
    """A deterministic run function that declares its duration and counts
    its calls; some configs return a NaN objective."""

    def __init__(self) -> None:
        self.calls = 0

    @staticmethod
    def _hash(config) -> int:
        return (int(config) * 2654435761) % 997

    def duration(self, config) -> float:
        return 1.0 + (self._hash(config) % 7) * 1.5

    def __call__(self, config) -> EvaluationResult:
        self.calls += 1
        h = self._hash(config)
        objective = float("nan") if h % 9 == 0 else (h % 100) / 100.0
        return EvaluationResult(objective, self.duration(config), {"h": h})


class HiddenDuration:
    """``run`` with its ``duration`` hidden: every attempt is settled as
    it starts (the eager reference)."""

    def __init__(self, run) -> None:
        self.run = run

    def __call__(self, config) -> EvaluationResult:
        return self.run(config)


class EventLog:
    def __init__(self) -> None:
        self.events = []

    def emit(self, event) -> None:
        self.events.append(event.to_dict())


def job_row(job: Job, finished: bool) -> tuple:
    """A job's table row; the outcome fields only once it was delivered."""
    row = (job.job_id, job.state, job.submit_time, job.start_time, job.worker,
           job.retries, job.attempt, job.cache_hit)  # fmt: skip
    if not finished:
        return row
    result = job.result
    return row + (repr(result.objective), result.duration, job.error, job.end_time)


def run_differential(run_function, policy, seed, stop_after):
    """Drive one seeded submit/gather schedule with duplicate configs;
    stop gathering once ``stop_after`` jobs were delivered."""
    rng = random.Random(seed)
    ev = SimulatedEvaluator(
        run_function, num_workers=4, fault_policy=policy, cache=EvaluationCache(),
        worker_failures=[(6.0 + seed % 5, 1)],
    )
    log = EventLog()
    ev.event_bus = log
    delivered = []
    ev.submit([rng.randint(0, 9) for _ in range(4)])
    while len(delivered) < stop_after:
        finished = ev.gather()
        delivered.extend(finished)
        # Replacements reuse a small config pool: many start while an
        # attempt of the same config is still in flight.
        ev.submit([rng.randint(0, 9) for _ in finished])
    return ev, log.events, {job.job_id for job in delivered}


def split_stores(events):
    stores = sorted((e["job_id"], e["key"]) for e in events if e["event"] == "CacheStore")
    return [e for e in events if e["event"] != "CacheStore"], stores


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
@pytest.mark.parametrize("on_error", ["retry", "penalize"])
def test_lazy_and_eager_simulation_agree(seed, on_error, monkeypatch):
    """Same job table and event stream whether the run function's duration
    is declared (lazy) or hidden (eager), under injected faults, a worker
    death and duplicates of in-flight configs; fewer trainings when the
    schedule stops with jobs in flight.  After a drain both delivered the
    same jobs and stored the same cache entries.  The lazy side trains
    inline, so its calls are counted here (a pool may train a pending
    attempt early; ``tests/test_training_pool.py`` compares the two)."""
    monkeypatch.setattr("repro.workflow.pool.training_processes", lambda: 0)
    policy = FaultPolicy(
        on_error=on_error, max_retries=1, retry_backoff=0.5, timeout=14.0,
        crash_prob=0.15, hang_prob=0.15, corrupt_prob=0.1, hang_factor=2.0,
        fault_seed=seed,
    )  # fmt: skip
    lazy_run, eager_run = DeclaringRun(), DeclaringRun()
    lazy, lazy_events, lazy_done = run_differential(lazy_run, policy, seed, 30)
    eager, eager_events, eager_done = run_differential(
        HiddenDuration(eager_run), policy, seed, 30
    )
    assert lazy_done == eager_done
    assert lazy.num_in_flight == eager.num_in_flight > 0
    assert [job_row(j, j.job_id in lazy_done) for j in lazy.jobs] == [
        job_row(j, j.job_id in eager_done) for j in eager.jobs
    ]
    lazy_stream, lazy_stores = split_stores(lazy_events)
    eager_stream, eager_stores = split_stores(eager_events)
    assert lazy_stream == eager_stream
    assert set(lazy_stores) <= set(eager_stores)
    assert lazy_run.calls < eager_run.calls
    assert lazy.num_faults_injected == eager.num_faults_injected > 0
    assert lazy.cache.hits == eager.cache.hits > 0

    drain(lazy), drain(eager)
    assert [job_row(j, True) for j in lazy.jobs] == [job_row(j, True) for j in eager.jobs]
    assert split_stores(lazy_events)[1] == split_stores(eager_events)[1]
    assert (lazy.num_retries, lazy.num_worker_failures) == (
        eager.num_retries, eager.num_worker_failures
    )
    # Eager settlement also counted the failure of the attempt a worker
    # death discarded; a lazy one never ended, so it never failed.
    for counter in ("num_failures", "num_timeouts"):
        gap = getattr(eager, counter) - getattr(lazy, counter)
        assert 0 <= gap <= eager.num_worker_failures
    assert lazy.cache._entries.keys() == eager.cache._entries.keys()


class LoggedRun(DeclaringRun):
    """``DeclaringRun`` that appends each config it trains to a file, so
    trainings on forked pool workers are seen too."""

    def __init__(self, path) -> None:
        super().__init__()
        self.path = path

    def __call__(self, config) -> EvaluationResult:
        with open(self.path, "a") as log:
            log.write(f"{config}\n")
        return super().__call__(config)


def test_lazy_attempt_is_trained_at_its_completion(tmp_path, monkeypatch):
    """A declaring run function's attempt is settled when its completion
    event fires, with the run function's result.  The manager trains its
    share of the attempts only then: inline, nothing is trained before a
    completion needs it, and with a pool only a forked worker trains
    ahead (here job 2, the workers' share).  An attempt whose completion
    never fires (job 3: still queued inline, running on the manager's
    share with a pool) is never trained.  A raise fails at the declared
    end, and the worker it frees goes on with the queue."""
    # (cores, simulated workers, attempts a pool worker may train early)
    for cores, workers, early in ((0, 1, set()), (2, 2, {"2"})):
        monkeypatch.setattr("repro.workflow.pool.training_processes", lambda: cores)
        log = tmp_path / f"trained-{cores}.txt"
        log.touch()
        run = LoggedRun(log)
        ev = SimulatedEvaluator(run, num_workers=workers)
        ev.submit([1, 2, 3])
        assert set(log.read_text().split()) <= early
        first = ev.gather()
        assert [job.config for job in first] == [1]
        assert first[0].end_time == run.duration(1)
        assert first[0].result == DeclaringRun()(1)
        # Job 3 started as job 1 ended, or waits for the one worker.
        job3 = JobState.RUNNING if workers == 2 else JobState.PENDING
        assert [job.state for job in ev.jobs] == [JobState.DONE, JobState.RUNNING, job3]
        ev.close()
        trained = log.read_text().split()
        assert [config for config in trained if config not in early] == ["1"]

    def raising(config):
        if config == 0:
            raise RuntimeError("boom")
        return EvaluationResult(0.5, 4.0)

    raising.duration = lambda config: 4.0
    ev = SimulatedEvaluator(raising, num_workers=1, fault_policy=FaultPolicy(on_error="raise"))
    ev.submit([0, 1])
    with pytest.raises(RuntimeError, match="boom"):
        ev.gather()
    job = ev.jobs[0]
    assert job.state is JobState.FAILED and job.end_time == 4.0
    # The freed worker takes the queued job on the next gather.
    assert ev.num_in_flight == 1
    assert [(j.job_id, j.start_time, j.end_time) for j in ev.gather()] == [(1, 4.0, 8.0)]
