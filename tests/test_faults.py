"""Fault-injection test harness: policies, seeded faults, worker failures.

Proves the fault-tolerance layer works under deterministically injected
crashes, hangs/stragglers and corrupted results — the §III-C requirement
that a diverged or dead evaluation must never kill a campaign.  A
differential test runs one fixed, fault-injected job list on all three
backends and demands identical outcomes.  The acceptance scenario at the
bottom runs a full 64-evaluation AgEBO campaign under injected faults and
checks it completes with full history and high utilization.
``FAULT_SEED`` in the environment adds an extra fault seed (used by the CI
fault-injection job).
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.analysis import utilization_summary
from repro.campaign import (
    EpochEnd,
    EventBus,
    FaultInjected,
    JsonlEventLog,
    MetricsAggregator,
    replay_metrics,
)
from repro.core import ModelConfig, ModelEvaluation
from repro.core.agebo import AgEBO
from repro.searchspace import ArchitectureSpace
from repro.searchspace.hpspace import default_dataparallel_space
from repro.workflow import (
    EvaluationCache,
    EvaluationResult,
    FaultPolicy,
    InjectedCrash,
    JobState,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
)

INJECTOR_SEEDS = [0, 1, 2]
if os.environ.get("FAULT_SEED"):
    INJECTOR_SEEDS.append(int(os.environ["FAULT_SEED"]))


def constant_run(duration=1.0, objective=0.5):
    def run(config):
        return EvaluationResult(objective=objective, duration=duration)

    return run


# --------------------------------------------------------------------- #
# FaultPolicy
# --------------------------------------------------------------------- #
def test_policy_validation():
    with pytest.raises(ValueError, match="on_error"):
        FaultPolicy(on_error="explode")
    with pytest.raises(ValueError):
        FaultPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        FaultPolicy(retry_backoff=-0.5)
    with pytest.raises(ValueError):
        FaultPolicy(timeout=0.0)


def test_policy_backoff_is_exponential():
    policy = FaultPolicy(on_error="retry", max_retries=3, retry_backoff=2.0)
    assert policy.backoff_minutes(1) == 2.0
    assert policy.backoff_minutes(2) == 4.0
    assert policy.backoff_minutes(3) == 8.0
    assert FaultPolicy().backoff_minutes(1) == 0.0


def test_policy_should_retry_counts_down():
    policy = FaultPolicy(on_error="retry", max_retries=2)
    assert policy.should_retry(0) and policy.should_retry(1)
    assert not policy.should_retry(2)
    assert not FaultPolicy(on_error="penalize", max_retries=2).should_retry(0)


def test_policy_failure_result_and_classify():
    policy = FaultPolicy(failure_objective=-1.0, failure_duration=3.0)
    result = policy.failure_result("boom")
    assert result.objective == -1.0 and result.duration == 3.0
    assert result.metadata["failed"] and result.metadata["error"] == "boom"
    assert policy.classify(EvaluationResult(float("nan"), 1.0)) is not None
    assert policy.classify(EvaluationResult(0.5, 1.0)) is None


# --------------------------------------------------------------------- #
# FaultPolicy.settle: the one settlement step, as a pure function
# --------------------------------------------------------------------- #
_BOOM = RuntimeError("boom")
_CRASH = InjectedCrash("injected crash: job 7, retry 0")
_OK = EvaluationResult(objective=0.5, duration=4.0)
_TIMEOUT = "timeout after 10.0 min"

# (kind, outcome, retries, on_error, simulated_clock) ->
# (verdict, error, minutes, timed_out, raised); verdict is "accept",
# "retry", "penalize" or "raise"; ``raised`` is (type, message) of the
# exception to raise, or None.  outcome None means "reaped at the timeout".
SETTLE_TABLE = [
    # Clean and hung attempts.
    (None, _OK, 0, "penalize", True, ("accept", None, 4.0, False, None)),
    (None, _OK, 0, "raise", True, ("accept", None, 4.0, False, None)),
    ("hang", _OK, 0, "penalize", False, ("accept", None, 20.0, False, None)),
    ("hang", _OK, 0, "penalize", True,
     ("penalize", f"{_TIMEOUT} (duration 20.00)", 10.0, True, None)),
    ("hang", _OK, 0, "retry", True,
     ("retry", f"{_TIMEOUT} (duration 20.00)", 10.0, True, None)),
    ("hang", _OK, 0, "raise", True,
     ("raise", f"{_TIMEOUT} (duration 20.00)", 10.0, True,
      (TimeoutError, f"job 7: {_TIMEOUT} (duration 20.00)"))),
    # Corrupted results: the attempt held its worker for its duration.
    ("corrupt", _OK, 0, "penalize", True, ("penalize", "invalid objective nan", 4.0, False, None)),
    ("corrupt", _OK, 0, "penalize", False,
     ("penalize", "invalid objective nan", 4.0, False, None)),
    ("corrupt", _OK, 0, "retry", True, ("retry", "invalid objective nan", 4.0, False, None)),
    ("corrupt", _OK, 1, "retry", True, ("penalize", "invalid objective nan", 4.0, False, None)),
    ("corrupt", _OK, 0, "raise", False,
     ("raise", "invalid objective nan", 4.0, False,
      (RuntimeError, "job 7: invalid objective nan"))),
    # Raised exceptions (an injected crash is one): failure_duration.
    (None, _BOOM, 0, "penalize", True, ("penalize", "RuntimeError('boom')", 1.0, False, None)),
    (None, _BOOM, 0, "retry", False, ("retry", "RuntimeError('boom')", 1.0, False, None)),
    (None, _BOOM, 0, "raise", True,
     ("raise", "RuntimeError('boom')", 1.0, False, (RuntimeError, "boom"))),
    ("crash", _CRASH, 0, "retry", True, ("retry", repr(_CRASH), 1.0, False, None)),
    ("crash", _CRASH, 1, "retry", False, ("penalize", repr(_CRASH), 1.0, False, None)),
    # Reaped by a wall clock at the timeout.
    (None, None, 0, "penalize", False, ("penalize", _TIMEOUT, 10.0, True, None)),
    ("hang", None, 1, "retry", False, ("penalize", _TIMEOUT, 10.0, True, None)),
    (None, None, 0, "raise", False,
     ("raise", _TIMEOUT, 10.0, True, (TimeoutError, f"job 7: {_TIMEOUT}"))),
]  # fmt: skip


@pytest.mark.parametrize("kind,outcome,retries,on_error,simulated_clock,expected", SETTLE_TABLE)
def test_settle_table(kind, outcome, retries, on_error, simulated_clock, expected):
    verdict, error, minutes, timed_out, raised = expected
    policy = FaultPolicy(
        on_error=on_error, max_retries=1, timeout=10.0, failure_objective=-1.0,
        failure_duration=1.0, hang_factor=5.0,
    )
    settle = lambda: policy.settle(kind, outcome, 7, retries, simulated_clock=simulated_clock)
    s = settle()
    assert (s.error, s.minutes, s.timed_out) == (error, minutes, timed_out)
    assert s.retry == (verdict == "retry")
    if raised is None:
        assert s.exception is None
    else:
        assert type(s.exception) is raised[0] and str(s.exception) == raised[1]
    if verdict == "accept":
        assert s.result == policy.inject(kind, outcome) and s.result.duration == minutes
    elif verdict == "penalize":
        assert s.result == policy.failure_result(error, minutes)
    else:
        assert s.result is None
    # Pure: settling the same attempt again gives the same settlement.
    again = settle()
    assert (again.result, again.error, again.minutes, again.retry, again.timed_out) == (
        s.result, s.error, s.minutes, s.retry, s.timed_out
    )


# --------------------------------------------------------------------- #
# Fault injection: the policy's stateless draw
# --------------------------------------------------------------------- #
def test_injector_validation():
    for kwargs in (
        dict(crash_prob=1.5),
        dict(crash_prob=0.6, hang_prob=0.6),
        dict(hang_factor=0.5),
        dict(fault_seed=-1),
    ):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


@pytest.mark.parametrize("seed", INJECTOR_SEEDS)
def test_injector_is_deterministic(seed):
    """An attempt's fault is a pure function of (fault_seed, job_id,
    retries): the order and number of draws never matter."""
    make = lambda s: FaultPolicy(crash_prob=0.3, hang_prob=0.2, corrupt_prob=0.1, fault_seed=s)
    attempts = [(job_id, retries) for job_id in range(60) for retries in range(3)]
    forward = [make(seed).fault(*a) for a in attempts]
    backward = [make(seed).fault(*a) for a in reversed(attempts)][::-1]
    assert forward == backward
    assert set(Counter(forward)) == {"crash", "hang", "corrupt", None}
    assert [make(seed + 1).fault(*a) for a in attempts] != forward
    assert all(FaultPolicy(fault_seed=seed).fault(*a) is None for a in attempts)


def test_injector_fault_shapes():
    policy = FaultPolicy(hang_factor=10.0)
    clean = EvaluationResult(objective=0.5, duration=2.0, metadata={"k": 1})
    assert policy.inject(None, clean) is clean
    hung = policy.inject("hang", clean)
    assert hung.objective == 0.5 and hung.duration == 20.0
    assert hung.metadata == {"k": 1, "injected_hang": True}
    corrupted = policy.inject("corrupt", clean)
    assert math.isnan(corrupted.objective) and corrupted.duration == 2.0
    assert corrupted.metadata["injected_corruption"]
    for kind in ("crash", "hang", "corrupt"):
        assert FaultPolicy(**{f"{kind}_prob": 1.0}).fault(3, 1) == kind

    # A crash never calls the run function.
    calls = []

    def run(config):
        calls.append(config)
        return clean

    ev = SimulatedEvaluator(
        run, num_workers=1, fault_policy=FaultPolicy(on_error="penalize", crash_prob=1.0)
    )
    ev.submit(["a"])
    (job,) = drain(ev)
    assert job.state is JobState.FAILED and "InjectedCrash" in job.result.metadata["error"]
    assert calls == [] and ev.num_faults_injected == 1
    ev = SimulatedEvaluator(
        run, num_workers=1, fault_policy=FaultPolicy(on_error="raise", crash_prob=1.0)
    )
    with pytest.raises(InjectedCrash):
        ev.submit(["a"])
    assert calls == []


# --------------------------------------------------------------------- #
# SimulatedEvaluator under the policy
# --------------------------------------------------------------------- #
def drain(ev):
    done = []
    while True:
        batch = ev.gather()
        if not batch:
            return done
        done.extend(batch)


# --------------------------------------------------------------------- #
# Cross-backend differential: the same seeded faults everywhere
# --------------------------------------------------------------------- #
def _differential_eval(config):
    """Deterministic, instant, picklable stand-in for an evaluation."""
    h = (int(config) * 2654435761) % 997
    return EvaluationResult(objective=(h % 100) / 100.0, duration=1.0 + (h % 7))


@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("seed", INJECTOR_SEEDS)
def test_backends_agree_under_seeded_faults(seed, cache):
    """One fixed job list with seeded crashes, hangs and corruptions gives
    the same per-job outcome — state, objective, error and result
    duration — on every backend and on every repeat, under a retry policy
    and under a penalize policy, and every backend counts its injected
    faults on the manager."""
    retry = FaultPolicy(
        on_error="retry", max_retries=2, failure_objective=-1.0,
        crash_prob=0.2, hang_prob=0.15, corrupt_prob=0.15, fault_seed=seed,
    )
    penalize = FaultPolicy(
        on_error="penalize", failure_objective=-1.0,
        failure_duration=0.5, crash_prob=0.15, hang_prob=0.1, corrupt_prob=0.3,
        fault_seed=seed,
    )
    for policy in (retry, penalize):
        _assert_backends_agree(policy, cache)


def _assert_backends_agree(policy, cache):
    configs = [i % 13 for i in range(24)]  # duplicates exercise the cache
    outcomes, faults = {}, {}
    for backend in (SimulatedEvaluator, ThreadedEvaluator, ProcessPoolEvaluator):
        for repeat in range(3):
            bus, metrics, events = EventBus(), MetricsAggregator(), []
            bus.subscribe(metrics)
            bus.subscribe(events.append, FaultInjected)
            ev = backend(
                _differential_eval, num_workers=2, fault_policy=policy,
                cache=EvaluationCache() if cache else None,
            )
            ev.event_bus = bus
            try:
                ev.submit(configs)
                jobs = drain(ev)
            finally:
                ev.close()
            assert ev.num_faults_injected == len(events) == metrics.num_faults_injected
            key = (backend.__name__, repeat)
            outcomes[key] = sorted(
                (j.job_id, j.retries, j.state, j.objective, j.error, j.result.duration)
                for j in jobs
            )
            faults[key] = sorted((e.job_id, e.retries, e.kind) for e in events)
    reference = outcomes["SimulatedEvaluator", 0]
    assert len(reference) == len(configs)
    for key, outcome in outcomes.items():
        assert outcome == reference, key
    assert all(f == faults["SimulatedEvaluator", 0] for f in faults.values())
    assert faults["SimulatedEvaluator", 0]  # faults actually fired
    errors = {error for _, _, _, _, error, _ in reference if error is not None}
    if policy.on_error == "retry":
        assert any(row[1] > 0 for row in reference)
    else:  # corrupted results were penalized, not accepted
        assert "invalid objective nan" in errors


def _epoch_configs(space, n=6):
    """``n`` fixed configs of ``space``, at 1 and 2 ranks alternately."""
    rng = np.random.default_rng(7)
    return [
        ModelConfig(
            space.random_sample(rng),
            {"batch_size": 32, "learning_rate": 0.01, "num_ranks": 1 + i % 2},
        )
        for i in range(n)
    ]


def _epochs_by_job(events):
    by_job: dict[int, list] = {}
    for event in events:
        by_job.setdefault(event.job_id, []).append(event)
    return by_job


def test_backends_emit_one_epoch_stream(tiny_covertype, tmp_path):
    """Real trainings under seeded crashes and corruptions give every job
    the same ``EpochEnd`` events, field for field, on every backend: the
    manager emits them from each trained attempt's result, a corrupted
    attempt's included.  Each JSONL log replays to the live ring volume,
    which the process backend reports too."""
    space = ArchitectureSpace(num_nodes=2)
    run = ModelEvaluation(tiny_covertype, space, epochs=2, nominal_epochs=20, warmup_epochs=0)
    configs = _epoch_configs(space)
    policy = FaultPolicy(
        on_error="retry", max_retries=2, crash_prob=0.25, corrupt_prob=0.25, fault_seed=1
    )
    streams, ring_bytes = {}, {}
    for backend in (SimulatedEvaluator, ThreadedEvaluator, ProcessPoolEvaluator):
        path = tmp_path / f"{backend.__name__}.jsonl"
        bus, live, epochs, faults = EventBus(), MetricsAggregator(), [], []
        bus.subscribe(live)
        bus.subscribe(epochs.append, EpochEnd)
        bus.subscribe(faults.append, FaultInjected)
        log = bus.subscribe(JsonlEventLog(path))
        ev = backend(run, num_workers=2, fault_policy=policy)
        ev.event_bus = bus
        try:
            ev.submit(configs)
            drain(ev)
        finally:
            log.close()
            ev.close()
        streams[backend.__name__] = _epochs_by_job(epochs)
        ring_bytes[backend.__name__] = live.ring_comm_bytes
        assert replay_metrics(path).ring_comm_bytes == live.ring_comm_bytes
        assert {e.kind for e in faults} == {"crash", "corrupt"}  # both fired
    reference = streams["SimulatedEvaluator"]
    assert streams["ThreadedEvaluator"] == reference
    assert streams["ProcessPoolEvaluator"] == reference
    for job_id, events in reference.items():
        assert [e.num_ranks for e in events] == [configs[job_id].num_ranks] * len(events)
        assert len(events) % 2 == 0  # whole 2-epoch attempts
    assert any(len(events) > 2 for events in reference.values())  # a corrupt attempt trained
    assert ring_bytes["ProcessPoolEvaluator"] == ring_bytes["SimulatedEvaluator"] > 0


def test_threaded_events_arrive_on_the_manager_thread(tiny_covertype):
    """Every event reaches its subscribers on the manager's thread, and an
    attempt reaped at the timeout emits no epochs, even though its thread
    goes on to finish the training."""
    space = ArchitectureSpace(num_nodes=2)
    configs = _epoch_configs(space, n=4)
    straggler_done = threading.Event()

    class Straggling(ModelEvaluation):
        def __call__(self, config):
            if config is configs[0]:
                time.sleep(2.0)
                try:
                    return super().__call__(config)
                finally:
                    straggler_done.set()
            return super().__call__(config)

    run = Straggling(tiny_covertype, space, epochs=2, nominal_epochs=20, warmup_epochs=0)
    bus, seen = EventBus(), []
    bus.subscribe(lambda event: seen.append((event, threading.get_ident())))
    policy = FaultPolicy(on_error="penalize", timeout=0.75 / 60.0)  # 0.75 s
    ev = ThreadedEvaluator(run, num_workers=2, fault_policy=policy)
    ev.event_bus = bus
    try:
        ev.submit(configs)
        jobs = drain(ev)
        assert straggler_done.wait(timeout=30.0)  # its training ran to the end
    finally:
        ev.close()
    straggler = next(job for job in jobs if job.config is configs[0])
    assert straggler.state is JobState.FAILED and "timeout" in straggler.error
    assert {thread for _, thread in seen} == {threading.get_ident()}
    epochs = _epochs_by_job(event for event, _ in seen if isinstance(event, EpochEnd))
    assert set(epochs) == {job.job_id for job in jobs} - {straggler.job_id}
    assert all(len(events) == 2 for events in epochs.values())


def fails_n_times(n, duration=1.0):
    """Per-config call counter: first ``n`` attempts raise, then succeed."""
    calls: dict = {}

    def run(config):
        calls[config] = calls.get(config, 0) + 1
        if calls[config] <= n:
            raise RuntimeError(f"transient fault #{calls[config]}")
        return EvaluationResult(objective=0.8, duration=duration)

    return run


def test_sim_retry_recovers_transient_fault():
    policy = FaultPolicy(on_error="retry", max_retries=2, failure_duration=0.5)
    ev = SimulatedEvaluator(fails_n_times(1), num_workers=1, fault_policy=policy)
    ev.submit(["a"])
    (job,) = drain(ev)
    assert job.state is JobState.DONE
    assert job.retries == 1
    assert job.result.objective == 0.8
    assert ev.num_failures == 1 and ev.num_retries == 1
    # Attempt 1 occupied the worker 0.5 min, attempt 2 ran 1.0 min.
    assert job.end_time == pytest.approx(1.5)


def test_sim_retry_backoff_delays_restart():
    policy = FaultPolicy(
        on_error="retry", max_retries=2, retry_backoff=2.0, failure_duration=0.5
    )
    ev = SimulatedEvaluator(fails_n_times(2), num_workers=1, fault_policy=policy)
    ev.submit(["a"])
    (job,) = drain(ev)
    assert job.state is JobState.DONE and job.retries == 2
    # fail@0.5, backoff 2 -> restart 2.5, fail@3.0, backoff 4 -> restart 7.0,
    # success 1.0 min -> end 8.0.
    assert job.end_time == pytest.approx(8.0)


def test_sim_retries_exhausted_penalizes():
    policy = FaultPolicy(
        on_error="retry", max_retries=2, failure_objective=-1.0, failure_duration=0.5
    )
    ev = SimulatedEvaluator(fails_n_times(10), num_workers=1, fault_policy=policy)
    ev.submit(["a"])
    (job,) = drain(ev)
    assert job.state is JobState.FAILED
    assert job.retries == 2
    assert job.result.objective == -1.0
    assert job.result.metadata["failed"]
    assert ev.num_failures == 3  # three failed attempts


def test_sim_timeout_reaps_straggler():
    policy = FaultPolicy(on_error="penalize", timeout=5.0)
    ev = SimulatedEvaluator(constant_run(duration=100.0), num_workers=1, fault_policy=policy)
    ev.submit(["a"])
    (job,) = drain(ev)
    assert job.state is JobState.FAILED
    assert "timeout" in job.result.metadata["error"]
    assert job.end_time == pytest.approx(5.0)  # reaped at the deadline, not at 100
    assert ev.num_timeouts == 1


def test_sim_timeout_raises_under_raise_policy():
    """A simulated straggler past the timeout raises under on_error='raise',
    as a reaped attempt does on the wall-clock backends."""
    policy = FaultPolicy(on_error="raise", timeout=5.0)
    ev = SimulatedEvaluator(constant_run(duration=10.0), num_workers=1, fault_policy=policy)
    with pytest.raises(TimeoutError, match=r"job 0: timeout after 5\.0 min \(duration 10\.00\)"):
        ev.submit(["a"])
    assert ev.num_timeouts == 1


def test_sim_corrupted_result_is_penalized():
    def run(config):
        return EvaluationResult(objective=float("nan"), duration=2.0)

    ev = SimulatedEvaluator(
        run, num_workers=1, fault_policy=FaultPolicy(on_error="penalize")
    )
    ev.submit(["a"])
    (job,) = drain(ev)
    assert job.state is JobState.FAILED
    assert "invalid objective" in job.result.metadata["error"]
    assert math.isfinite(job.result.objective)


# --------------------------------------------------------------------- #
# Simulated worker failures
# --------------------------------------------------------------------- #
def test_worker_failure_reschedules_in_flight_job():
    ev = SimulatedEvaluator(
        constant_run(duration=10.0), num_workers=2, worker_failures=[(5.0, 1)]
    )
    ev.submit([0.1, 0.2])
    done = drain(ev)
    assert len(done) == 2
    assert all(j.state is JobState.DONE for j in done)
    # The victim re-ran on worker 0 after its first job finished at t=10.
    assert sorted(j.end_time for j in done) == [10.0, 20.0]
    assert all(j.worker == 0 for j in done)
    assert ev.num_worker_failures == 1
    assert ev.num_alive_workers == 1


def test_worker_failure_of_idle_worker():
    ev = SimulatedEvaluator(
        constant_run(duration=2.0), num_workers=2, worker_failures=[(1.0, 1)]
    )
    ev.submit([0.1])
    done = drain(ev)
    assert len(done) == 1 and done[0].worker == 0
    assert ev.num_alive_workers == 1
    # The dead worker never restarts a queued job.
    ev.submit([0.2, 0.3])
    done = drain(ev)
    assert all(j.worker == 0 for j in done)


def test_all_workers_dead_raises_deadlock():
    ev = SimulatedEvaluator(
        constant_run(duration=10.0), num_workers=1, worker_failures=[(5.0, 0)]
    )
    ev.submit([0.1])
    with pytest.raises(RuntimeError, match="dead"):
        drain(ev)


def test_worker_failure_unknown_worker_rejected():
    with pytest.raises(ValueError, match="unknown worker"):
        SimulatedEvaluator(constant_run(), num_workers=2, worker_failures=[(1.0, 7)])


# --------------------------------------------------------------------- #
# ThreadedEvaluator policy parity
# --------------------------------------------------------------------- #
def test_threaded_gather_returns_all_finished_jobs_regression():
    """A raising future must not swallow its finished siblings (the old
    gather() popped one future, raised, and left the rest in flight)."""

    def run(config):
        time.sleep(0.02)
        if config == "bad":
            raise RuntimeError("evaluation failed")
        return EvaluationResult(objective=1.0, duration=0.0)

    ev = ThreadedEvaluator(run, num_workers=3)
    try:
        ev.submit(["good1", "bad", "good2"])
        time.sleep(0.2)  # let all three finish before gathering
        with pytest.raises(RuntimeError, match="evaluation failed"):
            ev.gather()
        # Siblings were collected, finalized and buffered, not dropped.
        recovered = []
        while True:
            batch = ev.gather()
            if not batch:
                break
            recovered.extend(batch)
        assert sorted(j.config for j in recovered) == ["good1", "good2"]
        assert all(j.state is JobState.DONE for j in recovered)
        bad = next(j for j in ev.jobs if j.config == "bad")
        assert bad.state is JobState.FAILED
        assert ev.num_in_flight == 0
    finally:
        ev.close()


def test_threaded_penalize_policy_parity():
    def run(config):
        if config == "bad":
            raise RuntimeError("boom")
        return EvaluationResult(objective=0.7, duration=0.0)

    ev = ThreadedEvaluator(
        run,
        num_workers=2,
        fault_policy=FaultPolicy(on_error="penalize", failure_objective=-1.0),
    )
    try:
        ev.submit(["ok", "bad"])
        done = []
        while len(done) < 2:
            done.extend(ev.gather())
        bad = next(j for j in done if j.config == "bad")
        assert bad.state is JobState.FAILED
        assert bad.result.objective == -1.0
        assert bad.result.metadata["failed"]
        assert ev.num_failures == 1
    finally:
        ev.close()


def test_threaded_retry_policy():
    calls = {"n": 0}

    def run(config):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return EvaluationResult(objective=0.9, duration=0.0)

    ev = ThreadedEvaluator(
        run, num_workers=1, fault_policy=FaultPolicy(on_error="retry", max_retries=2)
    )
    try:
        ev.submit([0])
        (job,) = ev.gather()
        assert job.state is JobState.DONE
        assert job.retries == 1
        assert job.result.objective == 0.9
    finally:
        ev.close()


def test_threaded_invalid_objective_penalized():
    def run(config):
        return EvaluationResult(objective=float("inf"), duration=0.0)

    ev = ThreadedEvaluator(
        run, num_workers=1, fault_policy=FaultPolicy(on_error="penalize")
    )
    try:
        ev.submit([0])
        (job,) = ev.gather()
        assert job.state is JobState.FAILED
        assert "invalid objective" in job.result.metadata["error"]
    finally:
        ev.close()


def test_threaded_timeout_abandons_straggler():
    def run(config):
        if config == "hang":
            time.sleep(5.0)
        return EvaluationResult(objective=0.5, duration=0.0)

    policy = FaultPolicy(on_error="penalize", timeout=0.25 / 60.0)  # 0.25 s
    ev = ThreadedEvaluator(run, num_workers=2, fault_policy=policy)
    try:
        ev.submit(["hang", "ok"])
        done = []
        t0 = time.perf_counter()
        while len(done) < 2:
            done.extend(ev.gather())
        assert time.perf_counter() - t0 < 3.0  # did not wait out the hang
        hang = next(j for j in done if j.config == "hang")
        assert hang.state is JobState.FAILED
        assert "timeout" in hang.result.metadata["error"]
        assert ev.num_timeouts == 1
    finally:
        ev._pool.shutdown(wait=False)


# --------------------------------------------------------------------- #
# Acceptance scenario: a faulty 64-evaluation AgEBO campaign completes
# --------------------------------------------------------------------- #
def _bench_eval(config):
    """Deterministic, instant stand-in for ModelEvaluation."""
    h = (int(np.sum(config.arch * np.arange(1, config.arch.size + 1))) * 2654435761) % 1009
    objective = 0.4 + 0.5 * (h / 1009.0)
    duration = 4.0 + (h % 11)
    return EvaluationResult(objective=objective, duration=duration, metadata={"h": h})


@pytest.mark.parametrize("seed", INJECTOR_SEEDS)
def test_faulty_agebo_campaign_completes(seed):
    space = ArchitectureSpace(num_nodes=3)
    hp_space = default_dataparallel_space(max_ranks=4)
    policy = FaultPolicy(
        on_error="retry", max_retries=2, retry_backoff=1.0, timeout=30.0,
        failure_duration=1.0, crash_prob=0.2, hang_prob=0.1, hang_factor=50.0,
        fault_seed=seed,
    )
    evaluator = SimulatedEvaluator(_bench_eval, num_workers=8, fault_policy=policy)
    search = AgEBO(
        space, hp_space, evaluator,
        population_size=10, sample_size=3, n_initial_points=5, seed=seed,
    )
    history = search.search(max_evaluations=64)
    assert len(history) >= 64  # full-length history despite injected faults
    assert utilization_summary(evaluator).utilization > 0.5
    assert evaluator.num_faults_injected > 0  # faults actually fired
    # Penalized records (if any) never win the campaign.
    assert history.best().objective > 0.0
