"""Unit tests for the event queue, job records and evaluators."""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import utilization_summary
from repro.workflow import (
    EvaluationResult,
    EventQueue,
    Job,
    JobState,
    SimulatedEvaluator,
    ThreadedEvaluator,
)


# --------------------------------------------------------------------- #
# EventQueue
# --------------------------------------------------------------------- #
def test_event_queue_orders_by_time():
    q = EventQueue()
    q.push(3.0, "c")
    q.push(1.0, "a")
    q.push(2.0, "b")
    assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]


def test_event_queue_fifo_ties():
    q = EventQueue()
    q.push(1.0, "first")
    q.push(1.0, "second")
    assert q.pop()[1] == "first"
    assert q.pop()[1] == "second"


def test_event_queue_drain_until():
    q = EventQueue()
    for t in (0.5, 1.0, 1.5, 2.0):
        q.push(t, t)
    drained = list(q.drain_until(1.5))
    assert [t for t, _ in drained] == [0.5, 1.0, 1.5]
    assert len(q) == 1


def test_event_queue_errors():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()
    with pytest.raises(IndexError):
        q.peek_time()
    with pytest.raises(ValueError):
        q.push(-1.0, "x")


@given(st.lists(st.floats(0, 100), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_event_queue_pop_order_property(times):
    q = EventQueue()
    for t in times:
        q.push(t, t)
    popped = [q.pop()[0] for _ in range(len(times))]
    assert popped == sorted(popped)


# --------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------- #
def test_evaluation_result_rejects_negative_duration():
    with pytest.raises(ValueError):
        EvaluationResult(objective=0.5, duration=-1.0)


def test_job_objective_requires_result():
    job = Job(job_id=0, config=None)
    with pytest.raises(RuntimeError):
        _ = job.objective
    job.result = EvaluationResult(0.7, 1.0)
    assert job.objective == 0.7


# --------------------------------------------------------------------- #
# SimulatedEvaluator
# --------------------------------------------------------------------- #
def constant_run(duration):
    def run(config):
        return EvaluationResult(objective=float(config), duration=duration)

    return run


def test_sim_clock_advances_to_completions():
    ev = SimulatedEvaluator(constant_run(5.0), num_workers=2)
    ev.submit([0.1, 0.2])
    done = ev.gather()
    assert ev.now == 5.0
    assert len(done) == 2  # both end at the same instant


def test_sim_staggered_durations():
    def run(config):
        return EvaluationResult(objective=config, duration=config)

    ev = SimulatedEvaluator(run, num_workers=2)
    ev.submit([3.0, 7.0])
    first = ev.gather()
    assert [j.config for j in first] == [3.0]
    assert ev.now == 3.0
    second = ev.gather()
    assert [j.config for j in second] == [7.0]
    assert ev.now == 7.0


def test_sim_queueing_when_workers_busy():
    ev = SimulatedEvaluator(constant_run(2.0), num_workers=1)
    ev.submit([1, 2, 3])
    ends = []
    while True:
        done = ev.gather()
        if not done:
            break
        ends.extend(j.end_time for j in done)
    assert ends == [2.0, 4.0, 6.0]  # strictly serialized on one worker
    # Queue delays: 0, 2, 4 minutes.
    delays = sorted(j.queue_delay for j in ev.jobs)
    np.testing.assert_allclose(delays, [0.0, 2.0, 4.0])


def test_sim_utilization_full_on_saturated_worker():
    ev = SimulatedEvaluator(constant_run(1.0), num_workers=1)
    ev.submit([1, 2, 3, 4])
    while ev.gather():
        pass
    assert utilization_summary(ev).utilization == pytest.approx(1.0)


def test_sim_utilization_half_when_one_of_two_busy():
    ev = SimulatedEvaluator(constant_run(4.0), num_workers=2)
    ev.submit([1])
    ev.gather()
    assert utilization_summary(ev).utilization == pytest.approx(0.5)


def test_sim_gather_empty_when_idle():
    ev = SimulatedEvaluator(constant_run(1.0), num_workers=2)
    assert ev.gather() == []


def test_sim_in_flight_accounting():
    ev = SimulatedEvaluator(constant_run(1.0), num_workers=4)
    ev.submit([1, 2, 3])
    assert ev.num_in_flight == 3
    ev.gather()
    assert ev.num_in_flight == 0


def test_sim_resubmission_keeps_workers_busy():
    """The manager pattern: resubmit one job per completed job."""
    ev = SimulatedEvaluator(constant_run(1.0), num_workers=2)
    ev.submit([0, 0])
    for _ in range(10):
        done = ev.gather()
        ev.submit([0] * len(done))
    assert ev.num_in_flight == 2
    assert utilization_summary(ev).utilization > 0.9


def test_sim_worker_validation():
    with pytest.raises(ValueError):
        SimulatedEvaluator(constant_run(1.0), num_workers=0)


def test_sim_deterministic_job_ids_and_order():
    ev = SimulatedEvaluator(constant_run(1.0), num_workers=2)
    jobs = ev.submit([1, 2, 3])
    assert [j.job_id for j in jobs] == [0, 1, 2]
    assert jobs[2].state == JobState.PENDING  # queued behind 2 workers
    assert jobs[0].state == JobState.RUNNING


# --------------------------------------------------------------------- #
# Wall-clock evaluators
# --------------------------------------------------------------------- #
def test_threaded_evaluator_runs_concurrently():
    def run(config):
        time.sleep(0.05)
        return EvaluationResult(objective=config * 2.0, duration=0.0)

    ev = ThreadedEvaluator(run, num_workers=4)
    try:
        ev.submit([1.0, 2.0, 3.0, 4.0])
        results = []
        while len(results) < 4:
            results.extend(ev.gather())
        assert sorted(j.result.objective for j in results) == [2.0, 4.0, 6.0, 8.0]
    finally:
        ev.close()


def test_threaded_evaluator_propagates_exceptions():
    def run(config):
        raise RuntimeError("evaluation failed")

    ev = ThreadedEvaluator(run, num_workers=1)
    try:
        ev.submit([0])
        with pytest.raises(RuntimeError, match="evaluation failed"):
            ev.gather()
    finally:
        ev.close()


def test_threaded_gather_empty_when_idle():
    ev = ThreadedEvaluator(lambda c: EvaluationResult(0.0, 0.0), num_workers=1)
    try:
        assert ev.gather() == []
    finally:
        ev.close()
