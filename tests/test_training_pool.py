"""The simulated evaluator's background training pool.

A run function that declares its duration has its pending attempts
trained by the manager and by forked worker processes
(:mod:`repro.workflow.pool`), while the manager keeps the clock and every
settlement.  Where an outcome is computed must never show:

- campaigns over a spread of ``tools/history_digest.py`` shapes (faults
  and the cache on) give the same history bytes
  and the same JSONL event stream with the pool as inline, where inline
  is forced by patching the module's core-count function;
- a pool worker SIGKILLed mid-campaign retires the pool and the history
  does not change; so does an outcome that does not pickle;
- ``Campaign.run`` leaves no worker process behind, on the simulated and
  the process backend, whether it returns or raises, and a second run
  starts the workers again.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.campaign import (
    EvaluatorConfig,
    FaultConfig,
    JobGathered,
    JsonlEventLog,
    build_campaign,
)
from repro.core.serialization import history_to_dict
from repro.workflow import EvaluationResult, SimulatedEvaluator
from repro.workflow.pool import TrainingPool

ROOT = Path(__file__).resolve().parent.parent


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "history_digest", ROOT / "tools" / "history_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def processes(count: int):
    """Patch the pool's core count (0: every outcome computed inline; with
    ``count`` cores and W simulated workers, ``min(count, W) - 1`` forks)."""
    return mock.patch("repro.workflow.pool.training_processes", return_value=count)


# --------------------------------------------------------------------- #
# Pool vs inline over digest shapes
# --------------------------------------------------------------------- #
SHAPES = [
    ("AgE", "forest", 3, "exact", True),
    ("AgE", "forest", 11, "off", True),
    ("AgEBO", "forest", 11, "exact", True),
    ("AgEBO", "knn", 3, "off", False),
    ("AgEBO-8-LR", "random", 3, "exact", True),
    ("AgEBO-8-LR-BS", "forest", 11, "exact", False),
]


def run_shape(shape, count: int, log_path: Path) -> bytes:
    """One digest-shape campaign; its history bytes (the event log goes
    to ``log_path``)."""
    with processes(count):
        campaign = build_campaign(_digest_tool().campaign_config(*shape))
        log = campaign.subscribe(JsonlEventLog(log_path))
        try:
            history = campaign.run()
        finally:
            log.close()
    return json.dumps(history_to_dict(history), sort_keys=True).encode()


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_pool_and_inline_campaigns_agree(tmp_path, shape):
    inline = run_shape(shape, 0, tmp_path / "inline.jsonl")
    pooled = run_shape(shape, 3, tmp_path / "pool.jsonl")
    assert pooled == inline
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "inline.jsonl").read_bytes()


# --------------------------------------------------------------------- #
# The pool itself
# --------------------------------------------------------------------- #
class SlowRun:
    """A pure run function slow enough to be caught mid-training; config 7
    raises, config 8 returns metadata that does not pickle."""

    def __init__(self, seconds: float = 0.0) -> None:
        self.seconds = seconds

    def duration(self, config) -> float:
        return 1.0 + config % 3

    def __call__(self, config) -> EvaluationResult:
        time.sleep(self.seconds)
        if config == 7:
            raise ValueError(f"bad config {config}")
        metadata = {"square": config * config}
        if config == 8:
            metadata["unpicklable"] = lambda: None
        return EvaluationResult(config / 10.0, self.duration(config), metadata)


def outcome_row(outcome):
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return (outcome.objective, outcome.duration, outcome.metadata["square"])


def pid_run(config):
    return EvaluationResult(0.5, 1.0, {"pid": os.getpid()})


pid_run.duration = lambda config: 1.0


@pytest.mark.parametrize(
    "cores, workers, forked", [(0, 4, 0), (2, 1, 0), (2, 8, 1), (3, 4, 2), (8, 3, 2)]
)
def test_pool_forks_one_fewer_than_its_trainers(cores, workers, forked):
    """The trainers are ``min(cores, num_workers)``, the manager one of them."""
    with processes(cores):
        assert TrainingPool(pid_run, workers).processes == forked


def test_pool_trains_on_worker_processes_and_the_manager():
    with processes(3):
        ev = SimulatedEvaluator(pid_run, num_workers=4)
    ev.submit(list(range(8)))
    done = []
    while ev.num_in_flight:
        done.extend(ev.gather())
    workers = {worker.pid for worker in ev._pool._workers}
    ev.close()
    assert len(workers) == 2
    pids = {job.result.metadata["pid"] for job in done}
    assert os.getpid() in pids and pids - {os.getpid()} <= workers and len(pids) > 1


def test_manager_trains_its_share_when_taken():
    """Submissions are dealt round-robin, the first to the manager, which
    trains its share only when it is taken; the workers train theirs."""
    with processes(2):
        pool = TrainingPool(pid_run, 4)
    for job_id in range(4):
        pool.submit(job_id, job_id)
    assert pool._held == {0, 2}
    assert pool.take(1, 1).metadata["pid"] == pool._workers[0].pid
    assert pool._held == {0, 2}
    assert pool.take(2, 2).metadata["pid"] == os.getpid()
    pool.close()


def test_pool_outcomes_equal_inline_outcomes():
    """Results, a raised exception and an outcome that does not pickle
    (computed again on the manager) come back as inline."""
    run = SlowRun()
    configs = [1, 7, 8, 2, 3]
    with processes(3):
        pool = TrainingPool(run, 3)
    for job_id, config in enumerate(configs):
        pool.submit(job_id, config)
    pool.submit(0, configs[0])  # outstanding: reused, not trained twice
    outcomes = [pool.take(job_id, config) for job_id, config in reversed(list(enumerate(configs)))]
    pool.close()
    assert pool.processes == 2
    assert [outcome_row(o) for o in outcomes] == [
        outcome_row(TrainingPool(run, 1).take(0, config)) for config in reversed(configs)
    ]


def test_dead_worker_retires_the_pool():
    """A worker killed mid-training retires the pool: every outcome still
    missing is computed on the manager, and equals the worker's."""
    with processes(3):
        pool = TrainingPool(SlowRun(seconds=0.1), 3)
    for job_id in range(4):
        pool.submit(job_id, job_id)  # jobs 1 and 2 go to the workers
    time.sleep(0.05)  # both workers hold a task
    os.kill(pool._workers[0].pid, signal.SIGKILL)
    outcomes = [outcome_row(pool.take(job_id, job_id)) for job_id in range(4)]
    assert pool.processes == 0 and not pool._workers
    assert outcomes == [outcome_row(SlowRun()(config)) for config in range(4)]
    pool.submit(9, 9)  # a retired pool computes inline
    assert outcome_row(pool.take(9, 9)) == outcome_row(SlowRun()(9))


def test_task_sent_to_a_dead_pool_retires_it():
    """A task written after the last worker died (nothing outstanding to
    poll first) retires the pool instead of raising a broken pipe."""
    with processes(2):
        pool = TrainingPool(pid_run, 2)
    pool.submit(0, 0)  # the manager's
    pool.submit(1, 1)  # the worker's
    assert pool.take(1, 1).metadata["pid"] == pool._workers[0].pid
    os.kill(pool._workers[0].pid, signal.SIGKILL)
    pool._workers[0].join()
    pool.submit(2, 2)  # the manager's
    pool.submit(3, 3)  # the worker's: its pipe has no reader
    assert pool.processes == 0 and not pool._workers
    assert pool.take(3, 3).metadata["pid"] == os.getpid()


def test_killed_pool_worker_leaves_the_history_unchanged():
    shape = ("AgEBO", "forest", 3, "exact", True)
    config = _digest_tool().campaign_config(*shape)
    with processes(0):
        reference = build_campaign(config).run()
    with processes(2):
        campaign = build_campaign(config)
    killed = []

    def kill_a_worker(event):
        if event.job_id == 4 and not killed:
            killed.append(campaign.evaluator._pool._workers[0].pid)
            os.kill(killed[0], signal.SIGKILL)

    campaign.subscribe(kill_a_worker, JobGathered)
    history = campaign.run()
    assert killed
    assert history_to_dict(history) == history_to_dict(reference)
    assert killed[0] not in {child.pid for child in multiprocessing.active_children()}


# --------------------------------------------------------------------- #
# Campaign.run releases its workers
# --------------------------------------------------------------------- #
def small_config(backend: str, **faults):
    config = _digest_tool().campaign_config("AgE", "forest", 3, "off", False)
    return dataclasses.replace(
        config,
        max_evaluations=6,
        evaluator=EvaluatorConfig(backend=backend, num_workers=2),
        faults=FaultConfig(**faults),
    )


def children() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


@pytest.mark.parametrize("backend", ["simulated", "process"])
def test_campaign_run_leaves_no_worker_behind(backend):
    before = children()
    with processes(2):
        campaign = build_campaign(small_config(backend))
    first = campaign.run(max_evaluations=4)
    assert children() <= before
    # The workers start again for a second run, and go again after it.
    second = campaign.run(max_evaluations=6)
    assert len(second) >= 6 and len(first) >= 4
    assert children() <= before
    campaign.evaluator.close()  # idempotent


@pytest.mark.parametrize("backend", ["simulated", "process"])
def test_campaign_run_that_raises_leaves_no_worker_behind(backend):
    before = children()
    with processes(2):
        campaign = build_campaign(small_config(backend, on_error="raise", corrupt_prob=1.0))
    with pytest.raises(RuntimeError, match="invalid objective"):
        campaign.run()
    assert children() <= before
