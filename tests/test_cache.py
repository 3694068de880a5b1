"""EvaluationCache: canonical hashing, backend semantics, determinism.

The headline acceptance criterion: a seeded AgE campaign with
``cache="exact"`` reproduces the cache-off search history *bit-identically*
(the simulated backend replays memoized durations on the simulated clock)
while reporting a nonzero hit-rate — duplicates never call the run function
but the timeline is unchanged, with and without injected faults.  ``FAULT_SEED``
in the environment sets the fault seed (used by the CI fault-injection
job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from conftest import restorable_state

from repro.analysis import utilization_summary
from repro.core import AgE
from repro.core.config import ModelConfig
from repro.core.serialization import history_to_dict
from repro.searchspace import ArchitectureSpace
from repro.workflow import (
    EvaluationCache,
    EvaluationResult,
    FaultPolicy,
    JobState,
    ProcessPoolEvaluator,
    SimulatedEvaluator,
    ThreadedEvaluator,
    canonical_config_key,
)


def arch_eval(config):
    """Deterministic pure function of the candidate config."""
    arch = np.asarray(config.arch)
    h = int(np.sum(arch * np.arange(1, arch.size + 1)))
    return EvaluationResult(
        objective=0.3 + 0.6 * ((h * 37) % 101) / 101.0,
        duration=1.0 + (h % 5),
        metadata={"h": h},
    )


def int_eval(config):
    h = (int(config) * 2654435761) % 997
    return EvaluationResult(objective=(h % 100) / 100.0, duration=1.0 + (h % 7))


def marked_failed_eval(config):
    """A result the run function itself marks as failed."""
    return EvaluationResult(0.1, 2.0, {"failed": True, "error": "diverged"})


class Declared:
    """``run`` declaring its duration, so the simulated evaluator trains
    its attempts lazily and reads each outcome at its completion."""

    def __init__(self, run):
        self.run = run

    def duration(self, config):
        return self.run(config).duration

    def __call__(self, config):
        return self.run(config)


def drain(ev):
    finished = []
    while ev.num_in_flight:
        finished.extend(ev.gather())
    return finished


def counting(run):
    """``run`` plus the list of configs it was called with."""
    calls = []

    def counted(config):
        calls.append(config)
        return run(config)

    return counted, calls


# --------------------------------------------------------------------- #
# Canonical hashing
# --------------------------------------------------------------------- #
def test_key_is_order_independent_for_dicts():
    a = {"learning_rate": 0.01, "batch_size": 64, "num_ranks": 2}
    b = {"num_ranks": 2, "batch_size": 64, "learning_rate": 0.01}
    assert canonical_config_key(a) == canonical_config_key(b)
    c = dict(a, learning_rate=0.02)
    assert canonical_config_key(a) != canonical_config_key(c)


def test_key_normalizes_numpy_scalars_and_arrays():
    a = {"x": np.int64(3), "arr": np.array([1, 2, 3])}
    b = {"x": 3, "arr": [1, 2, 3]}
    assert canonical_config_key(a) == canonical_config_key(b)


def test_key_model_config_structural_equality():
    cfg_a = ModelConfig(
        arch=np.array([1, 0, 2], dtype=np.int64),
        hyperparameters={"batch_size": 64, "learning_rate": 0.01},
    )
    cfg_b = ModelConfig(
        arch=np.array([1, 0, 2], dtype=np.int64),
        hyperparameters={"learning_rate": 0.01, "batch_size": 64},
    )
    assert canonical_config_key(cfg_a) == canonical_config_key(cfg_b)
    cfg_c = ModelConfig(
        arch=np.array([1, 0, 3], dtype=np.int64),
        hyperparameters=dict(cfg_a.hyperparameters),
    )
    assert canonical_config_key(cfg_a) != canonical_config_key(cfg_c)


# --------------------------------------------------------------------- #
# Cache object semantics
# --------------------------------------------------------------------- #
def test_cache_counters_and_first_store_wins():
    cache = EvaluationCache()
    assert cache.lookup({"x": 1}) is None
    assert cache.misses == 1 and cache.hit_rate == 0.0
    assert cache.store({"x": 1}, EvaluationResult(0.5, 2.0))
    assert not cache.store({"x": 1}, EvaluationResult(0.9, 9.0))  # first wins
    hit = cache.lookup({"x": 1})
    assert hit.objective == 0.5 and hit.duration == 2.0
    assert cache.hits == 1 and cache.stores == 1 and len(cache) == 1
    assert cache.hit_rate == 0.5
    assert {"x": 1} in cache and {"x": 2} not in cache


def test_cache_returns_fresh_copies():
    cache = EvaluationCache()
    cache.store({"x": 1}, EvaluationResult(0.5, 2.0, metadata={"k": 1}))
    first = cache.lookup({"x": 1})
    first.metadata["k"] = 999
    assert cache.lookup({"x": 1}).metadata["k"] == 1


# --------------------------------------------------------------------- #
# Simulated backend: timeline replay, no recomputation, checkpointing
# --------------------------------------------------------------------- #
def test_sim_cache_replays_duration_on_simulated_clock():
    cache = EvaluationCache()
    run, calls = counting(int_eval)
    ev = SimulatedEvaluator(run, num_workers=1, cache=cache)
    ev.submit([3, 3])
    finished = []
    while ev.num_in_flight:
        finished.extend(ev.gather())
    first, dup = sorted(finished, key=lambda j: j.job_id)
    assert not first.cache_hit and dup.cache_hit
    # Identical result, and the duplicate still occupied the worker for
    # the memoized duration — the timeline matches a cache-off run.
    assert dup.objective == first.objective
    assert dup.result.duration == first.result.duration
    assert dup.start_time == first.end_time
    assert dup.end_time == first.end_time + first.result.duration
    # ...but only the real evaluation ran the run function.
    assert calls == [3]
    assert cache.hits == 1 and cache.stores == 1


def test_sim_cache_state_roundtrips_through_evaluator_checkpoint():
    cache = EvaluationCache()
    ev = SimulatedEvaluator(int_eval, num_workers=2, cache=cache)
    ev.submit([1, 2, 1])
    while ev.num_in_flight:
        ev.gather()
    state = restorable_state(ev)
    # Restoring into a cache-less evaluator revives the memo.
    resumed = SimulatedEvaluator(int_eval, num_workers=2)
    resumed.load_state(state)
    assert resumed.cache is not None
    assert len(resumed.cache) == len(cache)
    assert resumed.cache.hits == cache.hits
    jobs = resumed.submit([2])  # duplicate of a pre-checkpoint evaluation
    while resumed.num_in_flight:
        resumed.gather()
    assert jobs[0].cache_hit


FAULTY_RETRY_POLICY = FaultPolicy(
    on_error="retry", max_retries=2, retry_backoff=1.0, timeout=10.0,
    crash_prob=0.15, hang_prob=0.1, corrupt_prob=0.1, hang_factor=3.0,  # some hangs time out
    fault_seed=int(os.environ.get("FAULT_SEED") or 0),
)


@pytest.mark.parametrize(
    "policy", [None, FAULTY_RETRY_POLICY], ids=["faults-off", "faults-on"]
)
def test_sim_cache_on_off_histories_bit_identical_with_nonzero_hits(policy):
    """Acceptance: seeded AgE, cache on vs off -> identical history; the
    cached run reports hits and calls the run function once per miss, so
    strictly less often.  Under injected faults a hit draws the same fault
    a recomputation would."""
    space = ArchitectureSpace(num_nodes=2)

    def run_search(cache):
        run, calls = counting(arch_eval)
        ev = SimulatedEvaluator(run, num_workers=3, fault_policy=policy, cache=cache)
        search = AgE(space, ev, population_size=4, sample_size=2, seed=13)
        history = search.search(max_evaluations=60)
        return history, ev, calls

    history_off, ev_off, calls_off = run_search(cache=None)
    cache = EvaluationCache()
    history_on, ev_on, calls_on = run_search(cache=cache)

    assert cache.hits > 0, "tiny space must produce duplicate candidates"
    da, db = history_to_dict(history_off), history_to_dict(history_on)
    assert len(da["records"]) == len(db["records"]) >= 60
    assert da == db  # bit-identical: configs, objectives, timestamps
    assert ev_on.now == ev_off.now  # same simulated timeline
    assert len(calls_on) == cache.misses < len(calls_off)  # hits cost no compute
    assert ev_on.num_faults_injected == ev_off.num_faults_injected
    if policy is not None:
        assert ev_on.num_faults_injected > 0 and ev_on.num_failures > 0


# --------------------------------------------------------------------- #
# Wall-clock backends: hits resolved at submit with zero duration
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "backend", [ThreadedEvaluator, ProcessPoolEvaluator], ids=["threaded", "process"]
)
def test_wallclock_cache_hit_finalized_at_submit(backend):
    """Both wall-clock backends serve a duplicate at submit without a
    worker: zero wall duration, so it adds nothing to the busy time."""
    cache = EvaluationCache()
    with backend(int_eval, num_workers=2, cache=cache) as ev:
        ev.submit([5])
        while ev.num_in_flight:
            ev.gather()
        busy_before = utilization_summary(ev).busy_worker_minutes
        jobs = ev.submit([5])
        finished = []
        while ev.num_in_flight:
            finished.extend(ev.gather())
    assert jobs[0].cache_hit
    assert finished[0].job_id == jobs[0].job_id
    assert finished[0].objective == int_eval(5).objective
    assert finished[0].start_time == finished[0].end_time  # zero wall time
    assert utilization_summary(ev).busy_worker_minutes == busy_before
    assert cache.hits == 1 and cache.stores == 1


# --------------------------------------------------------------------- #
# One cache rule on every backend: memoize a result when its attempt ends
# --------------------------------------------------------------------- #
CACHE_BACKENDS = {
    "simulated-declared": lambda run, cache: SimulatedEvaluator(Declared(run), 2, cache=cache),
    "simulated": lambda run, cache: SimulatedEvaluator(run, 2, cache=cache),
    "threaded": lambda run, cache: ThreadedEvaluator(run, 2, cache=cache),
    "process": lambda run, cache: ProcessPoolEvaluator(run, 2, cache=cache),
}


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_in_flight_duplicate_misses_on_every_backend(backend):
    """A duplicate that starts while its original still runs misses and
    trains, on every backend and whether or not the run function declares
    its duration; once the original has ended, the next duplicate hits."""
    cache = EvaluationCache()
    with CACHE_BACKENDS[backend](int_eval, cache) as ev:
        pair = ev.submit([5, 5])
        drain(ev)
        assert [job.cache_hit for job in pair] == [False, False]
        assert cache.hits == 0 and cache.stores == 1
        (later,) = ev.submit([5])
        drain(ev)
    assert later.cache_hit and cache.hits == 1


@pytest.mark.parametrize("backend", CACHE_BACKENDS)
def test_result_marked_failed_is_never_memoized(backend):
    """A result the run function marks failed ends its job ``FAILED`` and
    never reaches the cache: a later duplicate trains again."""
    cache = EvaluationCache()
    with CACHE_BACKENDS[backend](marked_failed_eval, cache) as ev:
        ev.submit([5])
        drain(ev)
        (again,) = ev.submit([5])
        drain(ev)
    assert again.state is JobState.FAILED and not again.cache_hit
    assert len(cache) == 0 and cache.stores == 0


@pytest.mark.parametrize("declared", [False, True], ids=["simulated", "simulated-declared"])
def test_result_marked_failed_is_not_memoized_after_a_restore(declared):
    """A restored evaluator rebuilds the cache with the live rule, so a
    duplicate of a failed-marked result trains again after a resume as it
    does without one."""
    run = Declared(marked_failed_eval) if declared else marked_failed_eval

    def schedule(resume_between):
        ev = SimulatedEvaluator(run, num_workers=2, cache=EvaluationCache())
        ev.submit([5])
        drain(ev)
        if resume_between:
            state = restorable_state(ev)
            ev.close()
            ev = SimulatedEvaluator(run, num_workers=2)
            ev.load_state(state)
        with ev:
            ev.submit([5])
            drain(ev)
        jobs = [(job.job_id, job.cache_hit, job.start_time, job.end_time) for job in ev.jobs]
        return jobs, len(ev.cache)

    straight = schedule(False)
    assert schedule(True) == straight
    assert straight[1] == 0 and not any(hit for _, hit, _, _ in straight[0])


def raise_on_one(config):
    if config == 1:
        raise RuntimeError("boom")
    return EvaluationResult(0.5, 2.0)


def test_job_finished_beside_a_raise_is_memoized_live_and_after_a_restore():
    """Jobs that ended in the gather an attempt's raise cut short are
    memoized as they end, and a restore from that moment rebuilds their
    entry: a later duplicate hits on both."""

    def evaluator(cache=None):
        policy = FaultPolicy(on_error="raise")
        return SimulatedEvaluator(raise_on_one, num_workers=2, fault_policy=policy, cache=cache)

    ev = evaluator(EvaluationCache())
    ev.submit([0, 0, 1])
    with pytest.raises(RuntimeError, match="boom"):
        ev.gather()  # jobs 0 and 1 end at 2, undelivered; job 2 then starts and raises
    restored = evaluator()
    restored.load_state(restorable_state(ev))
    for e in (ev, restored):
        assert 0 in e.cache and len(e.cache) == 1
        assert [job.job_id for job in e.gather()] == [0, 1]
        (duplicate,) = e.submit([0])
        drain(e)
        assert duplicate.cache_hit


# --------------------------------------------------------------------- #
# Campaign surface: config validation, builder wiring, metrics
# --------------------------------------------------------------------- #
def test_evaluator_config_validates_cache_mode():
    from repro.campaign import EvaluatorConfig

    assert EvaluatorConfig(cache="exact").cache == "exact"
    with pytest.raises(ValueError, match="cache"):
        EvaluatorConfig(cache="bogus")


def test_builder_constructs_cache_and_backend():
    from repro.campaign import CampaignConfig, EvaluatorConfig, SearchConfig, build_campaign

    config = CampaignConfig(
        dataset="covertype",
        size=200,
        max_evaluations=4,
        search=SearchConfig(method="AgE", population_size=3, sample_size=2),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=2, cache="exact"),
    )
    campaign = build_campaign(config)
    assert isinstance(campaign.evaluator.cache, EvaluationCache)
    off = build_campaign(config.replace(evaluator=EvaluatorConfig(num_workers=2)))
    assert off.evaluator.cache is None


def test_metrics_aggregator_reports_cache_hit_rate():
    from repro.campaign import CacheHit, CacheStore, EventBus, JobGathered, MetricsAggregator

    bus = EventBus()
    metrics = MetricsAggregator()
    bus.subscribe(metrics)
    for job_id in (0, 1):
        bus.emit(
            JobGathered(
                job_id=job_id, time=1.0, objective=0.5, duration=1.0,
                submit_time=0.0, start_time=0.0, end_time=1.0, worker=0,
                failed=False, retries=0,
            )
        )
    bus.emit(CacheStore(job_id=0, key="k", time=1.0))
    bus.emit(CacheHit(job_id=1, key="k", time=1.0))
    assert metrics.num_cache_hits == 1
    assert metrics.num_cache_stores == 1
    assert metrics.cache_hit_rate == 0.5
    summary = metrics.summary()
    assert summary["num_cache_hits"] == 1
    assert summary["num_cache_stores"] == 1
    assert summary["cache_hit_rate"] == 0.5
