"""Checkpoint/resume: schema round-trips and bit-identical continuation.

The headline guarantee (ISSUE acceptance criterion): a campaign killed at
evaluation N and resumed from its checkpoint produces a final history
*identical* to the uninterrupted run — same configs, same objectives, same
timestamps.  That requires every stochastic component (search rng, BO
tell-history + rng, evaluator clock/queues/event counters) to round-trip
through the checkpoint; injected faults are drawn from (fault_seed, job_id,
retries) and need no state.
"""

from __future__ import annotations

import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import restorable_state
from hypothesis import strategies as st

from repro.analysis import utilization_summary
from repro.cli import main
from repro.core import AgE, AgEBO, load_checkpoint, save_checkpoint
from repro.core.serialization import (
    CHECKPOINT_VERSION,
    history_to_dict,
    record_from_dict,
    record_to_dict,
)
from repro.searchspace import ArchitectureSpace
from repro.searchspace.hpspace import default_dataparallel_space
from repro.workflow import (
    EvaluationCache,
    EvaluationResult,
    FaultPolicy,
    SimulatedEvaluator,
)
from repro.workflow.jobs import job_to_dict


def fake_eval(config):
    """Deterministic stand-in keyed on the full config."""
    arch_part = int(np.sum(config.arch * np.arange(1, config.arch.size + 1)))
    hp = config.hyperparameters
    h = (arch_part * 31 + int(hp["num_ranks"]) * 7 + int(hp["batch_size"])) % 1013
    return EvaluationResult(
        objective=0.3 + 0.6 * (h / 1013.0),
        duration=3.0 + (h % 13),
        metadata={"h": h},
    )


class DeclaredFakeEval:
    """``fake_eval`` declaring its duration: the simulated evaluator calls
    it only when an attempt's completion is reached."""

    def duration(self, config):
        return fake_eval(config).duration

    def __call__(self, config):
        return fake_eval(config)


def build_agebo(run_function, seed=7, num_workers=8, policy=None, cache=None):
    space = ArchitectureSpace(num_nodes=3)
    hp_space = default_dataparallel_space(max_ranks=4)
    ev = SimulatedEvaluator(
        run_function, num_workers=num_workers, fault_policy=policy, cache=cache
    )
    return AgEBO(
        space, hp_space, ev,
        population_size=10, sample_size=3, n_initial_points=5, seed=seed,
    )


# --------------------------------------------------------------------- #
# Schema round-trip
# --------------------------------------------------------------------- #
def test_checkpoint_version_round_trip(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=8)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path, extra={"note": "hello"})
    data = load_checkpoint(path)
    assert data["version"] == CHECKPOINT_VERSION
    assert data["algorithm"] == "AgEBO"
    assert data["extra"] == {"note": "hello"}
    # The file is JSONL: a header line, then job lines and a state line.
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {
        "version": CHECKPOINT_VERSION, "algorithm": "AgEBO", "extra": {"note": "hello"}
    }
    assert [row["job_id"] for row in lines[1:-1]] == data["search"]["history"]
    assert set(lines[-1]) == {"search"}
    resumed = build_agebo(fake_eval)
    resumed.load_state(data["search"])
    assert_identical_history(search.history, resumed.history)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=4)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path)
    header, rest = path.read_text().split("\n", 1)
    header = json.loads(header)
    header["version"] = CHECKPOINT_VERSION + 99
    path.write_text(json.dumps(header) + "\n" + rest)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_version_1_checkpoint_gets_a_clear_error(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_text(json.dumps({"version": 1, "algorithm": "AgEBO", "search": {}}))
    with pytest.raises(ValueError, match="version 1.*re-run the campaign"):
        load_checkpoint(path)
    with pytest.raises(SystemExit, match="version 1"):
        main(["search", "--resume", str(path), "--max-evaluations", "4"], out=io.StringIO())


def test_version_2_checkpoint_gets_a_clear_error(tmp_path):
    """A version-2 checkpoint (one JSON document holding the whole job
    table) is refused, not misread as a journal."""
    path = tmp_path / "v2.ckpt"
    path.write_text(json.dumps({"version": 2, "algorithm": "AgEBO", "search": {}}))
    with pytest.raises(ValueError, match="version 2.*re-run the campaign"):
        load_checkpoint(path)
    with pytest.raises(SystemExit, match="version 2"):
        main(["search", "--resume", str(path), "--max-evaluations", "4"], out=io.StringIO())


def test_checkpoint_stores_each_evaluation_once(tmp_path):
    """No history records, cache entries or BO observations: the
    evaluator's job table is the one copy of every evaluation, and the
    journal appends each finished job once, however many checkpoints."""
    search = build_agebo(fake_eval)
    search.evaluator.cache = EvaluationCache()
    path = tmp_path / "ck.json"
    search.search(max_evaluations=12, checkpoint_path=path)
    save_checkpoint(search, path)
    state = load_checkpoint(path)["search"]
    assert state["history"] == [job.job_id for job in search.history_jobs]
    job_lines = [row for row in map(json.loads, path.read_text().splitlines()[1:])
                 if "search" not in row]  # fmt: skip
    assert [row["job_id"] for row in job_lines] == state["history"]
    assert all(row["state"] in ("done", "failed") for row in job_lines)
    assert all(isinstance(i, int) for i in state["population"])
    assert state["pending_results"] == len(search._pending_results) > 0
    assert set(state["optimizer"]) == {"rng_state"}
    assert state["evaluator"]["cache"] == [search.evaluator.cache.hits,
                                           search.evaluator.cache.misses,
                                           search.evaluator.cache.stores]
    assert len(state["evaluator"]["jobs"]) == search.evaluator._next_id


def test_checkpoint_missing_search_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=4)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path)
    assert not list(tmp_path.glob("*.tmp"))  # temp file replaced, not left over


def test_record_round_trip_preserves_rich_metadata():
    search = build_agebo(fake_eval)
    history = search.search(max_evaluations=4)
    rec = history.records[0]
    row = record_to_dict(rec, rich_metadata=True)
    back = record_from_dict(row)
    assert back.objective == rec.objective
    assert back.duration == rec.duration
    assert np.array_equal(back.config.arch, rec.config.arch)
    assert back.config.hyperparameters == rec.config.hyperparameters
    assert back.metadata.get("h") == rec.metadata.get("h")


# --------------------------------------------------------------------- #
# Bit-identical resume
# --------------------------------------------------------------------- #
def assert_identical_history(a, b):
    da, db = history_to_dict(a), history_to_dict(b)
    assert len(da["records"]) == len(db["records"])
    assert da == db


def test_agebo_resume_is_bit_identical(tmp_path):
    # Uninterrupted reference run.
    full = build_agebo(fake_eval).search(max_evaluations=32)

    # Interrupted run: checkpoint every iteration, stop at 16.
    path = tmp_path / "ck.json"
    interrupted = build_agebo(fake_eval)
    interrupted.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)

    resumed = build_agebo(fake_eval)
    resumed.load_state(load_checkpoint(path)["search"])
    history = resumed.search(max_evaluations=32)
    assert_identical_history(full, history)


def test_agebo_resume_under_faults_is_bit_identical(tmp_path):
    """Injected faults are a pure function of the attempt, so the same
    faults recur after resume."""
    policy = FaultPolicy(
        on_error="retry", max_retries=2, retry_backoff=1.0, timeout=60.0,
        crash_prob=0.2, hang_prob=0.1, fault_seed=3,
    )

    full = build_agebo(fake_eval, policy=policy).search(max_evaluations=32)

    path = tmp_path / "ck.json"
    interrupted = build_agebo(fake_eval, policy=policy)
    interrupted.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)

    resumed = build_agebo(fake_eval, policy=policy)
    resumed.load_state(load_checkpoint(path)["search"])
    history = resumed.search(max_evaluations=32)
    assert_identical_history(full, history)
    assert interrupted.evaluator.num_failures > 0  # faults actually fired


def test_age_resume_is_bit_identical(tmp_path):
    space = ArchitectureSpace(num_nodes=3)
    hps = {"batch_size": 64, "learning_rate": 0.01, "num_ranks": 2}

    def run(seed=5):
        ev = SimulatedEvaluator(fake_eval, num_workers=4)
        return AgE(space, ev, hyperparameters=hps,
                   population_size=8, sample_size=3, seed=seed)

    full = run().search(max_evaluations=24)

    path = tmp_path / "ck.json"
    run().search(max_evaluations=12, checkpoint_path=path, checkpoint_every=1)
    resumed = run()
    resumed.load_state(load_checkpoint(path)["search"])
    history = resumed.search(max_evaluations=24)
    assert_identical_history(full, history)


def test_checkpoint_with_busy_time_fields_resumes_bit_identical(tmp_path):
    """Checkpoints written while the evaluators kept a private busy-time
    ledger also hold ``busy_time`` and ``capacity_time``; such a checkpoint
    still resumes to the uninterrupted history."""
    full = build_agebo(fake_eval).search(max_evaluations=32)

    path = tmp_path / "ck.json"
    build_agebo(fake_eval).search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)
    state = load_checkpoint(path)["search"]
    evaluator_state = state["evaluator"]
    assert "busy_time" not in evaluator_state and "capacity_time" not in evaluator_state
    evaluator_state.update(busy_time=123.25, capacity_time=456.5)

    resumed = build_agebo(fake_eval)
    resumed.load_state(state)
    history = resumed.search(max_evaluations=32)
    assert_identical_history(full, history)


def test_eager_shaped_checkpoint_resumes_lazily_bit_identical(tmp_path):
    """A checkpoint written by eager settlement — in-flight jobs carrying
    their results under ``finish`` events, no ``complete`` event — resumes
    under a run function that declares its duration to the uninterrupted
    history."""
    policy = FaultPolicy(
        on_error="retry", max_retries=1, timeout=14.0, crash_prob=0.15, hang_prob=0.15,
        fault_seed=5,
    )  # fmt: skip
    full = build_agebo(DeclaredFakeEval(), policy=policy, cache=EvaluationCache())
    full.search(max_evaluations=32)

    path = tmp_path / "ck.json"
    build_agebo(fake_eval, policy=policy, cache=EvaluationCache()).search(
        max_evaluations=16, checkpoint_path=path, checkpoint_every=1
    )
    search_state = load_checkpoint(path)["search"]
    state = search_state["evaluator"]
    kinds = {kind for _, _, kind, _, _ in state["events"]}
    assert "complete" not in kinds and "finish" in kinds
    jobs = {row["job_id"]: row for row in state["jobs"]}
    in_flight = [jobs[ref] for _, _, kind, ref, _ in state["events"] if kind == "finish"]
    assert all(row["result"] is not None for row in in_flight)

    resumed = build_agebo(DeclaredFakeEval(), policy=policy, cache=EvaluationCache())
    resumed.load_state(search_state)
    assert_identical_history(full.history, resumed.search(max_evaluations=32))


def test_resumed_duplicate_forces_the_checkpointed_pending_attempt():
    """A duplicate submitted after resume while its original still pends
    untrained is a cache hit, as it is without the interruption."""
    def schedule(ev, resume_between):
        ev.submit([0, 1])
        ev.gather()  # config 1 ends at 2; config 0 pends until 9, untrained
        if resume_between:
            state = restorable_state(ev)
            assert state["unforced"] == [0]
            ev = SimulatedEvaluator(run, num_workers=2, cache=EvaluationCache())
            ev.load_state(state)
        ev.submit([0])
        while ev.num_in_flight:
            ev.gather()
        return [(j.job_id, j.cache_hit, j.start_time, j.end_time) for j in ev.jobs]

    def run(config):
        return EvaluationResult(0.5 + config / 10, {0: 9.0, 1: 2.0}[config])

    run.duration = lambda config: run(config).duration
    straight = schedule(SimulatedEvaluator(run, num_workers=2, cache=EvaluationCache()), False)
    resumed = schedule(SimulatedEvaluator(run, num_workers=2, cache=EvaluationCache()), True)
    assert resumed == straight
    assert straight[-1][1]  # the duplicate hit


def test_forced_result_epochs_survive_the_checkpoint(tiny_covertype):
    """A pending attempt forced by its duplicate before the checkpoint
    emits, once resumed, the ``EpochEnd`` events of the uninterrupted run:
    its epochs come back from the checkpoint row's list metadata."""
    from repro.campaign import EpochEnd, EventBus
    from repro.core import ModelConfig, ModelEvaluation

    space = ArchitectureSpace(num_nodes=2)
    run = ModelEvaluation(tiny_covertype, space, epochs=2, nominal_epochs=20, warmup_epochs=0)
    rng = np.random.default_rng(5)
    hp = {"batch_size": 32, "learning_rate": 0.01, "num_ranks": 2}
    short, long = sorted((ModelConfig(space.random_sample(rng), hp) for _ in range(2)),
                         key=run.duration)  # fmt: skip
    assert run.duration(short) < run.duration(long)

    def evaluator():
        ev = SimulatedEvaluator(run, num_workers=2, cache=EvaluationCache())
        ev.event_bus = EventBus()
        epochs = []
        ev.event_bus.subscribe(epochs.append, EpochEnd)
        return ev, epochs

    def schedule(resume_between):
        ev, epochs = evaluator()
        ev.submit([long, short])
        ev.gather()  # short ends; long pends untrained
        ev.submit([long])  # its start forces the pending original
        if resume_between:
            state = restorable_state(ev)
            (row,) = [row for row in state["jobs"] if row["job_id"] == 0]
            assert row["state"] == "running" and row["result"]["metadata"]["epoch_train_losses"]
            ev, epochs = evaluator()
            ev.load_state(state)
        else:
            epochs.clear()
        while ev.num_in_flight:
            ev.gather()
        return epochs

    straight = schedule(False)
    assert [(e.job_id, e.epoch) for e in straight] == [(0, 0), (0, 1)]
    assert schedule(True) == straight


def lazy_campaign_config(**overrides):
    """A cache-on AgEBO campaign on real training, small enough for the
    suite."""
    from repro.campaign import CampaignConfig, EvaluatorConfig, SearchConfig, TrainingConfig

    base = dict(
        dataset="covertype",
        size=300,
        num_nodes=2,
        max_evaluations=20,
        search=SearchConfig(
            method="AgEBO", population_size=4, sample_size=2, seed=3, n_initial_points=3
        ),
        training=TrainingConfig(epochs=1, nominal_epochs=20, warmup_epochs=0),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=4, cache="exact"),
    )
    base.update(overrides)
    return CampaignConfig(**base)


_UNINTERRUPTED: dict[str, str] = {}


@given(kill=st.integers(4, 18))
@settings(max_examples=max(2, settings.default.max_examples // 20), deadline=None)
def test_lazy_campaign_killed_with_unevaluated_attempts_resumes_bit_identical(
    tmp_path_factory, kill
):
    """A cache-on campaign whose checkpoint holds pending attempts that
    were never trained resumes to the uninterrupted history, byte for
    byte, and its jobs emit the uninterrupted run's ``EpochEnd`` events
    (a forced result's epochs come back from the checkpoint row)."""
    from repro.campaign import (
        CheckpointConfig,
        EpochEnd,
        EventBus,
        build_campaign,
        resume_campaign,
    )

    def epochs_by_job(bus):
        by_job: dict[int, list] = {}
        bus.subscribe(lambda e: by_job.setdefault(e.job_id, []).append(e), EpochEnd)
        return by_job

    if "full" not in _UNINTERRUPTED:
        bus = EventBus()
        _UNINTERRUPTED["epochs"] = epochs_by_job(bus)
        full = build_campaign(lazy_campaign_config(), bus).run()
        _UNINTERRUPTED["full"] = json.dumps(history_to_dict(full), sort_keys=True)

    path = tmp_path_factory.mktemp("lazy") / "camp.ckpt"
    build_campaign(
        lazy_campaign_config(
            max_evaluations=kill, checkpoint=CheckpointConfig(path=str(path), every=1)
        )
    ).run()
    state = load_checkpoint(path)["search"]["evaluator"]
    jobs = {row["job_id"]: row for row in state["jobs"]}
    pending = [
        jobs[ref] for _, _, kind, ref, attempt in state["events"]
        if kind == "complete" and jobs[ref]["attempt"] == attempt
    ]  # fmt: skip
    assert any(row["result"] is None for row in pending)
    assert state["unforced"]  # clean pending attempts a duplicate would force

    bus = EventBus()
    resumed_epochs = epochs_by_job(bus)
    history = resume_campaign(path, bus, max_evaluations=20).run()
    assert json.dumps(history_to_dict(history), sort_keys=True) == _UNINTERRUPTED["full"]
    full_epochs = _UNINTERRUPTED["epochs"]
    assert resumed_epochs
    assert resumed_epochs == {job_id: full_epochs[job_id] for job_id in resumed_epochs}


def test_resume_restores_bo_observations(tmp_path):
    path = tmp_path / "ck.json"
    interrupted = build_agebo(fake_eval)
    interrupted.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)
    n_obs = interrupted.optimizer.num_observations
    rng_state = interrupted.optimizer._rng.bit_generator.state

    resumed = build_agebo(fake_eval)
    resumed.load_state(load_checkpoint(path)["search"])
    # The checkpoint is written at the last quiescent iteration boundary,
    # which may trail the in-memory search by at most one iteration.
    n_resumed = resumed.optimizer.num_observations
    assert n_resumed >= n_obs - interrupted.num_workers
    assert n_resumed > 0
    assert resumed.optimizer._y == pytest.approx(interrupted.optimizer._y[:n_resumed])
    if n_resumed == n_obs:
        assert resumed.optimizer._rng.bit_generator.state == rng_state


def test_checkpoint_every_throttles_writes(tmp_path, monkeypatch):
    writes = {"n": 0}
    import repro.core.search as search_mod
    original = search_mod.AgingEvolutionBase.checkpoint

    def counting(self, path):
        writes["n"] += 1
        original(self, path)

    monkeypatch.setattr(search_mod.AgingEvolutionBase, "checkpoint", counting)
    path = tmp_path / "ck.json"
    search = build_agebo(fake_eval)
    search.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=4)
    assert 0 < writes["n"] <= 4 + 1  # every 4th iteration (+ final)


# --------------------------------------------------------------------- #
# Resume gate: any kill point, replacement rule, cache mode, fault policy,
# worker-failure schedule and settlement (eager, or lazy for a run
# function that declares its duration, trained inline or on a pool of
# forked workers) continues to the uninterrupted campaign
# --------------------------------------------------------------------- #
TOTAL_EVALUATIONS = 20
FAULT_SEED_BASE = int(os.environ.get("FAULT_SEED", "0"))


@st.composite
def campaigns(draw):
    manual = draw(st.booleans())
    return {
        "method": draw(st.sampled_from(["AgE", "AgEBO"])),
        "replacement": draw(st.sampled_from(["aging", "elitist"])),
        "cache": draw(st.booleans()),
        "crash_prob": draw(st.sampled_from([0.0, 0.15, 0.3])),
        "hang_prob": draw(st.sampled_from([0.0, 0.1, 0.2])),
        "corrupt_prob": draw(st.sampled_from([0.0, 0.1])),
        "fault_seed": FAULT_SEED_BASE + draw(st.integers(0, 10_000)),
        "max_retries": draw(st.integers(0, 2)),
        "timeout": draw(st.sampled_from([None, 14.0, 40.0])),
        "worker_failures": draw(
            st.lists(
                st.tuples(st.floats(0.0, 60.0), st.integers(0, 3)),
                max_size=2,
                unique_by=lambda failure: failure[1],
            )
        ),
        "lazy": draw(st.booleans()),
        # Cores for the lazy evaluator's trainers (0: inline; 3: two forks).
        "pool": draw(st.sampled_from([0, 3])),
        "manual": manual,
        # A periodic checkpoint needs one full iteration: the first gather
        # returns at most the 4 initial jobs.
        "kill": draw(st.integers(2 if manual else 5, TOTAL_EVALUATIONS - 1)),
    }


def build_campaign_search(c):
    policy = FaultPolicy(
        on_error="retry", max_retries=c["max_retries"], retry_backoff=1.0,
        timeout=c["timeout"], crash_prob=c["crash_prob"], hang_prob=c["hang_prob"],
        corrupt_prob=c["corrupt_prob"], fault_seed=c["fault_seed"],
    )
    evaluator = SimulatedEvaluator(
        DeclaredFakeEval() if c.get("lazy") else fake_eval, num_workers=4, fault_policy=policy,
        worker_failures=c["worker_failures"],
        cache=EvaluationCache() if c["cache"] else None,
    )
    space = ArchitectureSpace(num_nodes=2)
    common = dict(population_size=6, sample_size=3, seed=11, replacement=c["replacement"])
    if c["method"] == "AgE":
        return AgE(space, evaluator, **common)
    hp_space = default_dataparallel_space(max_ranks=4)
    return AgEBO(space, hp_space, evaluator, n_initial_points=4, **common)


def evaluator_counters(ev):
    cache = ev.cache
    return (
        ev.now, utilization_summary(ev), ev.num_failures, ev.num_faults_injected, ev.num_retries,
        ev.num_timeouts, ev.num_worker_failures, None if cache is None else (cache.hits, cache.misses, cache.stores),
    )


def cache_entries(ev):
    if ev.cache is None:
        return None
    return {
        key: (r.objective, r.duration, json.dumps(r.metadata, sort_keys=True))
        for key, r in ev.cache._entries.items()
    }


@given(c=campaigns())
@settings(max_examples=settings.default.max_examples // 5, deadline=None)
def test_resume_gate_matches_uninterrupted_campaign(tmp_path_factory, c):
    with mock.patch("repro.workflow.pool.training_processes", return_value=c["pool"]):
        full = build_campaign_search(c)
        full.search(max_evaluations=TOTAL_EVALUATIONS)

        path = tmp_path_factory.mktemp("resume") / "ck.json"
        interrupted = build_campaign_search(c)
        if c["manual"]:
            # A budget stop leaves gathered results whose replacements were
            # not submitted yet; the checkpoint must carry them.
            interrupted.search(max_evaluations=c["kill"])
            save_checkpoint(interrupted, path)
            assert load_checkpoint(path)["search"]["pending_results"] > 0
        else:
            interrupted.search(max_evaluations=c["kill"], checkpoint_path=path)
        interrupted.evaluator.close()

        resumed = build_campaign_search(c)
        resumed.load_state(load_checkpoint(path)["search"])
        resumed.search(max_evaluations=TOTAL_EVALUATIONS)
    full.evaluator.close(), resumed.evaluator.close()

    def rich(search):
        return [record_to_dict(r, rich_metadata=True) for r in search.history]

    assert resumed.history.label == full.history.label
    assert rich(resumed) == rich(full)
    assert evaluator_counters(resumed.evaluator) == evaluator_counters(full.evaluator)
    assert cache_entries(resumed.evaluator) == cache_entries(full.evaluator)


def test_resume_with_a_budget_the_last_batch_already_met(tmp_path):
    """A budget stop at 19 whose last gather brought the history to 20
    resumes to 20 without running more: the uninterrupted 20-evaluation
    campaign stopped at that same batch (pre-fix the resumed history had
    21 records)."""
    c = {
        "method": "AgE", "replacement": "aging", "cache": False, "crash_prob": 0.0,
        "hang_prob": 0.0, "corrupt_prob": 0.0, "fault_seed": 0, "max_retries": 1,
        "timeout": 14.0, "worker_failures": [],
    }
    full = build_campaign_search(c)
    full.search(max_evaluations=TOTAL_EVALUATIONS)
    interrupted = build_campaign_search(c)
    interrupted.search(max_evaluations=TOTAL_EVALUATIONS - 1)
    assert len(interrupted.history) == TOTAL_EVALUATIONS  # the batch overshot
    path = tmp_path / "ck.json"
    save_checkpoint(interrupted, path)
    resumed = build_campaign_search(c)
    resumed.load_state(load_checkpoint(path)["search"])
    resumed.search(max_evaluations=TOTAL_EVALUATIONS)
    rich = lambda search: [record_to_dict(r, rich_metadata=True) for r in search.history]
    assert rich(resumed) == rich(full)
    assert evaluator_counters(resumed.evaluator) == evaluator_counters(full.evaluator)


# --------------------------------------------------------------------- #
# The checkpoint journal: a faulty, cached AgEBO campaign (crashes and
# hangs under a retry policy, one simulated worker death, pending
# attempts from a run function that declares its duration)
# --------------------------------------------------------------------- #
JOURNAL_EVALUATIONS = 24


def faulty_cached_agebo():
    policy = FaultPolicy(
        on_error="retry", max_retries=2, retry_backoff=1.0, timeout=14.0,
        crash_prob=0.2, hang_prob=0.15, fault_seed=7,
    )  # fmt: skip
    evaluator = SimulatedEvaluator(
        DeclaredFakeEval(), num_workers=4, fault_policy=policy,
        worker_failures=[(15.0, 1)], cache=EvaluationCache(),
    )  # fmt: skip
    space = ArchitectureSpace(num_nodes=2)
    hp_space = default_dataparallel_space(max_ranks=2)
    return AgEBO(
        space, hp_space, evaluator, population_size=6, sample_size=3, n_initial_points=4, seed=11
    )


def table_state(search):
    """The live search's state in the shape ``load_checkpoint`` rebuilds:
    its snapshot plus the history's job ids and the whole job table."""
    state = search.state_dict()
    state["history"] = [job.job_id for job in search.history_jobs]
    state["evaluator"]["jobs"] = [job_to_dict(job) for job in search.evaluator.jobs]
    return json.loads(json.dumps(state))


def rich_history(search):
    return [record_to_dict(r, rich_metadata=True) for r in search.history]


@pytest.mark.parametrize("every", [1, 2, 3])
def test_journal_holds_the_whole_table_at_every_checkpoint(tmp_path, monkeypatch, every):
    """Differential oracle: at every checkpoint, the journal read back is
    the live search's whole table state, although each write appended only
    the newly finished jobs and a snapshot."""
    import repro.core.search as search_mod

    original = search_mod.AgingEvolutionBase.checkpoint
    checked = []

    def checkpoint(self, path):
        original(self, path)
        state = load_checkpoint(path)["search"]
        assert state == table_state(self)
        checked.append((len(self.history), bool(state["evaluator"]["unforced"])))

    monkeypatch.setattr(search_mod.AgingEvolutionBase, "checkpoint", checkpoint)
    path = tmp_path / "ck.jsonl"
    with mock.patch("repro.workflow.pool.training_processes", return_value=0):
        search = faulty_cached_agebo()
        search.search(
            max_evaluations=JOURNAL_EVALUATIONS, checkpoint_path=path, checkpoint_every=every
        )
        save_checkpoint(search, path)  # a budget stop: pending results ride along
    assert load_checkpoint(path)["search"] == table_state(search)
    lengths = [n for n, _ in checked]
    assert len(lengths) >= 3 and lengths == sorted(set(lengths))
    ev = search.evaluator
    assert ev.num_worker_failures == 1 and ev.num_retries > 0 and ev.num_timeouts > 0
    assert ev.cache.stores > 0 and any(unforced for _, unforced in checked)
    # One header line; each later write appended, never rewrote.
    assert path.read_text().count('"version"') == 1


_JOURNALS: dict[int, tuple] = {}


@given(every=st.sampled_from([1, 2, 3]), data=st.data())
@settings(max_examples=max(6, settings.default.max_examples // 5), deadline=None)
def test_journal_cut_at_any_byte_resumes_bit_identical(tmp_path_factory, every, data):
    """A campaign killed at any byte of its journal resumes from the last
    complete state line to the uninterrupted history, bit for bit.  A
    journal cut before its first state line holds no checkpoint, and one
    cut inside its header says so."""
    with mock.patch("repro.workflow.pool.training_processes", return_value=0):
        if every not in _JOURNALS:
            path = tmp_path_factory.mktemp("journal") / "ck.jsonl"
            full = faulty_cached_agebo()
            full.search(
                max_evaluations=JOURNAL_EVALUATIONS, checkpoint_path=path, checkpoint_every=every
            )
            journal = path.read_bytes()
            header_end = journal.index(b"\n")
            first_state_end = journal.index(b"\n", journal.index(b'\n{"search"') + 1)
            _JOURNALS[every] = (
                journal, header_end, first_state_end, rich_history(full),
                evaluator_counters(full.evaluator),
            )  # fmt: skip
        journal, header_end, first_state_end, expected, counters = _JOURNALS[every]
        cut = data.draw(st.integers(0, len(journal)), label="cut")
        path = tmp_path_factory.mktemp("cut") / "ck.jsonl"
        path.write_bytes(journal[:cut])
        if cut < header_end:
            with pytest.raises(ValueError, match="header"):
                load_checkpoint(path)
            return
        if cut < first_state_end:
            with pytest.raises(ValueError, match="no complete"):
                load_checkpoint(path)
            return
        resumed = faulty_cached_agebo()
        resumed.load_state(load_checkpoint(path)["search"])
        resumed.search(max_evaluations=JOURNAL_EVALUATIONS, checkpoint_path=path)
    assert rich_history(resumed) == expected
    assert evaluator_counters(resumed.evaluator) == counters
    # The resumed campaign rewrote the torn journal before appending to it.
    save_checkpoint(resumed, path)
    assert load_checkpoint(path)["search"] == table_state(resumed)


def test_raised_job_survives_two_resumes(tmp_path):
    """A job failed by a raising settlement is never delivered: it stays
    out of the history and in the job table across checkpoints."""
    policy = FaultPolicy(on_error="raise", crash_prob=0.3, fault_seed=2)
    search = build_agebo(fake_eval, policy=policy, num_workers=3)
    path = tmp_path / "ck.jsonl"
    with pytest.raises(Exception, match="injected crash"):
        search.search(max_evaluations=30, checkpoint_path=path)
    (raised,) = [job for job in search.evaluator.jobs if job.state.value == "failed"]
    assert raised not in search.history_jobs
    for _ in range(2):
        save_checkpoint(search, path)
        state = load_checkpoint(path)["search"]
        assert state == table_state(search)
        assert raised.job_id not in state["history"]
        search = build_agebo(fake_eval, policy=policy, num_workers=3)
        search.load_state(state)
    assert search.evaluator._undelivered == {raised.job_id: search.evaluator.jobs[raised.job_id]}


def test_jobs_finished_beside_a_raise_survive_the_checkpoint():
    """Jobs that finished in the gather an attempt's raise cut short are
    delivered by the next gather, after a restore too (pre-fix the
    snapshot dropped them and the restored gather reported a deadlock)."""
    def run(config):
        if config == 1:
            raise RuntimeError("boom")
        return EvaluationResult(0.5, 2.0)

    def evaluator():
        return SimulatedEvaluator(run, num_workers=2, fault_policy=FaultPolicy(on_error="raise"))

    ev = evaluator()
    ev.submit([0, 0, 1])
    with pytest.raises(RuntimeError, match="boom"):
        ev.gather()  # jobs 0 and 1 finish at 2; job 2 then starts and raises
    restored = evaluator()
    restored.load_state(restorable_state(ev))
    assert [job.job_id for job in restored.gather()] == [0, 1]
    assert [job.job_id for job in ev.gather()] == [0, 1]
    assert restored.num_in_flight == ev.num_in_flight == 0
