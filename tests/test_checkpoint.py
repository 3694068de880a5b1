"""Checkpoint/resume: schema round-trips and bit-identical continuation.

The headline guarantee: a campaign killed at evaluation N and resumed
from its checkpoint produces a final history *identical* to the
uninterrupted run — same configs, same objectives, same timestamps.  The
checkpoint journals only the finished jobs and a marker per checkpoint;
a resume runs the seeded campaign again up to the marker (search rng, BO
tell-history, evaluator clock and queues all follow), serving each
journaled clean training from its job line.  Injected faults are drawn
from (fault_seed, job_id, retries) and replay with the rest.
"""

from __future__ import annotations

import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from conftest import ScriptedSpace, beside_a_raise_campaign, journal_cut_after, resumed
from hypothesis import given, settings
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
    InjectedCrash,
    SimulatedEvaluator,
)
from repro.workflow.jobs import job_from_dict, job_to_dict


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
    search.checkpoint_metadata = {"note": "hello"}
    save_checkpoint(search, path)
    data = load_checkpoint(path)
    assert data["version"] == CHECKPOINT_VERSION
    assert data["algorithm"] == "AgEBO"
    assert data["extra"] == {"note": "hello"}
    # The file is JSONL: a header line, then job lines and a marker.
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0] == {
        "version": CHECKPOINT_VERSION, "algorithm": "AgEBO", "extra": {"note": "hello"}
    }
    assert lines[1:-1] == data["jobs"]
    assert [row["job_id"] for row in data["jobs"]] == [j.job_id for j in search.history_jobs]
    assert lines[-1] == {"checkpoint": search._iterations, "pending": len(search._pending_results)}
    resumed = build_agebo(fake_eval)
    resumed.resume(data)
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


def test_version_3_journal_gets_a_clear_error(tmp_path):
    """A version-3 journal (whose state lines carry a full snapshot) is
    refused, although its job lines and state lines still parse."""
    path = tmp_path / "v3.ckpt"
    path.write_text(
        json.dumps({"version": 3, "algorithm": "AgE", "extra": {}}) + "\n"
        + json.dumps({"search": {"iterations": 1, "pending_results": 0}}) + "\n"
    )  # fmt: skip
    with pytest.raises(ValueError, match="version 3.*re-run the campaign"):
        load_checkpoint(path)
    with pytest.raises(SystemExit, match="version 3"):
        main(["search", "--resume", str(path), "--max-evaluations", "4"], out=io.StringIO())


def test_checkpoint_stores_each_evaluation_once(tmp_path):
    """No history records, cache entries, BO observations or live jobs:
    the journal appends each finished job once, however many checkpoints,
    and each checkpoint adds only a marker of two counts."""
    search = build_agebo(fake_eval)
    search.evaluator.cache = EvaluationCache()
    path = tmp_path / "ck.json"
    search.search(max_evaluations=12, checkpoint_path=path)
    save_checkpoint(search, path)
    data = load_checkpoint(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    job_lines = [row for row in rows if "checkpoint" not in row]
    assert job_lines == data["jobs"]
    assert [row["job_id"] for row in job_lines] == [job.job_id for job in search.history_jobs]
    assert all(row["state"] in ("done", "failed") for row in job_lines)
    markers = [row for row in rows if "checkpoint" in row]
    assert len(markers) > 1 and all(set(row) == {"checkpoint", "pending"} for row in markers)
    assert data["checkpoint"] == search._iterations
    assert data["pending"] == len(search._pending_results) > 0


def test_checkpoint_missing_search_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
    with pytest.raises(ValueError, match="no complete"):
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
    resumed.resume(load_checkpoint(path))
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
    resumed.resume(load_checkpoint(path))
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
    resumed.resume(load_checkpoint(path))
    history = resumed.search(max_evaluations=24)
    assert_identical_history(full, history)


def test_eager_shaped_checkpoint_resumes_lazily_bit_identical(tmp_path):
    """A journal written by a run function that declares no duration
    (every attempt settled as it starts) resumes under one that declares
    it, to the uninterrupted history: both settle on one timeline, so the
    replay matches every journaled job."""
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
    resumed = build_agebo(DeclaredFakeEval(), policy=policy, cache=EvaluationCache())
    resumed.resume(load_checkpoint(path))
    assert any(job.result is None for job in resumed.evaluator.jobs)  # pending, untrained
    assert_identical_history(full.history, resumed.search(max_evaluations=32))


def duplicate_of_a_pending_campaign(run, script=(0, 1, 0, 2, 3, 4, 5)):
    """Cached AgE on 2 workers over the scripted architectures: config 1
    ends first, and its replacement, a duplicate of config 0, starts
    while config 0 still pends."""
    ev = SimulatedEvaluator(run, num_workers=2, cache=EvaluationCache())
    return AgE(ScriptedSpace(script), ev, population_size=10, sample_size=2)


def test_resumed_duplicate_forces_the_checkpointed_pending_attempt(tmp_path):
    """A duplicate submitted before the checkpoint while its original
    still pends untrained misses the cache and trains after the resume,
    as it does without the interruption: a result is memoized only when
    its attempt ends."""

    def run(config):
        arch = int(config.arch[0])
        return EvaluationResult(0.5 + arch / 10, {0: 9.0, 1: 2.0}.get(arch, 4.0))

    run.duration = lambda config: run(config).duration

    def schedule(search):
        search.search(max_evaluations=4)
        return [(j.job_id, j.cache_hit, j.start_time, j.end_time) for j in search.evaluator.jobs]

    path = tmp_path / "ck.jsonl"
    duplicate_of_a_pending_campaign(run).search(max_evaluations=4, checkpoint_path=path)
    journal = journal_cut_after(path, 1)  # job 0 and its duplicate, job 2, pend
    assert [row["job_id"] for row in journal["jobs"]] == [1]
    straight = schedule(duplicate_of_a_pending_campaign(run))
    search = duplicate_of_a_pending_campaign(run)
    search.resume(journal)
    assert [job.result for job in search.evaluator.jobs[::2]] == [None, None]
    assert schedule(search) == straight
    assert straight[2][:2] == (2, False)  # the duplicate missed


def test_forced_result_epochs_survive_the_checkpoint(tiny_covertype, tmp_path):
    """A pending attempt and its duplicate, started while the original
    still pends, emit once resumed the ``EpochEnd`` events of the
    uninterrupted run: both train after the resume, neither is a hit."""
    from repro.campaign import CheckpointWritten, EpochEnd, EventBus
    from repro.core import ModelConfig, ModelEvaluation

    space = ArchitectureSpace(num_nodes=2)
    run = ModelEvaluation(tiny_covertype, space, epochs=2, nominal_epochs=20, warmup_epochs=0)
    rng = np.random.default_rng(5)
    hp = {"batch_size": 32, "learning_rate": 0.01, "num_ranks": 2}
    short, long = sorted((ModelConfig(space.random_sample(rng), hp) for _ in range(2)),
                         key=run.duration)  # fmt: skip
    assert run.duration(short) < run.duration(long)
    archs = {0: long.arch, 1: short.arch}

    class Scripted:
        def duration(self, config):
            return run.duration(ModelConfig(archs[int(config.arch[0])], hp))

        def __call__(self, config):
            return run(ModelConfig(archs[int(config.arch[0])], hp))

        def epoch_events(self, job_id, config, result):
            return run.epoch_events(job_id, ModelConfig(archs[int(config.arch[0])], hp), result)

    def campaign():
        search = duplicate_of_a_pending_campaign(Scripted(), script=[0, 1] * 4)
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        search.event_bus = search.evaluator.event_bus = bus
        return search, events

    path = tmp_path / "ck.jsonl"
    straight, events = campaign()
    straight.search(max_evaluations=3, checkpoint_path=path)
    first = next(i for i, e in enumerate(events) if isinstance(e, CheckpointWritten))
    expected = [(e.job_id, e.epoch) for e in events[first:] if isinstance(e, EpochEnd)]
    assert expected[:4] == [(0, 0), (0, 1), (2, 0), (2, 1)]

    search, events = campaign()
    search.resume(journal_cut_after(path, 1))
    assert events == []  # the replay emits nothing
    search.search(max_evaluations=3)
    assert [(e.job_id, e.epoch) for e in events if isinstance(e, EpochEnd)] == expected


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
    byte, and its jobs emit the uninterrupted run's ``EpochEnd`` events."""
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
    bus = EventBus()
    resumed_epochs = epochs_by_job(bus)
    campaign = resume_campaign(path, bus, max_evaluations=20)
    assert any(job.result is None for job in campaign.evaluator.jobs)  # pending, untrained
    history = campaign.run()
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
    resumed.resume(load_checkpoint(path))
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
# Resume gate: any kill point, replacement rule, cache mode, fault policy
# and run function (one that declares its duration, trained inline or on a
# pool of forked workers, or one that does not) continues to the
# uninterrupted campaign
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
        ev.num_timeouts, None if cache is None else (cache.hits, cache.misses, cache.stores),
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
            assert load_checkpoint(path)["pending"] > 0
        else:
            interrupted.search(max_evaluations=c["kill"], checkpoint_path=path)
        interrupted.evaluator.close()

        resumed = build_campaign_search(c)
        resumed.resume(load_checkpoint(path))
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
        "timeout": 14.0,
    }
    full = build_campaign_search(c)
    full.search(max_evaluations=TOTAL_EVALUATIONS)
    interrupted = build_campaign_search(c)
    interrupted.search(max_evaluations=TOTAL_EVALUATIONS - 1)
    assert len(interrupted.history) == TOTAL_EVALUATIONS  # the batch overshot
    path = tmp_path / "ck.json"
    save_checkpoint(interrupted, path)
    resumed = build_campaign_search(c)
    resumed.resume(load_checkpoint(path))
    resumed.search(max_evaluations=TOTAL_EVALUATIONS)
    rich = lambda search: [record_to_dict(r, rich_metadata=True) for r in search.history]
    assert rich(resumed) == rich(full)
    assert evaluator_counters(resumed.evaluator) == evaluator_counters(full.evaluator)


# --------------------------------------------------------------------- #
# The checkpoint journal: a faulty, cached AgEBO campaign (crashes and
# hangs under a retry policy, pending attempts from a run function that
# declares its duration)
# --------------------------------------------------------------------- #
JOURNAL_EVALUATIONS = 24


def faulty_cached_agebo():
    policy = FaultPolicy(
        on_error="retry", max_retries=2, retry_backoff=1.0, timeout=14.0,
        crash_prob=0.2, hang_prob=0.15, fault_seed=7,
    )  # fmt: skip
    evaluator = SimulatedEvaluator(
        DeclaredFakeEval(), num_workers=4, fault_policy=policy, cache=EvaluationCache(),
    )  # fmt: skip
    space = ArchitectureSpace(num_nodes=2)
    hp_space = default_dataparallel_space(max_ranks=2)
    return AgEBO(
        space, hp_space, evaluator, population_size=6, sample_size=3, n_initial_points=4, seed=11
    )


def journal_state(search):
    """What a checkpoint of the live search journals: its history's jobs
    and the marker's two counts."""
    return {
        "jobs": json.loads(json.dumps([job_to_dict(job) for job in search.history_jobs])),
        "checkpoint": search._iterations,
        "pending": len(search._pending_results),
    }


def read_journal(path):
    data = load_checkpoint(path)
    return {key: data[key] for key in ("jobs", "checkpoint", "pending")}


def rich_history(search):
    return [record_to_dict(r, rich_metadata=True) for r in search.history]


def resumed_outcome(search):
    """What a resume must reproduce: the rich history, the evaluator and
    cache counters and the iteration count."""
    return rich_history(search), evaluator_counters(search.evaluator), search._iterations


@pytest.mark.parametrize("every", [1, 2, 3])
def test_journal_holds_the_whole_table_at_every_checkpoint(tmp_path, monkeypatch, every):
    """Differential oracle: at every checkpoint, the journal read back
    holds the live search's history jobs and iteration counts, although
    each write appended only the newly finished jobs and a marker."""
    import repro.core.search as search_mod

    original = search_mod.AgingEvolutionBase.checkpoint
    checked = []

    def checkpoint(self, path):
        original(self, path)
        assert read_journal(path) == journal_state(self)
        checked.append(len(self.history))

    monkeypatch.setattr(search_mod.AgingEvolutionBase, "checkpoint", checkpoint)
    path = tmp_path / "ck.jsonl"
    with mock.patch("repro.workflow.pool.training_processes", return_value=0):
        search = faulty_cached_agebo()
        search.search(
            max_evaluations=JOURNAL_EVALUATIONS, checkpoint_path=path, checkpoint_every=every
        )
        save_checkpoint(search, path)  # a budget stop: pending results ride along
    assert read_journal(path) == journal_state(search)
    assert len(checked) >= 3 and checked == sorted(set(checked))
    ev = search.evaluator
    assert ev.num_retries > 0 and ev.num_timeouts > 0
    assert ev.cache.stores > 0
    # One header line; each later write appended, never rewrote.
    assert path.read_text().count('"version"') == 1


_JOURNALS: dict[int, tuple] = {}


def faulty_journal(every, tmp_path_factory):
    """The journal of the uninterrupted ``faulty_cached_agebo`` campaign
    checkpointed every ``every`` iterations, and that campaign's outcome."""
    if every not in _JOURNALS:
        path = tmp_path_factory.mktemp("journal") / "ck.jsonl"
        full = faulty_cached_agebo()
        full.search(
            max_evaluations=JOURNAL_EVALUATIONS, checkpoint_path=path, checkpoint_every=every
        )
        _JOURNALS[every] = (path.read_bytes(), resumed_outcome(full))
    return _JOURNALS[every]


@given(every=st.sampled_from([1, 2, 3]), data=st.data())
@settings(max_examples=max(6, settings.default.max_examples // 5), deadline=None)
def test_journal_cut_at_any_byte_resumes_bit_identical(tmp_path_factory, every, data):
    """A campaign killed at any byte of its journal resumes from the last
    complete marker to the uninterrupted history, bit for bit.  A journal
    cut before its first marker holds no checkpoint, and one cut inside
    its header says so."""
    with mock.patch("repro.workflow.pool.training_processes", return_value=0):
        journal, expected = faulty_journal(every, tmp_path_factory)
        header_end = journal.index(b"\n")
        first_marker_end = journal.index(b"\n", journal.index(b'\n{"checkpoint"') + 1)
        cut = data.draw(st.integers(0, len(journal)), label="cut")
        path = tmp_path_factory.mktemp("cut") / "ck.jsonl"
        path.write_bytes(journal[:cut])
        if cut < header_end:
            with pytest.raises(ValueError, match="header"):
                load_checkpoint(path)
            return
        if cut < first_marker_end:
            with pytest.raises(ValueError, match="no complete"):
                load_checkpoint(path)
            return
        resumed = faulty_cached_agebo()
        resumed.resume(load_checkpoint(path))
        resumed.search(max_evaluations=JOURNAL_EVALUATIONS, checkpoint_path=path)
    assert resumed_outcome(resumed) == expected
    # The resumed campaign rewrote the torn journal before appending to it.
    save_checkpoint(resumed, path)
    assert read_journal(path) == journal_state(resumed)


@pytest.mark.parametrize("every", [1, 2, 3])
def test_resume_at_every_checkpoint_matches_the_uninterrupted_campaign(tmp_path_factory, every):
    """Cut the journal at each marker, and 7 bytes past it (a torn next
    write): every resume continues to the uninterrupted campaign's rich
    history, evaluator and cache counters and iteration count."""
    with mock.patch("repro.workflow.pool.training_processes", return_value=0):
        journal, expected = faulty_journal(every, tmp_path_factory)
        ends = [
            journal.index(b"\n", start + 1) + 1
            for start in range(len(journal))
            if journal.startswith(b'\n{"checkpoint"', start)
        ]
        assert len(ends) >= 24 // (3 * every)
        path = tmp_path_factory.mktemp("cut") / "ck.jsonl"
        for end in ends:
            for cut in (end, end + 7):
                path.write_bytes(journal[:cut])
                resumed = faulty_cached_agebo()
                resumed.resume(load_checkpoint(path))
                resumed.search(max_evaluations=JOURNAL_EVALUATIONS)
                assert resumed_outcome(resumed) == expected, cut


def raising_campaign(fault_seed=2):
    """A campaign whose injected crashes raise (``on_error="raise"``), each
    from the gather at its attempt's end.  Under fault seed 2 job 0, and
    under seed 0 job 2, raises in the first gather, before any replacement
    is submitted; under seed 1 job 3, a replacement the first iteration
    submitted, raises at minute 5."""
    policy = FaultPolicy(on_error="raise", crash_prob=0.3, fault_seed=fault_seed)
    return build_agebo(fake_eval, policy=policy, num_workers=3)


def test_raised_job_survives_two_resumes(tmp_path):
    """A job failed by a raising settlement is never delivered.  A journal
    saved after the raise resumes to the search before it, and continuing
    raises that attempt's exception again, resume after resume."""
    search = raising_campaign()
    path = tmp_path / "ck.jsonl"
    with pytest.raises(Exception, match="injected crash") as first:
        search.search(max_evaluations=30, checkpoint_path=path)
    (raised,) = [job.job_id for job in search.evaluator.jobs if job.state.value == "failed"]
    history = rich_history(search)
    for _ in range(2):
        search = resumed(search, raising_campaign)
        assert raised not in [job.job_id for job in search.history_jobs]
        assert rich_history(search) == history
        with pytest.raises(Exception) as again:
            search.search(max_evaluations=30, checkpoint_path=path)
        assert (type(again.value), str(again.value)) == (type(first.value), str(first.value))
        assert [job.job_id for job in search.evaluator.jobs if job.state.value == "failed"] == [
            raised
        ]


def test_search_after_a_raise_in_the_first_gather_submits_nothing():
    """A raise in the first gather, before any replacement is submitted,
    ends the campaign: the next ``search`` refuses at once, caused by that
    raise, and submits nothing (pre-fix a raise of the initial submission
    let it submit W fresh initial configurations, leaving 4 jobs in flight
    on 3 workers)."""
    search = raising_campaign(fault_seed=0)
    with pytest.raises(InjectedCrash, match="job 2") as first:
        search.search(max_evaluations=40)
    assert len(search.evaluator.jobs) == search.num_workers
    with pytest.raises(RuntimeError, match="on_error") as again:
        search.search(max_evaluations=40)
    assert again.value.__cause__ is first.value
    assert len(search.evaluator.jobs) == search.num_workers


def test_search_continued_after_a_caught_raise_raises_at_once():
    """A search a caller continues past a caught raise refuses at once and
    adds no evaluation (pre-fix each caught raise cost a worker for good,
    and the campaign drained short of its budget)."""
    search = raising_campaign(fault_seed=1)
    with pytest.raises(InjectedCrash, match="job 3") as first:
        search.search(max_evaluations=40)
    evaluations, jobs = len(search.history), len(search.evaluator.jobs)
    assert evaluations > 0
    with pytest.raises(RuntimeError, match="on_error") as again:
        search.search(max_evaluations=40)
    assert again.value.__cause__ is first.value
    assert (len(search.history), len(search.evaluator.jobs)) == (evaluations, jobs)


@pytest.mark.parametrize(
    "build",
    [lambda: raising_campaign(fault_seed=1), beside_a_raise_campaign],
    ids=["raise-in-a-submit", "raise-in-a-gather"],
)
def test_journal_saved_after_a_raise_raises_it_again(tmp_path, build):
    """A journal saved by the raw API after a raise holds the history up to
    it; resuming it replays without raising, and the next ``search``
    raises the original exception's type and message, whether the raising
    attempt was started by an iteration's submit (pre-fix the replay
    raised it from that submit) or ended beside a finished job in a gather."""
    search = build()
    with pytest.raises(Exception) as first:
        search.search(max_evaluations=30)
    path = tmp_path / "ck.jsonl"
    save_checkpoint(search, path)
    copy = build()
    reached = "replay"
    with pytest.raises(Exception) as again:
        copy.resume(load_checkpoint(path))
        reached = "search"
        copy.search(max_evaluations=30)
    assert (type(again.value), str(again.value)) == (type(first.value), str(first.value))
    assert reached == "search"
    assert rich_history(copy) == rich_history(search)


# --------------------------------------------------------------------- #
# Resume by replay: served trainings, refusal, older journals, counting
# --------------------------------------------------------------------- #
def test_resume_refuses_a_journal_of_another_seed(tmp_path):
    """A journal replays only into the campaign that wrote it: another
    seed gives other jobs, and the first one that differs is named."""
    path = tmp_path / "ck.jsonl"
    build_agebo(fake_eval, seed=7).search(max_evaluations=12, checkpoint_path=path)
    journal = load_checkpoint(path)
    first = journal["jobs"][0]["job_id"]
    with pytest.raises(ValueError, match=f"job {first} \\(evaluation 0\\) does not replay"):
        build_agebo(fake_eval, seed=8).resume(journal)


@pytest.mark.parametrize("declared", [False, True], ids=["eager", "declared"])
def test_fault_free_replay_trains_no_journaled_job(tmp_path, declared):
    """Without faults every journaled job trained cleanly, so the replay
    serves each from its line and calls the run function only for the
    attempts still pending at the checkpoint; the served outcomes are gone
    once ``resume`` returns."""
    from repro.workflow import canonical_config_key

    calls = []

    class Counted(DeclaredFakeEval):
        def __call__(self, config):
            calls.append(canonical_config_key(config))
            return fake_eval(config)

    run = Counted() if declared else (lambda config: Counted()(config))
    path = tmp_path / "ck.jsonl"
    with mock.patch("repro.workflow.pool.training_processes", return_value=0):
        build_agebo(fake_eval).search(max_evaluations=16, checkpoint_path=path)
        journal = load_checkpoint(path)
        search = build_agebo(run)
        search.resume(journal)
    journaled = {canonical_config_key(job_from_dict(row).config) for row in journal["jobs"]}
    assert len(journal["jobs"]) > 8 and not journaled & set(calls)
    assert len(calls) <= search.evaluator.num_workers
    assert search.evaluator._pool.served == {}
    assert_identical_history(
        search.search(max_evaluations=32), build_agebo(fake_eval).search(max_evaluations=32)
    )


def test_continued_search_counts_and_checkpoints_every_iteration(monkeypatch):
    """A search continued after a budget stop counts the iteration that
    submits its pending batch's replacements and checkpoints on the same
    iterations as an uninterrupted run (the replay relies on the count)."""
    import repro.core.search as search_mod

    written = []
    monkeypatch.setattr(
        search_mod.AgingEvolutionBase, "checkpoint",
        lambda self, path: written.append((self._iterations, len(self.history))),
    )  # fmt: skip

    def run(*budgets):
        written.clear()
        search = build_agebo(fake_eval)
        for budget in budgets:
            search.search(max_evaluations=budget, checkpoint_path="unused", checkpoint_every=2)
        return search._iterations, list(written)

    straight = run(32)
    assert run(16, 32) == straight
    assert run(5, 11, 16, 32) == straight
