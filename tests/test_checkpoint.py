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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def build_agebo(run_function, seed=7, num_workers=8, policy=None):
    space = ArchitectureSpace(num_nodes=3)
    hp_space = default_dataparallel_space(max_ranks=4)
    ev = SimulatedEvaluator(run_function, num_workers=num_workers, fault_policy=policy)
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
    assert "search" in data
    # The file is plain JSON — re-serializable as-is.
    assert json.loads(path.read_text())["version"] == CHECKPOINT_VERSION


def test_checkpoint_version_mismatch_rejected(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=4)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path)
    data = json.loads(path.read_text())
    data["version"] = CHECKPOINT_VERSION + 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_version_1_checkpoint_gets_a_clear_error(tmp_path):
    path = tmp_path / "v1.ckpt"
    path.write_text(json.dumps({"version": 1, "algorithm": "AgEBO", "search": {}}))
    with pytest.raises(ValueError, match="version 1.*re-run the campaign"):
        load_checkpoint(path)
    with pytest.raises(SystemExit, match="version 1"):
        main(["search", "--resume", str(path), "--max-evaluations", "4"], out=io.StringIO())


def test_checkpoint_stores_each_evaluation_once(tmp_path):
    """No history records, cache entries or BO observations: the
    evaluator's job table is the one copy of every evaluation."""
    search = build_agebo(fake_eval)
    search.evaluator.cache = EvaluationCache()
    search.search(max_evaluations=12)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path)
    state = load_checkpoint(path)["search"]
    assert state["history"] == search._job_ids
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
# Resume gate: any kill point, replacement rule, cache mode, fault policy
# and worker-failure schedule continues to the uninterrupted campaign
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
        fake_eval, num_workers=4, fault_policy=policy,
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
        ev.now, ev.utilization(), ev.num_failures, ev.num_faults_injected, ev.num_retries,
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

    resumed = build_campaign_search(c)
    resumed.load_state(load_checkpoint(path)["search"])
    resumed.search(max_evaluations=TOTAL_EVALUATIONS)

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
