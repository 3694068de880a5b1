"""The campaign layer: typed config tree, builder, event bus.

Covers the PR's acceptance criteria:

- ``CampaignConfig.from_dict(cfg.to_dict()) == cfg`` for randomized
  configs (property-style, via hypothesis);
- a campaign built by :func:`build_campaign` produces a *bit-identical*
  ``SearchHistory`` to hand-wiring the raw classes with the same seeds,
  for AgE and every AgEBO variant;
- unknown method, backend, surrogate and lie-strategy names fail when
  their config is defined, not at launch;
- replaying the JSONL event log reproduces the utilization / retry
  accounting of :func:`repro.analysis.utilization_summary`;
- ``--resume`` works from a checkpoint that embeds the campaign config
  (kill-and-resume continues bit-identically), and a checkpoint without
  one is rejected with a clear error;
- a search takes its worker count from its evaluator, which refuses
  zero workers.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import utilization_summary
from repro.campaign import (
    EVENT_TYPES,
    CampaignConfig,
    CampaignStarted,
    CheckpointConfig,
    EvaluatorConfig,
    EventBus,
    FaultConfig,
    FaultInjected,
    JobGathered,
    JsonlEventLog,
    MetricsAggregator,
    PopulationUpdated,
    ProgressReporter,
    SearchConfig,
    TrainingConfig,
    build_campaign,
    load_events,
    replay_metrics,
    resume_campaign,
)
from repro.core import AgE, AgEBO
from repro.core.evaluation import ModelEvaluation
from repro.core.serialization import history_to_dict, load_checkpoint, save_checkpoint
from repro.core.variants import variant_hp_space
from repro.datasets import load_dataset
from repro.searchspace import ArchitectureSpace
from repro.workflow import FaultPolicy, SimulatedEvaluator


def tiny_config(**overrides) -> CampaignConfig:
    """A campaign small enough for the suite (1 real epoch, 300 rows)."""
    base = dict(
        dataset="covertype",
        size=300,
        num_nodes=2,
        max_evaluations=8,
        search=SearchConfig(
            method="AgEBO", population_size=4, sample_size=2, seed=3,
            n_initial_points=3,
        ),
        training=TrainingConfig(epochs=1, nominal_epochs=20),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=3),
    )
    base.update(overrides)
    return CampaignConfig(**base)


# --------------------------------------------------------------------- #
# Config tree: validation + lossless round-trip
# --------------------------------------------------------------------- #
search_configs = st.builds(
    SearchConfig,
    method=st.sampled_from(("AgE", "AgEBO", "AgEBO-8-LR", "AgEBO-8-LR-BS")),
    population_size=st.integers(2, 200),
    sample_size=st.just(2),
    seed=st.integers(0, 2**31 - 1),
    mutate_skips=st.booleans(),
    replacement=st.sampled_from(("aging", "elitist")),
    num_ranks=st.integers(1, 8),
    kappa=st.floats(0.0, 20.0, allow_nan=False),
    n_initial_points=st.integers(1, 50),
    lie_strategy=st.sampled_from(("mean", "min", "max")),
    surrogate=st.sampled_from(("forest", "knn", "random")),
)
training_configs = st.builds(
    TrainingConfig,
    epochs=st.integers(1, 50),
    nominal_epochs=st.one_of(st.none(), st.integers(1, 50)),
    warmup_epochs=st.integers(0, 10),
    plateau_patience=st.integers(1, 10),
    objective=st.sampled_from(("best", "final")),
    dtype=st.sampled_from(("float32", "float64")),
    apply_linear_scaling=st.booleans(),
    base_seed=st.integers(0, 1000),
)
fault_configs = st.builds(
    FaultConfig,
    on_error=st.sampled_from(("raise", "penalize", "retry")),
    max_retries=st.integers(0, 5),
    retry_backoff=st.floats(0.0, 10.0, allow_nan=False),
    timeout=st.one_of(st.none(), st.floats(1.0, 500.0, allow_nan=False)),
    crash_prob=st.floats(0.0, 0.3),
    hang_prob=st.floats(0.0, 0.3),
    corrupt_prob=st.floats(0.0, 0.3),
    hang_factor=st.floats(1.0, 50.0, allow_nan=False),
    fault_seed=st.integers(0, 1000),
)
def _campaign_config(evaluator, checkpoint, **fields):
    """A CampaignConfig; a wall-clock backend takes no checkpoint path."""
    if evaluator.backend != "simulated":
        checkpoint = CheckpointConfig(every=checkpoint.every)
    return CampaignConfig(evaluator=evaluator, checkpoint=checkpoint, **fields)


campaign_configs = st.builds(
    _campaign_config,
    dataset=st.sampled_from(("covertype", "airlines", "albert")),
    size=st.integers(100, 10_000),
    num_nodes=st.integers(1, 10),
    max_evaluations=st.integers(1, 500),
    wall_time_minutes=st.one_of(st.none(), st.floats(1.0, 1e4, allow_nan=False)),
    search=search_configs,
    training=training_configs,
    evaluator=st.builds(
        EvaluatorConfig,
        backend=st.sampled_from(("simulated", "threaded", "process")),
        num_workers=st.integers(1, 64),
        cache=st.sampled_from(("off", "exact")),
    ),
    faults=fault_configs,
    checkpoint=st.builds(
        CheckpointConfig,
        path=st.one_of(st.none(), st.just("camp.ckpt")),
        every=st.integers(1, 10),
    ),
)


@settings(max_examples=settings.default.max_examples // 2, deadline=None)
@given(config=campaign_configs)
def test_config_round_trip_is_lossless(config):
    data = config.to_dict()
    assert json.loads(json.dumps(data)) == data  # JSON-safe
    assert CampaignConfig.from_dict(data) == config


def test_config_round_trip_default():
    config = CampaignConfig()
    assert CampaignConfig.from_dict(config.to_dict()) == config


def test_from_dict_rejects_missing_and_wrong_version():
    data = CampaignConfig().to_dict()
    del data["config_version"]
    with pytest.raises(ValueError, match="version"):
        CampaignConfig.from_dict(data)
    data["config_version"] = 99
    with pytest.raises(ValueError, match="version 99"):
        CampaignConfig.from_dict(data)


def test_from_dict_rejects_unknown_keys_at_both_levels():
    data = CampaignConfig().to_dict()
    data["datasett"] = "covertype"
    with pytest.raises(ValueError, match="datasett"):
        CampaignConfig.from_dict(data)
    data = CampaignConfig().to_dict()
    data["search"]["poplation_size"] = 10
    with pytest.raises(ValueError, match="poplation_size"):
        CampaignConfig.from_dict(data)


@pytest.mark.parametrize(
    "make",
    [
        lambda: CampaignConfig(size=0),
        lambda: CampaignConfig(max_evaluations=None, wall_time_minutes=None),
        lambda: SearchConfig(population_size=1),
        lambda: SearchConfig(replacement="oldest"),
        # Untrainable statics: an AgE campaign would record every
        # evaluation as a penalized failure.
        lambda: SearchConfig(batch_size=0),
        lambda: SearchConfig(batch_size=-3),
        lambda: SearchConfig(learning_rate=0.0),
        lambda: SearchConfig(learning_rate=-0.01),
        lambda: SearchConfig(learning_rate=float("nan")),
        lambda: TrainingConfig(dtype="float16"),
        lambda: EvaluatorConfig(num_workers=0),
        lambda: FaultConfig(crash_prob=1.5),
        lambda: FaultConfig(on_error="ignore"),
        lambda: CheckpointConfig(every=0),
        lambda: CampaignConfig(search="AgEBO"),  # sub-config must be typed
        lambda: FaultConfig(hang_factor=0.5),
        lambda: FaultConfig(crash_prob=0.6, hang_prob=0.6),
        lambda: SearchConfig(lie_strategy="median"),
        lambda: SearchConfig(method="RandomSearch"),
        lambda: SearchConfig(surrogate="gp"),
        lambda: EvaluatorConfig(backend="slurm"),
    ],
)
def test_invalid_configs_fail_at_definition_time(make):
    with pytest.raises((ValueError, TypeError)):
        make()


def test_replace_returns_modified_copy():
    config = tiny_config()
    extended = config.replace(max_evaluations=99)
    assert extended.max_evaluations == 99
    assert config.max_evaluations == 8
    assert extended.search == config.search


# --------------------------------------------------------------------- #
# W is the evaluator's worker count; zero workers raise
# --------------------------------------------------------------------- #
def test_search_rejects_explicit_zero_workers():
    """A search has no worker count of its own to fall back from: W is its
    evaluator's, and the evaluator refuses zero workers."""
    space = ArchitectureSpace(num_nodes=2)
    hp = {"batch_size": 64, "learning_rate": 0.01, "num_ranks": 1}
    with pytest.raises(ValueError, match="num_workers"):
        SimulatedEvaluator(lambda c: None, num_workers=0)
    ev = SimulatedEvaluator(lambda c: None, num_workers=4)
    with pytest.raises(TypeError, match="num_workers"):
        AgE(space, ev, hyperparameters=hp, population_size=4, sample_size=2, num_workers=0)
    search = AgE(space, ev, hyperparameters=hp, population_size=4, sample_size=2)
    assert search.num_workers == 4


# --------------------------------------------------------------------- #
# Builder: bit-identical to hand-wiring the raw classes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("method", ["AgE", "AgEBO", "AgEBO-8-LR", "AgEBO-8-LR-BS"])
def test_build_campaign_matches_legacy_wiring(method):
    search = SearchConfig(method=method, population_size=4, sample_size=2, seed=3,
                          n_initial_points=3)
    campaign = build_campaign(tiny_config(search=search))
    history = campaign.run()

    dataset = load_dataset("covertype", size=300)
    space = ArchitectureSpace(num_nodes=2)
    evaluation = ModelEvaluation(dataset, space, epochs=1, nominal_epochs=20)
    evaluator = SimulatedEvaluator(
        evaluation, num_workers=3,
        fault_policy=FaultPolicy(on_error="penalize", max_retries=2),
    )
    if method == "AgE":
        legacy = AgE(space, evaluator, population_size=4, sample_size=2, seed=3)
        assert campaign.hp_space is None
    else:
        legacy = AgEBO(space, variant_hp_space(method), evaluator, population_size=4,
                       sample_size=2, seed=3, n_initial_points=3, label=method)
        assert campaign.hp_space is campaign.search.hp_space
        for attr in ("names", "defaults"):
            assert getattr(campaign.hp_space, attr) == getattr(legacy.hp_space, attr)
    legacy_history = legacy.search(max_evaluations=8)

    assert history.label == legacy_history.label
    assert history_to_dict(history) == history_to_dict(legacy_history)


def test_build_campaign_rejects_unknown_names():
    """The dataset is checked at build time; every other name when its
    config is defined."""
    with pytest.raises(ValueError, match="dataset"):
        build_campaign(tiny_config(dataset="imagenet"))
    with pytest.raises(ValueError, match="unknown search method"):
        SearchConfig(method="RandomSearch")
    with pytest.raises(ValueError, match="unknown search.surrogate"):
        SearchConfig(surrogate="gp")
    with pytest.raises(ValueError, match="unknown search.lie_strategy"):
        SearchConfig(lie_strategy="median")
    with pytest.raises(ValueError, match="unknown evaluator backend"):
        EvaluatorConfig(backend="slurm")


def test_campaign_wires_fault_injector_only_when_configured():
    """The evaluator injects faults through its policy, built from the
    config; the run function is the evaluation itself, never a wrapper."""
    campaign = build_campaign(tiny_config())
    assert campaign.evaluator.fault_policy == FaultConfig().policy()
    assert all(campaign.evaluator.fault_policy.fault(j, 0) is None for j in range(50))
    faults = FaultConfig(on_error="retry", crash_prob=0.2, fault_seed=4)
    campaign = build_campaign(tiny_config(faults=faults))
    assert campaign.evaluator.fault_policy == faults.policy()
    assert campaign.evaluator.fault_policy.crash_prob == 0.2
    assert campaign.evaluator.run_function is campaign.evaluation


def test_custom_surrogate_reaches_the_optimizer():
    """Each configured surrogate name is the one the AgEBO optimizer uses,
    and a name outside ``SURROGATES`` fails when the optimizer is built."""
    import numpy as np

    from repro.bo import SURROGATES, BayesianOptimizer

    for surrogate in SURROGATES:
        search = SearchConfig(method="AgEBO", population_size=4, sample_size=2, seed=3,
                              n_initial_points=2, surrogate=surrogate)
        campaign = build_campaign(tiny_config(search=search))
        opt = campaign.search.optimizer
        assert opt.surrogate == surrogate
        space = campaign.hp_space
        opt.tell([space.sample(np.random.default_rng(0)) for _ in range(3)],
                 [0.1, 0.2, 0.3])
        assert len(opt.ask(2)) == 2
    with pytest.raises(ValueError, match="unknown surrogate"):
        BayesianOptimizer(space, surrogate="gp")


# --------------------------------------------------------------------- #
# Event bus + metrics replay
# --------------------------------------------------------------------- #
def test_event_bus_filters_and_unsubscribes():
    bus = EventBus()
    seen_all, seen_pop = [], []
    handle = bus.subscribe(lambda e: seen_all.append(e))
    bus.subscribe(seen_pop.append, PopulationUpdated)
    started = CampaignStarted(method="AgEBO", dataset="covertype", num_workers=2)
    updated = PopulationUpdated(num_evaluations=1, population_size=1,
                                objective=0.5, best_objective=0.5, time=1.0)
    bus.emit(started)
    bus.emit(updated)
    assert seen_all == [started, updated]
    assert seen_pop == [updated]
    bus.unsubscribe(handle)
    bus.emit(started)
    assert seen_all == [started, updated]  # unsubscribed: no new delivery
    assert seen_pop == [updated]
    with pytest.raises(TypeError):
        bus.emit("not an event")


def test_event_round_trip_through_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [
        CampaignStarted(method="AgEBO", dataset="covertype", num_workers=4,
                        max_evaluations=10),
        JobGathered(job_id=0, time=5.0, objective=0.7, duration=4.0,
                    submit_time=0.0, start_time=1.0, end_time=5.0, worker=2,
                    failed=False, retries=0),
    ]
    with JsonlEventLog(path) as log:
        for event in events:
            log(event)
    assert load_events(path) == events


def test_jsonl_log_holds_every_event_without_flush(tmp_path):
    """The log is line-buffered: a campaign killed before flush or close
    leaves every emitted event on disk as a whole line."""
    path = tmp_path / "events.jsonl"
    log = JsonlEventLog(path)
    events = [
        FaultInjected(kind="crash", job_id=i, retries=i % 3) for i in range(40)
    ]
    for event in events:
        log(event)
    assert load_events(path) == events
    log.close()


def test_import_campaign_leaves_scipy_stats_unloaded():
    """scipy.stats would be most of the import cost, and no module a
    campaign imports needs it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    code = "import sys, repro.campaign; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def _two_event_log(path):
    events = [
        CampaignStarted(method="AgE", dataset="covertype", num_workers=2,
                        max_evaluations=4),
        CampaignStarted(method="AgEBO", dataset="airlines", num_workers=8,
                        max_evaluations=6),
    ]
    with JsonlEventLog(path) as log:
        for event in events:
            log(event)
    return events


def test_load_events_skips_torn_final_line(tmp_path):
    """A killed campaign can leave half a line with no newline at the end."""
    path = tmp_path / "events.jsonl"
    events = _two_event_log(path)
    text = path.read_text()
    path.write_text(text + text.splitlines()[1][:25])
    assert load_events(path) == events


def test_load_events_raises_on_malformed_middle_line(tmp_path):
    path = tmp_path / "events.jsonl"
    _two_event_log(path)
    first, second = path.read_text().splitlines()
    path.write_text(first[:25] + "\n" + second + "\n")
    with pytest.raises(json.JSONDecodeError):
        load_events(path)
    # A complete (newline-terminated) final line that does not parse is
    # corruption, not a torn write.
    path.write_text(first + "\n" + second[:25] + "\n")
    with pytest.raises(json.JSONDecodeError):
        load_events(path)


def test_campaign_event_stream_reproduces_utilization(tmp_path):
    """Replaying the JSONL log == utilization_summary on the evaluator."""
    path = tmp_path / "events.jsonl"
    campaign = build_campaign(tiny_config())
    log = campaign.subscribe(JsonlEventLog(path))
    live = campaign.subscribe(MetricsAggregator())
    campaign.run()
    log.close()

    replayed = replay_metrics(path)
    reference = utilization_summary(campaign.evaluator)
    for metrics in (live, replayed):
        assert metrics.num_workers == reference.num_workers
        assert metrics.elapsed_minutes == pytest.approx(reference.elapsed_minutes)
        assert metrics.busy_worker_minutes == pytest.approx(
            reference.busy_worker_minutes
        )
        assert metrics.utilization == pytest.approx(reference.utilization)
        assert metrics.num_jobs_done == reference.num_jobs_done
        assert metrics.mean_queue_delay == pytest.approx(reference.mean_queue_delay)
    assert replayed.summary() == live.summary()


def test_event_stream_reports_retries_under_faults(tmp_path):
    path = tmp_path / "events.jsonl"
    campaign = build_campaign(
        tiny_config(
            faults=FaultConfig(on_error="retry", max_retries=2,
                               timeout=120.0, crash_prob=0.3, fault_seed=5),
        )
    )
    log = campaign.subscribe(JsonlEventLog(path))
    campaign.run()
    log.close()
    metrics = replay_metrics(path)
    assert metrics.num_faults_injected > 0
    assert metrics.num_retries > 0
    assert metrics.counts["CampaignStarted"] == 1
    assert metrics.counts["CampaignFinished"] == 1
    assert metrics.counts["EpochEnd"] > 0


def test_progress_reporter_names_no_clock_on_a_threaded_run():
    """The closing line reports the evaluator's minutes, which on a
    wall-clock backend are wall-clock minutes, not simulated ones."""
    out = io.StringIO()
    threaded = EvaluatorConfig(backend="threaded", num_workers=2)
    campaign = build_campaign(tiny_config(max_evaluations=4, evaluator=threaded))
    campaign.subscribe(ProgressReporter(out=out))
    campaign.run()
    last = out.getvalue().splitlines()[-1]
    assert last.startswith("campaign finished: ") and last.endswith("min")
    assert "simulated" not in out.getvalue()


def test_metrics_aggregator_accumulates_ring_comm_bytes():
    """EpochEnd ring payloads aggregate into the simulated comm volume."""
    from repro.campaign.events import EpochEnd

    metrics = MetricsAggregator()
    metrics(EpochEnd(job_id=0, epoch=0, train_loss=1.0, val_accuracy=0.5,
                     num_ranks=4, ring_bytes_per_rank=600))
    metrics(EpochEnd(job_id=0, epoch=1, train_loss=0.9, val_accuracy=0.6,
                     num_ranks=4, ring_bytes_per_rank=600))
    metrics(EpochEnd(job_id=1, epoch=0, train_loss=1.1, val_accuracy=0.4))  # n=1, no ring
    assert metrics.ring_comm_bytes == 2 * 4 * 600
    assert metrics.summary()["ring_comm_bytes"] == 4800
    # Round-trips through the JSONL schema with the ring field defaulted.
    row = EpochEnd(job_id=2, epoch=0, train_loss=1.0, val_accuracy=0.5).to_dict()
    assert row["ring_bytes_per_rank"] == 0 and row["job_id"] == 2


# --------------------------------------------------------------------- #
# Checkpoint / resume through the campaign layer
# --------------------------------------------------------------------- #
def test_kill_and_resume_is_bit_identical(tmp_path):
    """A campaign killed at N evals and resumed matches the straight run."""
    path = tmp_path / "camp.ckpt"
    full = build_campaign(tiny_config(max_evaluations=16)).run()

    interrupted = build_campaign(
        tiny_config(
            max_evaluations=8,
            checkpoint=CheckpointConfig(path=str(path), every=1),
        )
    )
    interrupted.run()

    resumed = resume_campaign(path, max_evaluations=16)
    assert resumed.config.search == interrupted.config.search
    assert resumed.config.training == interrupted.config.training
    history = resumed.run()
    assert history_to_dict(history) == history_to_dict(full)


def test_float64_checkpoint_resumes_at_float64(tmp_path):
    """A checkpoint embeds its config, so a campaign written at the oracle
    precision resumes at it, bit-identically to the straight float64 run."""
    path = tmp_path / "camp.ckpt"
    float64 = TrainingConfig(epochs=1, nominal_epochs=20, dtype="float64")
    full = build_campaign(tiny_config(max_evaluations=16, training=float64)).run()
    build_campaign(
        tiny_config(training=float64, checkpoint=CheckpointConfig(path=str(path), every=1))
    ).run()

    resumed = resume_campaign(path, max_evaluations=16)
    assert resumed.config.training.dtype == "float64"
    assert resumed.evaluation.dtype == "float64"
    history = resumed.run()
    assert history_to_dict(history) == history_to_dict(full)


def test_resume_from_checkpoint_with_retired_training_keys(tmp_path):
    """A checkpoint whose embedded config still names the retired
    allreduce/backend and measure_wall_time keys is refused with the
    unknown-keys error: no version-3 journal was written with them."""
    path = tmp_path / "camp.ckpt"
    build_campaign(
        tiny_config(checkpoint=CheckpointConfig(path=str(path), every=1))
    ).run()
    header, rest = path.read_text().split("\n", 1)  # the journal's header holds the config
    data = json.loads(header)
    data["extra"]["campaign"]["training"].update(allreduce="fused", backend="compiled")
    data["extra"]["campaign"]["evaluator"]["measure_wall_time"] = False
    path.write_text(json.dumps(data) + "\n" + rest)

    with pytest.raises(ValueError, match=r"training: unknown keys \['allreduce', 'backend'\]"):
        resume_campaign(path, max_evaluations=16)


def test_resume_overrides_only_named_fields(tmp_path):
    path = tmp_path / "camp.ckpt"
    build_campaign(
        tiny_config(checkpoint=CheckpointConfig(path=str(path), every=1))
    ).run()
    resumed = resume_campaign(path, max_evaluations=12,
                              checkpoint=CheckpointConfig(path=None))
    assert resumed.config.max_evaluations == 12
    assert resumed.config.checkpoint.path is None
    assert resumed.config.size == 300  # restored, not re-specified


def test_resume_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        resume_campaign(tmp_path / "nope.ckpt")


def test_resume_rejects_pre_campaign_checkpoint_layout(tmp_path):
    """A checkpoint with no campaign metadata gets a clear error."""
    campaign = build_campaign(tiny_config())
    campaign.run()
    path = tmp_path / "old.ckpt"
    campaign.search.checkpoint_metadata = {}
    save_checkpoint(campaign.search, path)
    with pytest.raises(ValueError, match="campaign config"):
        resume_campaign(path)


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_wallclock_campaign_refuses_a_checkpoint_path(backend):
    """A wall-clock campaign does not replay, so it cannot resume: a
    checkpoint path is refused when the config is defined, and the raw
    search refuses one before it submits anything."""
    from repro.workflow import ProcessPoolEvaluator, ThreadedEvaluator

    with pytest.raises(ValueError, match=f"{backend} backend cannot checkpoint"):
        tiny_config(
            evaluator=EvaluatorConfig(backend=backend, num_workers=2),
            checkpoint=CheckpointConfig(path="camp.ckpt"),
        )
    evaluator = {"threaded": ThreadedEvaluator, "process": ProcessPoolEvaluator}[backend]
    with evaluator(abs, num_workers=2) as ev:
        search = AgE(ArchitectureSpace(num_nodes=2), ev, population_size=4, sample_size=2)
        with pytest.raises(NotImplementedError, match="does not support checkpointing"):
            search.search(max_evaluations=4, checkpoint_path="camp.ckpt")
    assert ev.jobs == []


def test_checkpoint_embeds_versioned_campaign_config(tmp_path):
    path = tmp_path / "camp.ckpt"
    config = tiny_config(checkpoint=CheckpointConfig(path=str(path), every=1))
    build_campaign(config).run()
    embedded = load_checkpoint(path)["extra"]["campaign"]
    assert embedded["config_version"] == 1
    assert CampaignConfig.from_dict(embedded) == config


# --------------------------------------------------------------------- #
# Event-schema lint (tools/check_events.py)
# --------------------------------------------------------------------- #
def _event_lint():
    import importlib.util
    from pathlib import Path

    tools = Path(__file__).resolve().parent.parent / "tools" / "check_events.py"
    spec = importlib.util.spec_from_file_location("check_events", tools)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_event_schema_lint_passes(capsys):
    assert _event_lint().main([]) == 0
    out = capsys.readouterr().out
    assert f"{len(EVENT_TYPES)} catalogued event types" in out


def test_event_schema_lint_rejects_worker_side_emission(tmp_path, capsys):
    """Worker-side code holds no bus: an emit under dataparallel/ fails."""
    trainer = tmp_path / "repro" / "dataparallel" / "trainer.py"
    trainer.parent.mkdir(parents=True)
    trainer.write_text(
        "def fit(bus, event):\n"
        "    bus.emit(event)\n"
    )
    evaluator = tmp_path / "repro" / "workflow" / "evaluator.py"
    evaluator.parent.mkdir(parents=True)
    evaluator.write_text("def settle(bus, event):\n    bus.emit(event)\n")
    assert _event_lint().main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 problem(s)" in out
    assert "dataparallel" in out and "trainer.py:2" in out


def test_event_schema_lint_rejects_uncatalogued_hook_event(tmp_path, capsys):
    """An event built in a run-function hook and returned for the evaluator
    to emit is checked like an emitted one: an uncatalogued subclass of a
    catalogued event fails, its catalogued parent passes."""
    hook = tmp_path / "repro" / "core" / "evaluation.py"
    hook.parent.mkdir(parents=True)
    hook.write_text(
        "from repro.campaign.events import EpochEnd\n"
        "\n"
        "class ShardEnd(EpochEnd):\n"
        "    pass\n"
        "\n"
        "def epoch_events(job_id, config, result):\n"
        "    return [EpochEnd(job_id, 0, 1.0, 0.5, 1, 0), ShardEnd(job_id, 0, 1.0, 0.5, 1, 0)]\n"
    )
    assert _event_lint().main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 problem(s)" in out
    assert "evaluation.py:7: constructs ShardEnd(...)" in out
