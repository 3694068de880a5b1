"""Tests for the campaign benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from measure import history_fingerprint, run_campaign  # noqa: E402
from spans import METRIC_NAME, SPAN_NAMES, SpanRecorder, Tracer, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _spans(*rows):
    """Recorder from (name, start, end, parent) rows, parents by index."""
    rec = SpanRecorder()
    for name, start, end, parent in rows:
        rec.names.append(name)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


def test_self_time_subtracts_direct_children_only():
    rec = _spans(
        ("run", 0.0, 10.0, -1),
        ("fit", 1.0, 4.0, 0),
        ("step", 2.0, 3.0, 1),  # grandchild of run: not subtracted from run
        ("fit", 5.0, 6.0, 0),
        ("step", 5.25, 5.5, 3),
    )
    st = self_times(rec)
    assert st["run"] == (1, pytest.approx(10.0 - 3.0 - 1.0))
    assert st["fit"] == (2, pytest.approx((3.0 - 1.0) + (1.0 - 0.25)))
    assert st["step"] == (2, pytest.approx(1.25))
    # Self times partition the root interval.
    assert sum(s for _, s in st.values()) == pytest.approx(10.0)


def test_recorder_nests_by_open_stack():
    rec = SpanRecorder()
    outer = rec.open("outer", 0.0)
    inner = rec.open("inner", 1.0)
    rec.close(inner, 2.0)
    rec.close(outer, 3.0)
    assert rec.parents == [-1, outer]
    assert self_times(rec) == {"outer": (1, 2.0), "inner": (1, 1.0)}
    with pytest.raises(RuntimeError):
        a = rec.open("a")
        rec.open("b")
        rec.close(a)


@pytest.mark.parametrize("n", [11, 20, 99, 100, 177])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    pct, value = tail_percentile(values)
    assert sum(v > value for v in values) == 10
    # The next larger sample would leave only 9 beyond it.
    assert sum(v > value + 1 for v in values) == 9
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_every_span_is_reported():
    assert set(run._CALL_STEMS) | {"campaign.build", "campaign.run", "datasets.load"} == set(
        SPAN_NAMES
    )


def test_metric_names_use_the_allowed_charset():
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(WORKLOADS):
        assert METRIC_NAME.fullmatch(name), name
    for bad in ["", "_lead", "has space", "slash/name", "x" * 65, "ümlaut"]:
        assert not METRIC_NAME.fullmatch(bad), bad


def test_benchmark_json_matches_the_metrics_the_code_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _campaign_result(probe_s, wall_s=10.0, evals=60):
    run_ = {
        "traced": False, "evals": evals, "wall_s": wall_s, "cpu_s": wall_s / 2,
        "decide_s": [0.001 * (i + 1) for i in range(20)], "utilization": 0.9,
        "best_objective": 0.8,
    }  # fmt: skip
    return {"runs": [run_], "host_probe_s": [probe_s] * 14, "maxrss_kb": 2048}


def test_timings_are_reported_at_reference_host_speed():
    slow = [_campaign_result(2 * run.REFERENCE_PROBE_S)] * 2  # host at half speed
    raw = run.end_to_end(slow, [4.0, 4.0, 4.0], normalize=False)
    norm = run.end_to_end(slow, [4.0, 4.0, 4.0])
    assert raw["evals_per_s"] == pytest.approx(6.0)
    assert norm["evals_per_s"] == pytest.approx(12.0)
    for key in ("setup_s", "decide_p50_ms", "decide_tail_ms", "cpu_s_per_eval"):
        assert norm[key] == pytest.approx(raw[key] / 2), key
    for key in ("worker_utilization", "best_objective", "peak_rss_mb"):
        assert norm[key] == raw[key], key
    # Tail: 20 samples per campaign leave 10 beyond the 10th smallest.
    assert raw["decide_tail_ms"] == pytest.approx(10.0)


def _tiny_config(seed, workdir):
    from repro.campaign import (
        CampaignConfig,
        CheckpointConfig,
        EvaluatorConfig,
        SearchConfig,
        TrainingConfig,
    )

    return CampaignConfig(
        dataset="covertype",
        size=300,
        num_nodes=2,
        max_evaluations=14,
        search=SearchConfig(
            method="AgEBO", seed=seed, population_size=4, sample_size=2, n_initial_points=4
        ),
        training=TrainingConfig(epochs=1, nominal_epochs=20, warmup_epochs=0),
        evaluator=EvaluatorConfig(backend="simulated", num_workers=3, cache="exact"),
        checkpoint=CheckpointConfig(path=f"{workdir}/campaign.ckpt", every=1),
    )


def test_wrapping_every_timed_call_keeps_a_seeded_campaign_bit_identical(tmp_path):
    from repro.bo.optimizer import BayesianOptimizer
    from repro.nn.optimizers import Adam

    tiny = Workload("tiny", "test", _tiny_config, campaign_seconds=1.0, durable=True)
    original_ask = BayesianOptimizer.ask
    m, _, _, plain = run_campaign(tiny, 3, tmp_path / "plain")
    tracer = Tracer()
    mt, _, _, traced = run_campaign(tiny, 3, tmp_path / "traced", tracer)

    assert m["evals"] == mt["evals"] == 14
    assert history_fingerprint(traced) == history_fingerprint(plain)
    st = self_times(tracer.recorder)
    # Every wrapped layer ran at least once.
    assert set(st) == set(SPAN_NAMES)
    assert tracer.recorder.counters["bo.ask.points"] == st["bo.ask"][0]
    assert tracer.recorder.counters["core.checkpoint.bytes"] > 0
    # Uninstall restores the originals, inherited methods included.
    assert BayesianOptimizer.ask is original_ask
    assert "apply_gradients" not in vars(Adam)


def test_workload_configs_build():
    for workload in WORKLOADS.values():
        config = workload.make_config(7, "somewhere" if workload.durable else None)
        assert config.search.seed == 7
        assert config.max_evaluations >= 60
