"""Failure-injection tests: evaluator error policies and divergence guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AgE, ModelEvaluation
from repro.dataparallel import DataParallelTrainer
from repro.nn import GraphNetwork
from repro.nn.graph_network import ArchitectureSpec, NodeOp
from repro.searchspace import ArchitectureSpace
from repro.workflow import EvaluationResult, FaultPolicy, SimulatedEvaluator

from conftest import make_blobs


# --------------------------------------------------------------------- #
# Evaluator error policies
# --------------------------------------------------------------------- #
def flaky_run(fail_every: int):
    calls = {"n": 0}

    def run(config):
        calls["n"] += 1
        if calls["n"] % fail_every == 0:
            raise RuntimeError(f"worker crash on call {calls['n']}")
        return EvaluationResult(objective=0.5, duration=1.0)

    return run


def test_evaluator_raise_policy_propagates():
    ev = SimulatedEvaluator(
        flaky_run(1), num_workers=1, fault_policy=FaultPolicy(on_error="raise")
    )
    ev.submit([0])
    with pytest.raises(RuntimeError, match="worker crash"):
        ev.gather()


def test_evaluator_penalize_policy_records_failure():
    ev = SimulatedEvaluator(
        flaky_run(2),
        num_workers=2,
        fault_policy=FaultPolicy(on_error="penalize", failure_objective=-1.0),
    )
    ev.submit([0, 1, 2, 3])
    done = []
    while True:
        batch = ev.gather()
        if not batch:
            break
        done.extend(batch)
    assert len(done) == 4
    assert ev.num_failures == 2
    failed = [j for j in done if j.result.metadata.get("failed")]
    assert len(failed) == 2
    assert all(j.result.objective == -1.0 for j in failed)
    assert all("worker crash" in j.result.metadata["error"] for j in failed)


def test_evaluator_unknown_policy_rejected():
    with pytest.raises(ValueError):
        SimulatedEvaluator(
            flaky_run(1), num_workers=1, fault_policy=FaultPolicy(on_error="explode")
        )


def test_search_survives_flaky_evaluations():
    """A full AgE search completes despite periodic worker crashes."""
    space = ArchitectureSpace(num_nodes=3)

    calls = {"n": 0}

    def run(config):
        calls["n"] += 1
        if calls["n"] % 5 == 0:
            raise RuntimeError("boom")
        score = float(np.mean(config.arch[: space.num_nodes])) / space.num_ops
        return EvaluationResult(objective=score, duration=1.0)

    ev = SimulatedEvaluator(
        run, num_workers=3, fault_policy=FaultPolicy(on_error="penalize")
    )
    search = AgE(space, ev, population_size=5, sample_size=2, seed=0)
    history = search.search(max_evaluations=30)
    assert len(history) >= 30
    assert ev.num_failures >= 5
    # Penalized failures must not become the best record.
    assert history.best().objective > 0.0


# --------------------------------------------------------------------- #
# Divergence guards
# --------------------------------------------------------------------- #
def build_net(seed=0):
    spec = ArchitectureSpec((NodeOp(24, "relu"), NodeOp(16, "tanh")))
    return GraphNetwork(spec, 8, 3, np.random.default_rng(seed))


def corrupt(X):
    """Inject NaNs as a bad-data / numerically-exploded stand-in.

    (Adam's per-coordinate normalization plus the stable softmax make true
    lr-driven NaNs hard to provoke in this substrate, so the guard is
    exercised with NaN inputs — the same non-finite-loss code path.)
    """
    bad = X.copy()
    bad[5, 0] = np.nan
    return bad


def tanh_net(seed=0):
    # tanh propagates NaN (ReLU's `x > 0` mask silently zeroes it).
    spec = ArchitectureSpec((NodeOp(24, "tanh"), NodeOp(16, "tanh")))
    return GraphNetwork(spec, 8, 3, np.random.default_rng(seed))


def test_trainer_divergence_guard(rng):
    X, y = make_blobs(rng, n=300)
    result = DataParallelTrainer(num_ranks=1, epochs=10, batch_size=32, learning_rate=0.01).fit(
        tanh_net(), corrupt(X[:240]), y[:240], X[240:], y[240:], rng
    )
    assert result.diverged
    assert len(result.epoch_val_accuracies) < 10  # aborted early
    assert np.isfinite(result.best_val_accuracy)
    assert result.best_val_accuracy >= 0.0


def test_dp_trainer_divergence_guard(rng):
    X, y = make_blobs(rng, n=300)
    result = DataParallelTrainer(
        num_ranks=4, epochs=10, batch_size=16, learning_rate=0.01
    ).fit(tanh_net(), corrupt(X[:240]), y[:240], X[240:], y[240:], rng)
    assert result.diverged
    assert np.isfinite(result.best_val_accuracy)


def test_healthy_training_not_flagged(rng):
    X, y = make_blobs(rng, n=300)
    result = DataParallelTrainer(num_ranks=1, epochs=3, batch_size=32, learning_rate=0.01).fit(
        build_net(), X[:240], y[:240], X[240:], y[240:], rng
    )
    assert not result.diverged


def test_model_evaluation_handles_divergence(tiny_covertype):
    """The evaluation function returns a finite penalized objective."""
    from repro.core import ModelConfig

    space = ArchitectureSpace(num_nodes=2)
    run = ModelEvaluation(tiny_covertype, space, epochs=3)
    cfg = ModelConfig(
        arch=space.random_sample(np.random.default_rng(0)),
        # lr far outside the tuned range, scaled 8x on top.
        hyperparameters={"batch_size": 32, "learning_rate": 1e5, "num_ranks": 8},
    )
    result = run(cfg)
    assert np.isfinite(result.objective)
    assert 0.0 <= result.objective <= 1.0
