"""Unit tests for the data-parallel trainer (Horovod-equivalent semantics)."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataparallel.trainer as dp_trainer
from repro.campaign.events import EpochEnd, EventBus, MetricsAggregator
from repro.dataparallel import DataParallelTrainer, ring_transfer_stats
from repro.nn import Adam, GraphNetwork, Trainer
from repro.nn.graph_network import ArchitectureSpec, NodeOp
from repro.searchspace import ArchitectureSpace

from conftest import make_blobs
from reference.dataparallel import per_rank_training


def build(seed=0, d=8, classes=3):
    spec = ArchitectureSpec((NodeOp(24, "relu"), NodeOp(16, "tanh")))
    return GraphNetwork(spec, d, classes, np.random.default_rng(seed))


@given(seed=st.integers(0, 10_000), num_ranks=st.integers(1, 8),
       dtype=st.sampled_from(["float32", "float64"]))
@settings(max_examples=40, deadline=None)
def test_fused_step_matches_per_rank_reference(seed, num_ranks, dtype):
    """One fused global-batch step == the mean of n per-rank gradients.

    Every rank draws one full micro-batch, so the trainer takes exactly
    one step.  float64 agrees to 1e-10; float32 to its own round-off
    (the fused pass sums the global batch in a different order).
    """
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=4)
    arch = space.random_sample(rng)
    bs = 8
    rows = num_ranks * bs
    X, y = make_blobs(rng, n=rows + 40, d=10, classes=4)

    steps = []

    class RecordingAdam(Adam):
        def apply_gradients(self, grads):
            steps.append(np.array(grads, copy=True))
            super().apply_gradients(grads)

    for reference in (False, True):
        model = GraphNetwork(space.decode(arch), 10, 4, np.random.default_rng(seed), dtype=dtype)
        trainer = DataParallelTrainer(num_ranks=num_ranks, epochs=1, batch_size=bs)
        with mock.patch.object(dp_trainer, "Adam", RecordingAdam):
            with per_rank_training(num_ranks) if reference else contextlib.nullcontext():
                trainer.fit(model, X[:rows], y[:rows], X[rows:], y[rows:],
                            np.random.default_rng(seed + 1))
    fused, ref = steps  # one step per run
    assert fused.dtype == ref.dtype == np.dtype(dtype)
    tol = 1e-10 if dtype == "float64" else 1e-5
    np.testing.assert_allclose(fused, ref, rtol=0, atol=tol * max(1.0, np.abs(ref).max()))


def test_fused_path_matches_per_rank(rng):
    """Whole runs: the fused step against the per-rank reference step."""
    X, y = make_blobs(np.random.default_rng(1), n=400)

    def run(reference):
        net = build(seed=5)
        trainer = DataParallelTrainer(num_ranks=2, epochs=3, batch_size=32, learning_rate=0.005)
        with per_rank_training(2) if reference else contextlib.nullcontext():
            result = trainer.fit(net, X[:320], y[:320], X[320:], y[320:],
                                 np.random.default_rng(4))
        return result, net.get_weights()

    (a, wa), (b, wb) = run(False), run(True)
    np.testing.assert_allclose(a.epoch_train_losses, b.epoch_train_losses, rtol=0, atol=1e-10)
    assert a.epoch_val_accuracies == b.epoch_val_accuracies
    for x, z in zip(wa, wb):
        np.testing.assert_allclose(x, z, rtol=0, atol=1e-10)


def test_single_rank_matches_reference_trainer():
    """n=1 data-parallel must reduce to the plain training loop."""
    X, y = make_blobs(np.random.default_rng(2), n=300)
    net_a = build(seed=7)
    net_b = build(seed=7)
    dp = DataParallelTrainer(num_ranks=1, epochs=3, batch_size=32, learning_rate=0.01).fit(
        net_a, X[:240], y[:240], X[240:], y[240:], np.random.default_rng(11)
    )
    # The reference Trainer permutes all of X; the DP trainer with 1 rank has
    # one shard = everything, so the dynamics are the same distributionally.
    ref = Trainer(epochs=3, batch_size=32, learning_rate=0.01).fit(
        net_b, X[:240], y[:240], X[240:], y[240:], np.random.default_rng(11)
    )
    assert abs(dp.best_val_accuracy - ref.best_val_accuracy) < 0.1


def test_scaled_lr_applied():
    X, y = make_blobs(np.random.default_rng(3), n=200)
    net = build(seed=1)
    trainer = DataParallelTrainer(num_ranks=4, epochs=1, batch_size=16, learning_rate=0.01)
    trainer.fit(net, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(0))
    # No public handle on the optimizer, so check via behaviour: disabling
    # linear scaling must change the trajectory.
    net2 = build(seed=1)
    t2 = DataParallelTrainer(
        num_ranks=4, epochs=1, batch_size=16, learning_rate=0.01, apply_linear_scaling=False
    )
    r2 = t2.fit(net2, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(0))
    net3 = build(seed=1)
    r3 = DataParallelTrainer(num_ranks=4, epochs=1, batch_size=16, learning_rate=0.04,
                             apply_linear_scaling=False).fit(
        net3, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(0)
    )
    trained = net.get_weights()
    manual = net3.get_weights()
    for a, b in zip(trained, manual):
        np.testing.assert_allclose(a, b, rtol=1e-8)  # 4 * 0.01 == 0.04
    assert r2.epoch_train_losses != r3.epoch_train_losses  # unscaled differs


def test_training_learns(rng):
    X, y = make_blobs(np.random.default_rng(4), n=500)
    net = build(seed=2)
    result = DataParallelTrainer(num_ranks=2, epochs=8, batch_size=16, learning_rate=0.005).fit(
        net, X[:400], y[:400], X[400:], y[400:], rng
    )
    assert result.best_val_accuracy > 0.8


def test_too_many_ranks_raises(rng):
    X, y = make_blobs(np.random.default_rng(5), n=10)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=8, epochs=1, batch_size=4).fit(
            build(), X[:4], y[:4], X[4:], y[4:], rng
        )


def test_constructor_validation():
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=0)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, epochs=-1)


def test_epochs_zero_returns_zeroed_result(rng):
    """epochs=0 yields a zeroed TrainResult instead of an IndexError."""
    X, y = make_blobs(np.random.default_rng(8), n=200)
    net = build(seed=4)
    before = [w.copy() for w in net.get_weights()]
    result = DataParallelTrainer(num_ranks=2, epochs=0, batch_size=16).fit(
        net, X[:160], y[:160], X[160:], y[160:], rng
    )
    assert result.best_val_accuracy == 0.0
    assert result.final_val_accuracy == 0.0
    assert result.epoch_val_accuracies == []
    assert result.epoch_train_losses == []
    assert not result.diverged
    for a, b in zip(before, net.get_weights()):
        np.testing.assert_array_equal(a, b)  # no training happened


def test_epoch_end_event_reports_ring_bytes():
    """EpochEnd carries the ring payload of every step of the epoch."""
    X, y = make_blobs(np.random.default_rng(9), n=300)

    def events(num_ranks):
        trainer = DataParallelTrainer(num_ranks=num_ranks, epochs=2, batch_size=16)
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, EpochEnd)
        metrics = MetricsAggregator()
        bus.subscribe(metrics)
        trainer.event_bus = bus
        net = build(seed=6)
        trainer.fit(net, X[:240], y[:240], X[240:], y[240:], np.random.default_rng(2))
        return net, seen, metrics

    net, seen, metrics = events(4)
    # 240 rows over 4 ranks: 60-row shards, 3 steps of 16 per epoch.
    per_step = ring_transfer_stats(4, net.num_parameters() * 8).bytes_sent_per_rank
    assert per_step == round(2 * 3 / 4 * net.num_parameters() * 8)
    assert len(seen) == 2
    assert all(e.num_ranks == 4 and e.ring_bytes_per_rank == 3 * per_step for e in seen)
    assert metrics.ring_comm_bytes == 2 * 4 * 3 * per_step

    _, seen, metrics = events(1)
    assert len(seen) == 2 and all(e.ring_bytes_per_rank == 0 for e in seen)
    assert metrics.ring_comm_bytes == 0


def test_large_effective_batch_degrades_accuracy():
    """The paper's core premise: past the scaling limit, accuracy suffers.

    With a small training set, n=8 (effective batch 8x256 > n_train) takes
    one noisy step per epoch with an 8x learning rate and must do worse
    than n=1 on average.
    """
    from repro.datasets import make_tabular_classification

    X, y = make_tabular_classification(
        1500, 8, 3, np.random.default_rng(6), class_sep=1.2, mixing_depth=2
    )
    accs = {}
    for n in (1, 8):
        scores = []
        for seed in range(3):
            net = build(seed=seed)
            res = DataParallelTrainer(
                num_ranks=n, epochs=6, batch_size=128, learning_rate=0.02, warmup_epochs=2
            ).fit(net, X[:1200], y[:1200], X[1200:], y[1200:], np.random.default_rng(seed))
            scores.append(res.best_val_accuracy)
        accs[n] = np.mean(scores)
    assert accs[1] > accs[8]
