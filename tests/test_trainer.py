"""Unit tests for the single-rank training loop.

``DataParallelTrainer(num_ranks=1)`` is the plain training loop, the one
the MLP baseline uses; the multi-rank behaviour is in
``test_dp_trainer.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataparallel import DataParallelTrainer
from repro.nn import GraphNetwork
from repro.nn.graph_network import ArchitectureSpec, NodeOp

from conftest import make_blobs


def single_rank(**kwargs) -> DataParallelTrainer:
    return DataParallelTrainer(num_ranks=1, **kwargs)


def build(input_dim=8, classes=3, seed=0):
    spec = ArchitectureSpec((NodeOp(32, "relu"), NodeOp(16, "tanh")))
    return GraphNetwork(spec, input_dim, classes, np.random.default_rng(seed))


def test_training_improves_over_initialization(rng):
    X, y = make_blobs(rng)
    net = build()
    from repro.nn.metrics import accuracy

    before = accuracy(net.predict_logits(X[300:]), y[300:])
    result = single_rank(epochs=10, batch_size=32, learning_rate=0.01).fit(
        net, X[:300], y[:300], X[300:], y[300:], rng
    )
    assert result.best_val_accuracy > before
    assert result.best_val_accuracy > 0.8  # separable blobs


def test_history_lengths_match_epochs(rng):
    X, y = make_blobs(rng, n=120)
    result = single_rank(epochs=4, batch_size=32).fit(
        build(), X[:90], y[:90], X[90:], y[90:], rng
    )
    assert len(result.epoch_val_accuracies) == 4
    assert len(result.epoch_train_losses) == 4
    assert result.final_val_accuracy == result.epoch_val_accuracies[-1]
    assert result.best_val_accuracy == max(result.epoch_val_accuracies)


def test_keep_best_weights_restorable(rng):
    X, y = make_blobs(rng, n=200)
    net = build()
    result = single_rank(epochs=6, batch_size=32, keep_best_weights=True).fit(
        net, X[:150], y[:150], X[150:], y[150:], rng
    )
    assert result.best_weights is not None
    net.set_weights(result.best_weights)
    from repro.nn.metrics import accuracy

    restored = accuracy(net.predict_logits(X[150:]), y[150:])
    np.testing.assert_allclose(restored, result.best_val_accuracy)


def test_deterministic_given_seed():
    X, y = make_blobs(np.random.default_rng(0), n=200)

    def run():
        rng = np.random.default_rng(42)
        return single_rank(epochs=3, batch_size=32).fit(
            build(seed=5), X[:150], y[:150], X[150:], y[150:], rng
        )

    a, b = run(), run()
    np.testing.assert_array_equal(a.epoch_val_accuracies, b.epoch_val_accuracies)
    np.testing.assert_array_equal(a.epoch_train_losses, b.epoch_train_losses)


def test_empty_training_set_raises(rng):
    with pytest.raises(ValueError):
        single_rank(epochs=1).fit(
            build(), np.zeros((0, 8)), np.zeros(0, dtype=int), np.zeros((2, 8)), np.zeros(2, dtype=int), rng
        )


def test_constructor_validation():
    with pytest.raises(ValueError):
        single_rank(epochs=-1)
    with pytest.raises(ValueError):
        single_rank(batch_size=0)


def test_loss_decreases_on_average(rng):
    X, y = make_blobs(rng, n=400)
    result = single_rank(epochs=8, batch_size=32, learning_rate=0.01).fit(
        build(), X[:300], y[:300], X[300:], y[300:], rng
    )
    first, last = result.epoch_train_losses[0], result.epoch_train_losses[-1]
    assert last < first
