"""Synchronous data-parallel training (the Horovod-equivalent loop).

Each epoch, every simulated rank draws micro-batches of ``batch_size`` from
its own shard, and a single Adam update is applied with the linearly scaled
learning rate ``n · lr``.  Because all ranks hold identical weights, this is
exactly synchronous data-parallel SGD — the same algebra Horovod executes
across real processes — so the accuracy behaviour as a function of
``(n, lr, bs)`` (including large-effective-batch degradation) emerges for
real rather than being modelled.

One step is one forward/backward of the compiled plan over the ``n``
micro-batches concatenated into the global batch: the mean loss over those
``n · bs`` rows has as its gradient the rank-averaged gradient — the tensor
Horovod's fused allreduce produces — which lands in the plan's flat
gradient buffer for Adam to consume directly.  The per-rank oracle (``n``
separate passes averaged in float64) lives in ``tests/reference/`` and
gates this step.  The ring's communication is not simulated; its byte
count is reported analytically, per epoch, in
``TrainResult.epoch_ring_bytes_per_rank``.

This is the one training loop: with ``num_ranks=1`` it trains the MLP
baseline (:class:`repro.baselines.MLPClassifier`) as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataparallel.allreduce import ring_transfer_stats
from repro.dataparallel.scaling import linear_scaled_lr
from repro.dataparallel.sharding import shard_indices
from repro.nn.graph_network import GraphNetwork
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Adam
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau

__all__ = ["DataParallelTrainer", "TrainResult"]


@dataclass
class TrainResult:
    """Outcome of one training run."""

    best_val_accuracy: float
    final_val_accuracy: float
    epoch_val_accuracies: list[float] = field(default_factory=list)
    epoch_train_losses: list[float] = field(default_factory=list)
    # What a ring allreduce of the flat gradient ships per rank each epoch:
    # one allreduce per step, as the cost model bills it (0 single-rank).
    epoch_ring_bytes_per_rank: list[int] = field(default_factory=list)
    best_weights: list[np.ndarray] | None = None
    diverged: bool = False  # training aborted on a non-finite loss


class DataParallelTrainer:
    """Train a model with ``num_ranks``-way synchronous data parallelism.

    Parameters
    ----------
    num_ranks:
        Number of simulated data-parallel processes ``n``.
    batch_size, learning_rate:
        *Per-rank* micro-batch size ``bs_1`` and *base* learning rate
        ``lr_1``; the trainer applies the linear scaling rule internally.

    The model is the one source of precision: :meth:`fit` casts the data
    to ``model.dtype``.
    """

    def __init__(
        self,
        num_ranks: int,
        epochs: int = 20,
        batch_size: int = 256,
        learning_rate: float = 0.01,
        warmup_epochs: int = 5,
        plateau_patience: int = 5,
        apply_linear_scaling: bool = True,
        keep_best_weights: bool = False,
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.num_ranks = num_ranks
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.warmup_epochs = warmup_epochs
        self.plateau_patience = plateau_patience
        self.apply_linear_scaling = apply_linear_scaling
        self.keep_best_weights = keep_best_weights

    def fit(
        self,
        model: GraphNetwork,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_valid: np.ndarray,
        y_valid: np.ndarray,
        rng: np.random.Generator,
    ) -> TrainResult:
        """Run the paper's recipe under ``num_ranks``-way data parallelism."""
        n = self.num_ranks
        if X_train.shape[0] < n:
            # Degenerate micro-batches still work (one short batch per
            # shard), but every rank needs at least one sample.
            raise ValueError(
                f"cannot run {n} ranks on {X_train.shape[0]} training samples"
            )
        X_train = np.ascontiguousarray(X_train, dtype=model.dtype)
        X_valid = np.ascontiguousarray(X_valid, dtype=model.dtype)
        plan = model.compile()
        shards = shard_indices(X_train.shape[0], n, rng)
        min_shard = min(len(s) for s in shards)
        steps = max(1, min_shard // self.batch_size)
        # Index hoisting only works when every rank draws full micro-batches;
        # degenerate shards (shorter than batch_size) keep per-step slicing
        # of the raw shard orders.
        hoistable = min_shard >= self.batch_size

        scaled_lr = (
            linear_scaled_lr(self.learning_rate, n)
            if self.apply_linear_scaling
            else self.learning_rate
        )
        optimizer = Adam(model.parameters(), lr=scaled_lr)
        warmup = GradualWarmup(optimizer, scaled_lr, self.warmup_epochs)
        plateau = ReduceLROnPlateau(optimizer, patience=self.plateau_patience)

        ring_bytes = (
            steps
            * ring_transfer_stats(n, plan.mean_grad_flat.nbytes).bytes_sent_per_rank
        )

        result = TrainResult(best_val_accuracy=-np.inf, final_val_accuracy=0.0)
        best_acc = -np.inf
        for epoch in range(self.epochs):
            warmup.on_epoch_begin(epoch)
            orders = [shard[rng.permutation(len(shard))] for shard in shards]
            # Hoisted per-epoch index matrix: row r is rank r's epoch-long
            # draw, so a step's global batch is one contiguous column slice
            # instead of n per-rank slices.
            epoch_idx = (
                np.stack([order[: steps * self.batch_size] for order in orders])
                if hoistable
                else None
            )
            epoch_loss = 0.0
            for step in range(steps):
                lo = step * self.batch_size
                hi = lo + self.batch_size
                if epoch_idx is not None:
                    idx = epoch_idx[:, lo:hi].ravel()
                else:
                    idx = np.concatenate([order[lo:hi] for order in orders])
                epoch_loss += plan.loss_and_grad(X_train[idx], y_train[idx])
                optimizer.apply_gradients(plan.mean_grad_flat)
            mean_loss = epoch_loss / steps
            if not np.isfinite(mean_loss):
                # Divergence guard: a too-hot scaled learning rate must
                # yield a penalized result, not a crashed worker.
                result.diverged = True
                result.epoch_train_losses.append(mean_loss)
                result.epoch_val_accuracies.append(0.0)
                result.epoch_ring_bytes_per_rank.append(ring_bytes)
                break
            val_acc = accuracy(plan.predict_logits(X_valid), y_valid)
            result.epoch_val_accuracies.append(val_acc)
            result.epoch_train_losses.append(mean_loss)
            result.epoch_ring_bytes_per_rank.append(ring_bytes)
            if val_acc > best_acc:
                best_acc = val_acc
                if self.keep_best_weights:
                    result.best_weights = model.get_weights()
            plateau.on_epoch_end(val_acc)

        result.best_val_accuracy = float(max(best_acc, 0.0))
        # epochs=0 (or an empty history) yields a zeroed result, not a crash.
        result.final_val_accuracy = (
            result.epoch_val_accuracies[-1] if result.epoch_val_accuracies else 0.0
        )
        return result
