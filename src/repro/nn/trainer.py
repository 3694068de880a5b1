"""Single-process training loop implementing the paper's recipe.

Every candidate architecture is trained with Adam for a fixed number of
epochs (20 in the paper), with a 5-epoch gradual warmup and a
reduce-LR-on-plateau callback (patience 5), maximizing validation accuracy.
The data-parallel variant of this loop lives in
:mod:`repro.dataparallel.trainer`; this one is the ``n = 1`` reference whose
behaviour the data-parallel trainer must match when run with a single rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.graph_network import GraphNetwork
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Adam
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau

__all__ = ["TrainResult", "Trainer"]


@dataclass
class TrainResult:
    """Outcome of one training run."""

    best_val_accuracy: float
    final_val_accuracy: float
    epoch_val_accuracies: list[float] = field(default_factory=list)
    epoch_train_losses: list[float] = field(default_factory=list)
    best_weights: list[np.ndarray] | None = None
    diverged: bool = False  # training aborted on a non-finite loss


class Trainer:
    """Train a :class:`GraphNetwork` on ``(X_train, y_train)``.

    Parameters
    ----------
    epochs, batch_size, learning_rate:
        The paper's defaults are 20 / 256 / 0.01.
    warmup_epochs, plateau_patience:
        Schedule settings (5 and 5 in the paper).
    keep_best_weights:
        If True, retain a copy of the weights from the best-validation
        epoch (used when the selected model is later evaluated on test).
    dtype:
        Optional precision override for the training arrays.  ``None``
        keeps the model's dtype; ``np.float32`` roughly halves memory
        traffic on the hot path.
    """

    def __init__(
        self,
        epochs: int = 20,
        batch_size: int = 256,
        learning_rate: float = 0.01,
        warmup_epochs: int = 5,
        plateau_patience: int = 5,
        keep_best_weights: bool = False,
        dtype=None,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.warmup_epochs = warmup_epochs
        self.plateau_patience = plateau_patience
        self.keep_best_weights = keep_best_weights
        self.dtype = None if dtype is None else np.dtype(dtype)
        # Optional campaign event bus; when set, fit emits one
        # repro.campaign.events.EpochEnd per epoch.
        self.event_bus = None

    def _emit_epoch(self, epoch: int, train_loss: float, val_accuracy: float,
                    num_ranks: int = 1) -> None:
        if self.event_bus is not None:
            from repro.campaign.events import EpochEnd

            self.event_bus.emit(
                EpochEnd(
                    epoch=epoch,
                    train_loss=float(train_loss),
                    val_accuracy=float(val_accuracy),
                    num_ranks=num_ranks,
                )
            )

    def fit(
        self,
        model: GraphNetwork,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_valid: np.ndarray,
        y_valid: np.ndarray,
        rng: np.random.Generator,
    ) -> TrainResult:
        """Run the full recipe; returns per-epoch history and the best score."""
        n = X_train.shape[0]
        if n == 0:
            raise ValueError("empty training set")
        dtype = self.dtype or model.dtype
        X_train = np.ascontiguousarray(X_train, dtype=dtype)
        X_valid = np.ascontiguousarray(X_valid, dtype=dtype)
        plan = model.compile()
        optimizer = Adam(model.parameters(), lr=self.learning_rate)
        warmup = GradualWarmup(optimizer, self.learning_rate, self.warmup_epochs)
        plateau = ReduceLROnPlateau(optimizer, patience=self.plateau_patience)

        result = TrainResult(best_val_accuracy=-np.inf, final_val_accuracy=0.0)
        best_acc = -np.inf
        for epoch in range(self.epochs):
            warmup.on_epoch_begin(epoch)
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                epoch_loss += plan.loss_and_grad(X_train[idx], y_train[idx])
                optimizer.apply_gradients(plan.mean_grad_flat)
                n_batches += 1
            mean_loss = epoch_loss / max(n_batches, 1)
            if not np.isfinite(mean_loss):
                # Diverged (e.g. an absurd scaled learning rate): abort and
                # report what was achieved so the search can penalize it
                # without crashing the campaign.
                result.diverged = True
                result.epoch_train_losses.append(mean_loss)
                result.epoch_val_accuracies.append(0.0)
                self._emit_epoch(epoch, mean_loss, 0.0)
                break
            val_acc = accuracy(plan.predict_logits(X_valid), y_valid)
            result.epoch_val_accuracies.append(val_acc)
            result.epoch_train_losses.append(mean_loss)
            self._emit_epoch(epoch, mean_loss, val_acc)
            if val_acc > best_acc:
                best_acc = val_acc
                if self.keep_best_weights:
                    result.best_weights = model.get_weights()
            plateau.on_epoch_end(val_acc)

        result.best_val_accuracy = float(max(best_acc, 0.0))
        result.final_val_accuracy = result.epoch_val_accuracies[-1]
        return result
