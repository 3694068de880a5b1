"""Synchronous data-parallel training (the Horovod-equivalent loop).

Each epoch, every simulated rank draws micro-batches of ``batch_size`` from
its own shard; per-rank gradients are averaged by the ring-allreduce and a
single Adam update is applied with the linearly scaled learning rate
``n · lr``.  Because all ranks hold identical weights, this is exactly
synchronous data-parallel SGD — the same algebra Horovod executes across
real processes — so the accuracy behaviour as a function of ``(n, lr, bs)``
(including large-effective-batch degradation) emerges for real rather than
being modelled.

Two execution strategies produce that algebra:

- ``rank_mode="batched"`` (default, compiled backend): the ``n``
  micro-batches are stacked into one ``(n·bs, d)`` array and a single
  fused forward/backward recovers *per-rank* gradients directly into an
  allreduce-ready ``(n, P)`` flat matrix
  (:meth:`~repro.nn.compiled.CompiledPlan.loss_and_grads_ranked`); the
  ring/mean reduction then runs as one vectorized flat-buffer kernel and
  the reduced mean lands in the plan's double-buffered gradient views —
  one numpy dispatch chain per step, no per-rank Python loop, no
  defensive gradient copies.
- ``rank_mode="loop"`` — the reference: ``n`` separate forward/backward
  passes and the chunked-list allreduce.  The eager backend always uses
  it, as do degenerate shards (shorter than one micro-batch) and the
  ``fused`` allreduce (which needs no per-rank gradients at all).

Both modes agree to float round-off; the equivalence gate lives in
``tests/test_rank_vectorized.py``.

A ``fused`` fast path computes the same averaged gradient in one
forward/backward over the concatenated global batch; tests assert the two
paths agree to float tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.dataparallel.allreduce import (
    RingReducer,
    allreduce_mean,
    allreduce_mean_flat,
    ring_allreduce_reference,
    ring_transfer_stats,
)
from repro.dataparallel.scaling import linear_scaled_lr
from repro.dataparallel.sharding import shard_indices
from repro.nn.graph_network import GraphNetwork
from repro.nn.losses import softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Adam
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau
from repro.nn.trainer import TrainResult

__all__ = ["DataParallelTrainer"]


class DataParallelTrainer:
    """Train a model with ``num_ranks``-way synchronous data parallelism.

    Parameters
    ----------
    num_ranks:
        Number of simulated data-parallel processes ``n``.
    batch_size, learning_rate:
        *Per-rank* micro-batch size ``bs_1`` and *base* learning rate
        ``lr_1``; the trainer applies the linear scaling rule internally.
    allreduce:
        ``"ring"`` runs the simulated ring (default), ``"mean"`` the
        reference naive average, ``"fused"`` the concatenated-batch fast
        path.
    rank_mode:
        ``"batched"`` (default) vectorizes the rank dimension — one fused
        multi-rank forward/backward plus a flat-buffer reduction per step;
        ``"loop"`` runs the reference per-rank Python loop.  The choice
        never changes the numbers (both gated equivalent), only the speed;
        batched silently degrades to the loop where it does not apply
        (eager backend, ``fused`` allreduce, ``n = 1``, or shards shorter
        than one micro-batch).
    backend:
        ``"compiled"`` (default) computes per-rank gradients through the
        model's :class:`~repro.nn.compiled.CompiledPlan`; ``"eager"``
        uses the reference tape.  Both paths agree to float tolerance.
    dtype:
        Optional precision override for the training arrays (``None``
        keeps the model's dtype).
    """

    def __init__(
        self,
        num_ranks: int,
        epochs: int = 20,
        batch_size: int = 256,
        learning_rate: float = 0.01,
        warmup_epochs: int = 5,
        plateau_patience: int = 5,
        allreduce: str = "ring",
        apply_linear_scaling: bool = True,
        keep_best_weights: bool = False,
        backend: str = "compiled",
        dtype=None,
        rank_mode: str = "batched",
    ) -> None:
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if epochs < 0:
            raise ValueError("epochs must be >= 0")
        if allreduce not in ("ring", "mean", "fused"):
            raise ValueError(f"unknown allreduce mode {allreduce!r}")
        if backend not in ("compiled", "eager"):
            raise ValueError(f"backend must be 'compiled' or 'eager', got {backend!r}")
        if rank_mode not in ("batched", "loop"):
            raise ValueError(f"rank_mode must be 'batched' or 'loop', got {rank_mode!r}")
        self.num_ranks = num_ranks
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.warmup_epochs = warmup_epochs
        self.plateau_patience = plateau_patience
        self.allreduce = allreduce
        self.apply_linear_scaling = apply_linear_scaling
        self.keep_best_weights = keep_best_weights
        self.backend = backend
        self.dtype = None if dtype is None else np.dtype(dtype)
        self.rank_mode = rank_mode
        # Optional campaign event bus; when set, fit emits one
        # repro.campaign.events.EpochEnd per epoch.
        self.event_bus = None

    def _emit_epoch(
        self,
        epoch: int,
        train_loss: float,
        val_accuracy: float,
        ring_bytes_per_rank: int = 0,
    ) -> None:
        if self.event_bus is not None:
            from repro.campaign.events import EpochEnd

            self.event_bus.emit(
                EpochEnd(
                    epoch=epoch,
                    train_loss=float(train_loss),
                    val_accuracy=float(val_accuracy),
                    num_ranks=self.num_ranks,
                    ring_bytes_per_rank=int(ring_bytes_per_rank),
                )
            )

    # ------------------------------------------------------------------ #
    def _rank_gradient(
        self, model: GraphNetwork, X: np.ndarray, y: np.ndarray, plan=None, copy: bool = True
    ) -> tuple[list[np.ndarray] | np.ndarray, float]:
        """Gradient of the mean loss on one rank's micro-batch.

        With a compiled ``plan`` the gradient lands in the plan's reused
        flat buffer; ``copy=True`` (needed whenever per-rank gradients are
        collected before reduction) snapshots it per parameter, while the
        fused path passes ``copy=False`` and gets the flat buffer itself,
        for the optimizer to consume immediately.
        """
        if plan is not None:
            loss_value = plan.loss_and_grad(X, y)
            if copy:
                return [g.copy() for g in plan.mean_grad_views], loss_value
            return plan.mean_grad_flat, loss_value
        params = model.parameters()
        for p in params:
            p.grad = None
        loss = softmax_cross_entropy(model.forward(X), y)
        loss.backward()
        grads = [
            p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
        ]
        return grads, loss.item()

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
        if X_train.shape[0] < n * self.batch_size:
            # Degenerate micro-batches still work (one short batch per shard),
            # but guard against sharding more ranks than samples.
            if X_train.shape[0] < n:
                raise ValueError(
                    f"cannot run {n} ranks on {X_train.shape[0]} training samples"
                )
        dtype = self.dtype or model.dtype
        X_train = np.ascontiguousarray(X_train, dtype=dtype)
        X_valid = np.ascontiguousarray(X_valid, dtype=dtype)
        plan = model.compile() if self.backend == "compiled" else None
        shards = shard_indices(X_train.shape[0], n, rng)
        min_shard = min(len(s) for s in shards)
        steps = max(1, min_shard // self.batch_size)
        # Index hoisting only works when every rank draws full micro-batches;
        # degenerate shards (shorter than batch_size) keep the reference
        # per-step slicing on the raw shard orders.
        hoistable = min_shard >= self.batch_size
        batched = (
            self.rank_mode == "batched"
            and plan is not None
            and n > 1
            and self.allreduce in ("ring", "mean")
            and hoistable
        )

        scaled_lr = (
            linear_scaled_lr(self.learning_rate, n)
            if self.apply_linear_scaling
            else self.learning_rate
        )
        optimizer = Adam(model.parameters(), lr=scaled_lr)
        warmup = GradualWarmup(optimizer, scaled_lr, self.warmup_epochs)
        plateau = ReduceLROnPlateau(optimizer, patience=self.plateau_patience)

        if self.allreduce == "ring" and n > 1:
            ring_bytes = ring_transfer_stats(
                n, model.num_parameters() * dtype.itemsize
            ).bytes_sent_per_rank
        else:
            ring_bytes = 0

        if batched:
            # Preallocated stacked micro-batch and the flat-buffer reducer;
            # the reduced mean lands in the plan's flat gradient, which
            # Adam consumes directly.
            stacked_rows = n * self.batch_size
            Xb = np.empty((stacked_rows, X_train.shape[1]), dtype=dtype)
            yb = np.empty(stacked_rows, dtype=y_train.dtype)
            reducer = (
                RingReducer(n, plan.num_flat_params)
                if self.allreduce == "ring"
                else None
            )

        result = TrainResult(best_val_accuracy=-np.inf, final_val_accuracy=0.0)
        best_acc = -np.inf
        for epoch in range(self.epochs):
            warmup.on_epoch_begin(epoch)
            orders = [shard[rng.permutation(len(shard))] for shard in shards]
            # Hoisted per-epoch index matrix: row r is rank r's epoch-long
            # draw, so a step's global batch is one contiguous column slice
            # instead of n per-rank fancy-index gathers.
            epoch_idx = (
                np.stack([order[: steps * self.batch_size] for order in orders])
                if hoistable
                else None
            )
            epoch_loss = 0.0
            for step in range(steps):
                lo = step * self.batch_size
                hi = lo + self.batch_size
                if batched:
                    flat_idx = epoch_idx[:, lo:hi].ravel()
                    np.take(X_train, flat_idx, axis=0, out=Xb)
                    np.take(y_train, flat_idx, axis=0, out=yb)
                    losses, rank_grads = plan.loss_and_grads_ranked(Xb, yb, n)
                    if reducer is not None:
                        reducer.reduce(rank_grads, out=plan.mean_grad_flat)
                    else:
                        allreduce_mean_flat(rank_grads, out=plan.mean_grad_flat)
                    optimizer.apply_gradients(plan.mean_grad_flat)
                    epoch_loss += float(np.mean(losses))
                    continue
                if self.allreduce == "fused":
                    if epoch_idx is not None:
                        idx = epoch_idx[:, lo:hi].ravel()
                    else:
                        idx = np.concatenate([order[lo:hi] for order in orders])
                    grads, loss = self._rank_gradient(
                        model, X_train[idx], y_train[idx], plan, copy=False
                    )
                    mean_grads = grads
                else:
                    per_rank = []
                    losses = []
                    for order in orders:
                        idx = order[lo:hi]
                        g, loss_r = self._rank_gradient(
                            model, X_train[idx], y_train[idx], plan
                        )
                        per_rank.append(g)
                        losses.append(loss_r)
                    # The loop mode is the pre-vectorization reference, so it
                    # keeps the chunked-list ring (bitwise identical to the
                    # flat-buffer reducer; see tests/test_rank_vectorized.py).
                    reduce_fn = (
                        ring_allreduce_reference
                        if self.allreduce == "ring"
                        else allreduce_mean
                    )
                    mean_grads = reduce_fn(per_rank)
                    loss = float(np.mean(losses))
                optimizer.apply_gradients(mean_grads)
                epoch_loss += loss
            mean_loss = epoch_loss / steps
            if not np.isfinite(mean_loss):
                # Divergence guard: a too-hot scaled learning rate must
                # yield a penalized result, not a crashed worker.
                result.diverged = True
                result.epoch_train_losses.append(mean_loss)
                result.epoch_val_accuracies.append(0.0)
                self._emit_epoch(epoch, mean_loss, 0.0, ring_bytes)
                break
            val_logits = (
                plan.predict_logits(X_valid) if plan is not None
                else model.predict_logits(X_valid)
            )
            val_acc = accuracy(val_logits, y_valid)
            result.epoch_val_accuracies.append(val_acc)
            result.epoch_train_losses.append(mean_loss)
            self._emit_epoch(epoch, mean_loss, val_acc, ring_bytes)
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
