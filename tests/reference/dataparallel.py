"""Per-rank data-parallel gradient: the oracle for the fused training step.

:class:`~repro.dataparallel.DataParallelTrainer` computes each step's
gradient in one ``plan.loss_and_grad`` over the ``n`` rank micro-batches
concatenated into the global batch.  The reference is the textbook
algebra: ``n`` separate passes, one per rank's micro-batch, averaged in
float64 in ascending rank order.  The two agree when every micro-batch
holds the same number of rows.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.nn.graph_network import GraphNetwork


class PerRankPlan:
    """A compiled plan whose ``loss_and_grad`` runs the per-rank reference.

    ``X``/``y`` hold ``num_ranks`` stacked equal micro-batches (rank ``r``
    owns rows ``[r·bs, (r+1)·bs)``).  The float64 mean gradient is cast
    into the wrapped plan's flat gradient buffer, where the trainer's
    optimizer reads it.
    """

    def __init__(self, plan, num_ranks: int) -> None:
        self.plan = plan
        self.num_ranks = num_ranks
        self.mean_grad_flat = plan.mean_grad_flat

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> float:
        n = self.num_ranks
        if X.shape[0] % n:
            raise ValueError(f"{X.shape[0]} rows do not split into {n} micro-batches")
        bs = X.shape[0] // n
        losses = []
        grad = np.zeros(self.plan.num_flat_params)
        for r in range(n):
            rows = slice(r * bs, (r + 1) * bs)
            losses.append(self.plan.loss_and_grad(X[rows], y[rows]))
            grad += self.plan.mean_grad_flat
        grad /= n
        self.mean_grad_flat[:] = grad
        return float(np.mean(losses))

    def predict_logits(self, X: np.ndarray) -> np.ndarray:
        return self.plan.predict_logits(X)


@contextlib.contextmanager
def per_rank_training(num_ranks: int):
    """Within the block, every trainer step uses the per-rank reference."""
    compile_plan = GraphNetwork.compile
    with mock.patch.object(
        GraphNetwork, "compile",
        lambda model: PerRankPlan(compile_plan(model), num_ranks),
    ):
        yield
