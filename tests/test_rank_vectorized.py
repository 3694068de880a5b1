"""Gates for the per-rank surface of the compiled plan.

:meth:`CompiledPlan.loss_and_grads_ranked` must match the eager tape
(``reference.eager``) on each rank's micro-batch.  No trainer calls it (the
data-parallel step is one pass over the global batch, gated against the
per-rank oracle in ``tests/test_dp_trainer.py``); it stays while
``perfbench/spans.py`` names it as a tracer target.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataparallel.trainer as dp_trainer
from repro.dataparallel import DataParallelTrainer
from repro.nn import Adam
from repro.nn.graph_network import GraphNetwork
from repro.searchspace import ArchitectureSpace

from conftest import make_blobs
from reference.dataparallel import per_rank_training
from reference.eager import eager_loss_and_grads


def random_model(seed: int, d: int = 10, classes: int = 4, num_nodes: int = 4,
                 dtype=np.float64) -> GraphNetwork:
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=num_nodes)
    spec = space.decode(space.random_sample(rng))
    return GraphNetwork(spec, d, classes, np.random.default_rng(seed), dtype=dtype)


# --------------------------------------------------------------------- #
# 1. Per-rank losses and gradients vs the eager tape
# --------------------------------------------------------------------- #
@given(seed=st.integers(0, 50), num_ranks=st.sampled_from([1, 2, 3, 4, 8]))
@settings(max_examples=25, deadline=None)
def test_ranked_gradients_match_per_rank_loop(seed, num_ranks):
    """Each rank's loss and flat gradient == the eager tape's on that
    rank's micro-batch (an oracle independent of the plan)."""
    model = random_model(seed)
    plan = model.compile()
    rng = np.random.default_rng(seed + 1)
    bs = 16
    X = rng.standard_normal((num_ranks * bs, 10))
    y = rng.integers(0, 4, size=num_ranks * bs)

    losses, rank_grads = plan.loss_and_grads_ranked(X, y, num_ranks)
    assert losses.shape == (num_ranks,)
    assert rank_grads.shape == (num_ranks, plan.num_flat_params)
    rank_grads = rank_grads.copy()  # the plan reuses the matrix

    for r in range(num_ranks):
        lo, hi = r * bs, (r + 1) * bs
        loss_r, grads = eager_loss_and_grads(model, X[lo:hi], y[lo:hi])
        flat = np.concatenate([g.ravel() for g in grads])
        assert abs(loss_r - losses[r]) < 1e-10
        np.testing.assert_allclose(rank_grads[r], flat, rtol=0, atol=1e-10)


def test_ranked_rejects_indivisible_batch():
    plan = random_model(0).compile()
    X = np.zeros((10, 10))
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError):
        plan.loss_and_grads_ranked(X, y, 3)
    with pytest.raises(ValueError):
        plan.loss_and_grads_ranked(X, y, 0)


def test_mean_grad_views_are_double_buffer():
    """Every parameter's gradient view aliases mean_grad_flat."""
    plan = random_model(2).compile()
    for view, (o, s, shape) in zip(plan.mean_grad_views, plan.param_segments):
        assert view.shape == shape
        assert np.shares_memory(view, plan.mean_grad_flat)


# --------------------------------------------------------------------- #
# 2. Dtype stability (float32 must not silently upcast)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("rank_mode", ["batched", "loop"])
def test_trainer_float32_keeps_adam_dtype_stable(rank_mode):
    """float32 training must feed float32 gradients into the update.

    ``batched`` runs the fused global-batch step; ``loop`` runs the
    per-rank reference step, whose float64 mean is cast back on write.
    """
    X, y = make_blobs(np.random.default_rng(7), n=200)
    model = random_model(3, d=8, classes=3, dtype=np.float32)
    trainer = DataParallelTrainer(num_ranks=2, epochs=2, batch_size=16, learning_rate=0.005)
    dtypes = set()

    class RecordingAdam(Adam):
        def apply_gradients(self, grad):
            dtypes.add(grad.dtype)
            super().apply_gradients(grad)

    step = per_rank_training(2) if rank_mode == "loop" else contextlib.nullcontext()
    with step, mock.patch.object(dp_trainer, "Adam", RecordingAdam):
        trainer.fit(model, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(8))
    assert dtypes == {np.dtype(np.float32)}
    assert all(p.data.dtype == np.float32 for p in model.parameters())
