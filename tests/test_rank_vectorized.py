"""Equivalence gates for the rank-vectorized compiled-plan kernel.

:meth:`CompiledPlan.loss_and_grads_ranked` (one fused multi-rank pass)
must match a loop of per-rank :meth:`CompiledPlan.loss_and_grad` calls to
1e-10; in practice they agree bitwise.  No trainer calls the kernel (the
data-parallel step is one pass over the global batch, gated against the
per-rank oracle in ``tests/test_dp_trainer.py``); it stays while
``perfbench/spans.py`` names it as a tracer target.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataparallel import DataParallelTrainer
from repro.nn.graph_network import GraphNetwork
from repro.searchspace import ArchitectureSpace

from conftest import make_blobs
from reference.dataparallel import per_rank_training


def random_model(seed: int, d: int = 10, classes: int = 4, num_nodes: int = 4) -> GraphNetwork:
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=num_nodes)
    spec = space.decode(space.random_sample(rng))
    return GraphNetwork(spec, d, classes, np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# 1. Batched multi-rank kernels vs the per-rank loop
# --------------------------------------------------------------------- #
@given(seed=st.integers(0, 50), num_ranks=st.sampled_from([1, 2, 3, 4, 8]))
@settings(max_examples=25, deadline=None)
def test_ranked_gradients_match_per_rank_loop(seed, num_ranks):
    """One fused multi-rank pass == n separate plan calls, per rank."""
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
        loss_r = plan.loss_and_grad(X[lo:hi], y[lo:hi])
        packed = plan.mean_grad_flat
        assert abs(loss_r - losses[r]) < 1e-10
        np.testing.assert_allclose(rank_grads[r], packed, rtol=0, atol=1e-10)


def test_ranked_rejects_indivisible_batch():
    plan = random_model(0).compile()
    X = np.zeros((10, 10))
    y = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError):
        plan.loss_and_grads_ranked(X, y, 3)
    with pytest.raises(ValueError):
        plan.loss_and_grads_ranked(X, y, 0)


def test_rank_grad_views_alias_flat_matrix():
    """Per-layer batched gradients are views into one (n, P) matrix."""
    plan = random_model(1).compile()
    bufs = plan.rank_buffers_for(4)
    assert bufs.flat.shape == (4, plan.num_flat_params)
    for gW, gb in bufs.layer_views.values():
        assert np.shares_memory(gW, bufs.flat)
        assert np.shares_memory(gb, bufs.flat)
    # Cached per rank count.
    assert plan.rank_buffers_for(4) is bufs


def test_mean_grad_views_are_double_buffer():
    """The reduced-mean views alias mean_grad_flat, not the rank matrix."""
    plan = random_model(2).compile()
    rank_bufs = plan.rank_buffers_for(2)
    for view, (o, s, shape) in zip(plan.mean_grad_views, plan.param_segments):
        assert view.shape == shape
        assert np.shares_memory(view, plan.mean_grad_flat)
        assert not np.shares_memory(view, rank_bufs.flat)


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
    model = random_model(3, d=8, classes=3)
    trainer = DataParallelTrainer(
        num_ranks=2, epochs=2, batch_size=16, learning_rate=0.005, dtype=np.float32
    )
    step = per_rank_training(2) if rank_mode == "loop" else contextlib.nullcontext()
    with step:
        trainer.fit(model, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(8))
    for p in model.parameters():
        assert p.grad is None or p.grad.dtype == model.dtype
