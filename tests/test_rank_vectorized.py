"""Equivalence gates for the rank-vectorized data-parallel path.

Three layers are pinned to their references:

1. :meth:`CompiledPlan.loss_and_grads_ranked` (one fused multi-rank pass)
   against a loop of per-rank :meth:`CompiledPlan.loss_and_grad` calls;
2. the flat-buffer :class:`RingReducer` / :func:`ring_allreduce` against
   the chunked-list :func:`ring_allreduce_reference` and the naive mean,
   under adversarial shapes (``n`` not dividing the flattened parameter
   count, tensors smaller than ``n``, the ``n = 1`` fast path);
3. ``DataParallelTrainer(rank_mode="batched")`` against the
   ``rank_mode="loop"`` reference over full multi-epoch runs.

All gates are 1e-10 or tighter; in practice the paths agree bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataparallel import (
    DataParallelTrainer,
    FlatTopKCompressor,
    RingReducer,
    TopKCompressor,
    allreduce_mean,
    allreduce_mean_flat,
    compressed_allreduce_mean,
    compressed_allreduce_mean_flat,
    flatten_gradients,
    gradient_segments,
    ring_allreduce,
    ring_allreduce_reference,
)
from repro.nn.graph_network import GraphNetwork
from repro.searchspace import ArchitectureSpace

from conftest import make_blobs


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
# 2. Flat ring vs chunked-list reference vs mean — adversarial shapes
# --------------------------------------------------------------------- #
@given(seed=st.integers(0, 200), num_ranks=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_flat_ring_matches_reference_on_random_architectures(seed, num_ranks):
    """Gradient lists shaped like real sampled models reduce identically."""
    model = random_model(seed % 20, num_nodes=3)
    shapes = [p.data.shape for p in model.parameters()]
    rng = np.random.default_rng(seed)
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(num_ranks)]
    fast = ring_allreduce(grads)
    ref = ring_allreduce_reference(grads)
    mean = allreduce_mean(grads)
    for a, b, c in zip(fast, ref, mean):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
        np.testing.assert_allclose(a, c, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "shapes,num_ranks",
    [
        ([(3,), (2, 2)], 4),     # P=7: n does not divide the parameter count
        ([(2,)], 7),             # a tensor smaller than the rank count
        ([(1,)], 8),             # single scalar parameter, eight ranks
        ([(5, 3), (3,)], 1),     # n=1 fast path
        ([(13,)], 5),            # prime sizes on both axes
    ],
)
def test_flat_ring_adversarial_shapes(shapes, num_ranks):
    rng = np.random.default_rng(99)
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(num_ranks)]
    fast = ring_allreduce(grads)
    ref = ring_allreduce_reference(grads)
    mean = allreduce_mean(grads)
    for a, b, c in zip(fast, ref, mean):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, c, rtol=1e-10, atol=1e-12)


def test_ring_reducer_reuse_and_validation():
    rng = np.random.default_rng(3)
    flat = rng.normal(size=(4, 11))
    reducer = RingReducer(4, 11)
    out = np.empty(11)
    for _ in range(3):  # workspace reuse must not leak state across calls
        reducer.reduce(flat, out=out)
        np.testing.assert_allclose(out, flat.mean(axis=0), rtol=1e-12)
    with pytest.raises(ValueError):
        reducer.reduce(rng.normal(size=(3, 11)))
    with pytest.raises(ValueError):
        RingReducer(0, 5)
    with pytest.raises(ValueError):
        RingReducer(2, 0)


def test_allreduce_mean_flat_matches_list_mean():
    rng = np.random.default_rng(4)
    shapes = [(4, 3), (5,), (2, 2)]
    grads = [[rng.normal(size=s) for s in shapes] for _ in range(5)]
    flat, segments = flatten_gradients(grads)
    fm = allreduce_mean_flat(flat)
    packed = np.concatenate([t.ravel() for t in allreduce_mean(grads)])
    np.testing.assert_array_equal(fm, packed)
    assert segments == gradient_segments(grads[0])


# --------------------------------------------------------------------- #
# 3. Dtype stability (float32 must not silently upcast)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("reduce_fn", [allreduce_mean, ring_allreduce, ring_allreduce_reference])
def test_reductions_preserve_float32(reduce_fn):
    rng = np.random.default_rng(5)
    grads = [
        [rng.normal(size=(4, 3)).astype(np.float32), rng.normal(size=(3,)).astype(np.float32)]
        for _ in range(4)
    ]
    out = reduce_fn(grads)
    assert all(g.dtype == np.float32 for g in out)
    # float64 inputs stay float64
    grads64 = [[g.astype(np.float64) for g in rank] for rank in grads]
    assert all(g.dtype == np.float64 for g in reduce_fn(grads64))


def test_flat_reductions_preserve_float32():
    rng = np.random.default_rng(6)
    flat = rng.normal(size=(4, 9)).astype(np.float32)
    assert allreduce_mean_flat(flat).dtype == np.float32
    assert RingReducer(4, 9).reduce(flat).dtype == np.float32


@pytest.mark.parametrize("rank_mode", ["batched", "loop"])
def test_trainer_float32_keeps_adam_dtype_stable(rank_mode):
    """float32 training must feed float32 gradients into the update."""
    X, y = make_blobs(np.random.default_rng(7), n=200)
    model = random_model(3, d=8, classes=3)
    trainer = DataParallelTrainer(
        num_ranks=2, epochs=2, batch_size=16, learning_rate=0.005,
        allreduce="ring", rank_mode=rank_mode, dtype=np.float32,
    )
    trainer.fit(model, X[:160], y[:160], X[160:], y[160:], np.random.default_rng(8))
    for p in model.parameters():
        assert p.grad is None or p.grad.dtype == model.dtype


# --------------------------------------------------------------------- #
# 4. Trainer: batched rank mode vs the loop reference
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("allreduce", ["ring", "mean"])
@pytest.mark.parametrize("num_ranks", [2, 4, 8])
def test_batched_trainer_matches_loop_reference(allreduce, num_ranks):
    """Multi-epoch runs agree on losses, accuracies and final weights."""
    X, y = make_blobs(np.random.default_rng(10), n=600)

    def run(rank_mode):
        model = random_model(5, d=8, classes=3)
        result = DataParallelTrainer(
            num_ranks=num_ranks, epochs=4, batch_size=16, learning_rate=0.005,
            allreduce=allreduce, rank_mode=rank_mode,
        ).fit(model, X[:480], y[:480], X[480:], y[480:], np.random.default_rng(12))
        return result, model.get_weights()

    batched, w_batched = run("batched")
    loop, w_loop = run("loop")
    np.testing.assert_allclose(
        batched.epoch_train_losses, loop.epoch_train_losses, rtol=0, atol=1e-10
    )
    assert batched.epoch_val_accuracies == loop.epoch_val_accuracies
    for a, b in zip(w_batched, w_loop):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


def test_batched_trainer_matches_loop_on_eager_backend():
    """The eager backend has no batched kernels: both modes take the loop."""
    X, y = make_blobs(np.random.default_rng(13), n=300)

    def run(rank_mode):
        model = random_model(6, d=8, classes=3)
        result = DataParallelTrainer(
            num_ranks=2, epochs=2, batch_size=16, learning_rate=0.005,
            backend="eager", rank_mode=rank_mode,
        ).fit(model, X[:240], y[:240], X[240:], y[240:], np.random.default_rng(14))
        return result, model.get_weights()

    a, wa = run("batched")
    b, wb = run("loop")
    assert a.epoch_train_losses == b.epoch_train_losses
    for x, z in zip(wa, wb):
        np.testing.assert_array_equal(x, z)


def test_batched_trainer_degenerate_shards_fall_back():
    """Shards shorter than one micro-batch use the reference loop path."""
    X, y = make_blobs(np.random.default_rng(15), n=60)

    def run(rank_mode):
        model = random_model(7, d=8, classes=3)
        result = DataParallelTrainer(
            num_ranks=4, epochs=2, batch_size=32, learning_rate=0.005,
            rank_mode=rank_mode,
        ).fit(model, X[:48], y[:48], X[48:], y[48:], np.random.default_rng(16))
        return result

    a = run("batched")
    b = run("loop")
    assert a.epoch_train_losses == b.epoch_train_losses


# --------------------------------------------------------------------- #
# 5. Flat compression vs the per-rank reference
# --------------------------------------------------------------------- #
@given(ratio=st.floats(0.05, 1.0), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_flat_compression_matches_per_rank_reference(ratio, seed):
    rng = np.random.default_rng(seed)
    shapes = [(4, 3), (7,), (3, 2)]
    num_ranks = 4
    ref_comps = [TopKCompressor(ratio) for _ in range(num_ranks)]
    segments = None
    flat_comp = None
    flat = None
    for _ in range(3):  # several rounds so error feedback must agree too
        grads = [[rng.normal(size=s) for s in shapes] for _ in range(num_ranks)]
        if flat_comp is None:
            flat, segments = flatten_gradients(grads)
            flat_comp = FlatTopKCompressor(ratio, segments, num_ranks)
        else:
            flatten_gradients(grads, out=flat)
        ref_mean = compressed_allreduce_mean(
            [c.compress(g) for c, g in zip(ref_comps, grads)]
        )
        flat_mean = compressed_allreduce_mean_flat(
            flat_comp.compress(flat), segments, num_ranks
        )
        packed = np.concatenate([t.ravel() for t in ref_mean])
        np.testing.assert_allclose(flat_mean, packed, rtol=0, atol=1e-12)


def test_flat_compressor_validation():
    segments = [(0, 6, (2, 3))]
    with pytest.raises(ValueError):
        FlatTopKCompressor(0.0, segments, 2)
    with pytest.raises(ValueError):
        FlatTopKCompressor(0.5, [], 2)
    with pytest.raises(ValueError):
        FlatTopKCompressor(0.5, segments, 0)
    comp = FlatTopKCompressor(0.5, segments, 2)
    with pytest.raises(ValueError):
        comp.compress(np.zeros((3, 6)))
    with pytest.raises(ValueError):
        compressed_allreduce_mean_flat([], segments, 2)
