"""Unit tests for the skip-connection graph network builder."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.dataparallel import DataParallelTrainer
from repro.nn import GraphNetwork, Tensor
from repro.nn.graph_network import ArchitectureSpec, NodeOp


def make_net(node_ops, skips=frozenset(), input_dim=6, n_classes=3, seed=0):
    return GraphNetwork(
        ArchitectureSpec(tuple(node_ops), frozenset(skips)),
        input_dim,
        n_classes,
        np.random.default_rng(seed),
    )


# --------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------- #
def test_nodeop_identity_requires_both_none():
    with pytest.raises(ValueError):
        NodeOp(32, None)
    with pytest.raises(ValueError):
        NodeOp(None, "relu")


def test_nodeop_rejects_nonpositive_units():
    with pytest.raises(ValueError):
        NodeOp(0, "relu")


def test_spec_rejects_consecutive_skip():
    # (1, 2) duplicates the sequential edge between node 1 and node 2.
    with pytest.raises(ValueError):
        ArchitectureSpec((NodeOp(8, "relu"), NodeOp(8, "relu")), frozenset({(1, 2)}))


def test_spec_rejects_out_of_range_skip():
    with pytest.raises(ValueError):
        ArchitectureSpec((NodeOp(8, "relu"),), frozenset({(0, 5)}))


def test_spec_active_depth_counts_non_identity():
    spec = ArchitectureSpec((NodeOp(8, "relu"), NodeOp(None, None), NodeOp(4, "tanh")))
    assert spec.active_depth() == 2


# --------------------------------------------------------------------- #
# Construction / shapes
# --------------------------------------------------------------------- #
def test_forward_output_shape():
    net = make_net([NodeOp(16, "relu"), NodeOp(8, "tanh")])
    out = net.forward(np.zeros((5, 6)))
    assert out.shape == (5, 3)


def test_all_identity_network_is_affine():
    """Identity ops with no skips collapse to a single linear map."""
    net = make_net([NodeOp(None, None)] * 3)
    x = np.random.default_rng(1).normal(size=(10, 6))
    a = net.forward(x).data
    b = net.forward(2.0 * x).data
    c = net.forward(np.zeros((10, 6))).data
    np.testing.assert_allclose(2.0 * (a - c), b - c, rtol=1e-10)


def test_param_count_no_skips():
    net = make_net([NodeOp(16, "relu"), NodeOp(8, "tanh")], input_dim=6, n_classes=3)
    expected = (6 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3)
    assert net.num_parameters() == expected


def test_param_count_with_skip_projection():
    # Skip (0, 2): projects input (6) to width of node 1 (16).
    net = make_net(
        [NodeOp(16, "relu"), NodeOp(8, "tanh")], skips={(0, 2)}, input_dim=6, n_classes=3
    )
    base = (6 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3)
    assert net.num_parameters() == base + (6 * 16 + 16)


def test_skip_changes_output():
    """An active skip must alter the function computed."""
    x = np.random.default_rng(2).normal(size=(4, 6))
    plain = make_net([NodeOp(16, "relu"), NodeOp(8, "tanh")], seed=3).forward(x).data
    skipped = make_net(
        [NodeOp(16, "relu"), NodeOp(8, "tanh")], skips={(0, 2)}, seed=3
    ).forward(x).data
    assert not np.allclose(plain, skipped)


def test_skip_through_identity_node_width_propagates():
    """Identity node keeps its input width; projections must target it."""
    net = make_net(
        [NodeOp(16, "relu"), NodeOp(None, None), NodeOp(8, "swish")],
        skips={(0, 3), (1, 4)},
    )
    out = net.forward(np.zeros((2, 6)))
    assert out.shape == (2, 3)


def test_skip_into_output_node():
    net = make_net([NodeOp(12, "relu"), NodeOp(12, "relu"), NodeOp(12, "relu")], skips={(1, 4)})
    assert net.forward(np.zeros((2, 6))).shape == (2, 3)


def test_input_width_mismatch_raises():
    net = make_net([NodeOp(8, "relu")])
    with pytest.raises(ValueError):
        net.forward(np.zeros((3, 7)))


def test_invalid_dims_raise():
    spec = ArchitectureSpec((NodeOp(8, "relu"),))
    with pytest.raises(ValueError):
        GraphNetwork(spec, 0, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        GraphNetwork(spec, 5, 1, np.random.default_rng(0))


# --------------------------------------------------------------------- #
# Gradients flow everywhere
# --------------------------------------------------------------------- #
def test_all_parameters_receive_gradients():
    net = make_net(
        [NodeOp(16, "relu"), NodeOp(None, None), NodeOp(8, "swish")],
        skips={(0, 2), (0, 3), (1, 4)},
    )
    x = np.random.default_rng(0).normal(size=(8, 6))
    out = net.forward(x)
    out.sum().backward()
    for p in net.parameters():
        assert p.grad is not None, f"parameter {p.name} got no gradient"
        assert np.isfinite(p.grad).all()


def test_deterministic_build_per_seed():
    a = make_net([NodeOp(8, "relu")], seed=9)
    b = make_net([NodeOp(8, "relu")], seed=9)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


# --------------------------------------------------------------------- #
# Inference helpers
# --------------------------------------------------------------------- #
def test_predict_logits_batched_matches_full():
    net = make_net([NodeOp(16, "relu")])
    x = np.random.default_rng(4).normal(size=(50, 6))
    full = net.forward(x).data
    batched = net.predict_logits(x, batch_size=7)
    np.testing.assert_allclose(full, batched, rtol=1e-12)


def test_predict_logits_empty_input():
    net = make_net([NodeOp(16, "relu")])
    out = net.predict_logits(np.zeros((0, 6)))
    assert out.shape == (0, 3)


def test_predict_returns_class_indices():
    net = make_net([NodeOp(16, "relu")])
    preds = net.predict(np.random.default_rng(5).normal(size=(9, 6)))
    assert preds.shape == (9,)
    assert set(np.unique(preds)) <= {0, 1, 2}


def test_get_set_weights_roundtrip():
    net = make_net([NodeOp(16, "relu"), NodeOp(8, "tanh")], skips={(0, 2)})
    x = np.random.default_rng(6).normal(size=(4, 6))
    before = net.forward(x).data.copy()
    weights = net.get_weights()
    for p in net.parameters():
        p.data += 1.0
    assert not np.allclose(net.forward(x).data, before)
    net.set_weights(weights)
    np.testing.assert_allclose(net.forward(x).data, before)


def test_set_weights_shape_mismatch():
    net = make_net([NodeOp(16, "relu")])
    weights = net.get_weights()
    weights[0] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        net.set_weights(weights)


def test_set_weights_length_mismatch():
    net = make_net([NodeOp(16, "relu")])
    with pytest.raises(ValueError):
        net.set_weights(net.get_weights()[:-1])


def test_forward_accepts_tensor_input():
    net = make_net([NodeOp(8, "relu")])
    out = net.forward(Tensor(np.zeros((2, 6))))
    assert out.shape == (2, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_logits_zero_rows_keep_model_dtype(dtype):
    net = GraphNetwork(
        ArchitectureSpec((NodeOp(8, "relu"),)), 6, 3, np.random.default_rng(0), dtype=dtype
    )
    for out in (net.predict_logits(np.zeros((0, 6))),
                net.compile().predict_logits(np.zeros((0, 6)))):
        assert out.shape == (0, 3)
        assert out.dtype == dtype


# --------------------------------------------------------------------- #
# Flat parameter layout
# --------------------------------------------------------------------- #
def _assert_params_tile_flat(net):
    params = net.parameters()
    assert net._flat.size == sum(p.size for p in params)
    offset = 0
    for p in params:
        assert np.shares_memory(p.data, net._flat)
        np.testing.assert_array_equal(p.data.ravel(), net._flat[offset : offset + p.size])
        offset += p.size


def _skip_net(seed=0):
    return make_net(
        [NodeOp(8, "relu"), NodeOp(None, None), NodeOp(5, "swish")],
        skips={(0, 2), (1, 4)},
        seed=seed,
    )


@pytest.mark.parametrize("how", ["pickle", "deepcopy", "set_weights"])
def test_parameters_stay_views_of_flat_vector(how):
    net = _skip_net()
    net.compile()  # a cached plan must not break copying
    _assert_params_tile_flat(net)
    if how == "pickle":
        twin = pickle.loads(pickle.dumps(net))
    elif how == "deepcopy":
        twin = copy.deepcopy(net)
    else:
        twin = _skip_net(seed=1)
        twin.set_weights(net.get_weights())
    _assert_params_tile_flat(twin)
    assert not np.shares_memory(twin._flat, net._flat)
    for a, b in zip(twin.get_weights(), net.get_weights()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_training_a_copy_matches_training_the_original(how):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((96, 6))
    y = rng.integers(0, 3, size=96)
    net = _skip_net()
    twin = pickle.loads(pickle.dumps(net)) if how == "pickle" else copy.deepcopy(net)
    before = twin.get_weights()
    for model in (net, twin):
        DataParallelTrainer(num_ranks=2, epochs=2, batch_size=16).fit(
            model, X[:64], y[:64], X[64:], y[64:], np.random.default_rng(4)
        )
    assert any(not np.array_equal(a, b) for a, b in zip(twin.get_weights(), before))
    for a, b in zip(twin.get_weights(), net.get_weights()):
        assert a.tobytes() == b.tobytes()
