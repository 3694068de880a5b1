"""Cross-module property tests: any valid encoding must build, run and train."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import GraphNetwork
from repro.searchspace import ArchitectureSpace, mutate_architecture

from reference.autograd import Tensor
from reference.eager import EagerNetwork
from reference.losses import softmax_cross_entropy


@given(seed=st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_any_sampled_architecture_builds_and_runs(seed):
    """Every point of H_a yields a working network with finite outputs."""
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=4)
    vec = space.random_sample(rng)
    net = GraphNetwork(space.decode(vec), input_dim=7, n_classes=3, rng=rng)
    x = rng.normal(size=(6, 7))
    out = net.predict_logits(x)
    assert out.shape == (6, 3)
    assert np.isfinite(out).all()
    assert net.num_parameters() >= 7 * 3 + 3  # at least the output layer


@given(seed=st.integers(0, 2_000))
@settings(max_examples=25, deadline=None)
def test_any_sampled_architecture_has_trainable_loss(seed):
    """One gradient step strictly decreases the loss on a fixed batch."""
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=3)
    net = GraphNetwork(space.decode(space.random_sample(rng)), 5, 3, rng)
    x = rng.normal(size=(16, 5))
    y = rng.integers(0, 3, size=16)
    plan = net.compile()
    loss0 = plan.loss_and_grad(x, y)
    # Step small enough for the first-order decrease to dominate the
    # curvature term regardless of the sampled architecture.
    step = 1e-3 / max(1.0, float(np.abs(plan.mean_grad_flat).max()))
    for p, g in zip(net.parameters(), plan.mean_grad_views):
        p.data -= step * g
    loss1 = plan.loss_and_grad(x, y)
    # Gradient descent with a sufficiently small step cannot increase the
    # loss beyond float noise (identity-only networks may have zero grad
    # for some parameters, but the output layer always learns).
    assert loss1 <= loss0 + 1e-9


def test_every_op_index_builds(small_space, rng):
    """All 31 ops are constructible inside a network."""
    for idx in range(small_space.num_ops):
        vec = np.zeros(small_space.num_variables, dtype=np.int64)
        vec[0] = idx
        net = GraphNetwork(small_space.decode(vec), 4, 2, rng)
        out = net.predict_logits(np.zeros((2, 4)))
        assert out.shape == (2, 2)


@given(seed=st.integers(0, 1_000), steps=st.integers(1, 15))
@settings(max_examples=30, deadline=None)
def test_mutation_chain_stays_valid(seed, steps):
    """Arbitrary mutation chains never leave the space."""
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=5)
    vec = space.random_sample(rng)
    for _ in range(steps):
        vec = mutate_architecture(space, vec, rng)
    space.validate(vec)
    spec = space.decode(vec)
    np.testing.assert_array_equal(space.encode(spec), vec)


def test_many_class_softmax_stability():
    """355-class logits with extreme magnitudes stay finite (Dionis case)."""
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(32, 355)) * 1e4, requires_grad=True)
    loss = softmax_cross_entropy(logits, rng.integers(0, 355, size=32))
    assert np.isfinite(loss.item())
    loss.backward()
    assert np.isfinite(logits.grad).all()


def test_skip_heavy_architecture_gradient_flow(rng):
    """A fully skip-connected deep network backpropagates everywhere."""
    space = ArchitectureSpace(num_nodes=6)
    vec = space.random_sample(rng)
    vec[space.num_nodes :] = 1  # activate every skip
    # Force all nodes to be dense (no identities) for maximal structure.
    vec[: space.num_nodes] = rng.integers(0, space.num_ops - 1, size=space.num_nodes)
    net = GraphNetwork(space.decode(vec), 9, 4, rng)
    x = rng.normal(size=(8, 9))
    eager = EagerNetwork(net)
    loss = softmax_cross_entropy(eager(x), rng.integers(0, 4, size=8))
    loss.backward()
    missing = [p.name for p in eager.parameters() if p.grad is None]
    assert not missing, f"parameters without gradient: {missing}"
