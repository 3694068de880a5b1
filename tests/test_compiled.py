"""Compiled-plan equivalence: the traced path must match the eager tape.

The compiled plan replays the eager tape's exact op order with fused
kernels, so losses and gradients should agree to float64 round-off
(≤ 1e-10, typically exactly 0) — on single steps and over whole
multi-epoch training runs, for architectures covering every structural
feature the tracer handles: plain chains, identity ops (slot aliasing),
multi-source skips and skips into the output node.  Whole runs take the
production trainer's loop, once on the plan and once on the eager tape
(``reference/eager_trainer.py``).
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.dataparallel import DataParallelTrainer
from repro.nn import CompiledPlan, GraphNetwork
from repro.nn.graph_network import ArchitectureSpec, NodeOp
from repro.searchspace import ArchitectureSpace

from reference.eager import assert_plan_equivalence, eager_predict_logits
from reference.eager_trainer import eager_training

N_FEATURES = 10
N_CLASSES = 4

DENSE = NodeOp(24, "relu")
SPECS = {
    "plain_chain": ArchitectureSpec(
        node_ops=(NodeOp(16, "swish"), NodeOp(32, "tanh"), NodeOp(24, "sigmoid"))
    ),
    "identity_ops": ArchitectureSpec(
        node_ops=(NodeOp(None, None), NodeOp(16, "relu"), NodeOp(None, None), DENSE)
    ),
    "multi_skip": ArchitectureSpec(
        node_ops=(DENSE, NodeOp(16, "swish"), NodeOp(32, "tanh"), NodeOp(24, "relu")),
        skips=frozenset({(0, 2), (0, 3), (1, 4), (2, 4)}),
    ),
    "skip_to_output": ArchitectureSpec(
        node_ops=(NodeOp(16, "sigmoid"), NodeOp(None, None), NodeOp(32, "relu")),
        skips=frozenset({(0, 2), (1, 4), (2, 4)}),
    ),
}


def _data(seed: int = 0, n: int = 400):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, N_FEATURES))
    y = rng.integers(0, N_CLASSES, size=n)
    return X, y


def _backend(name: str):
    return eager_training() if name == "eager" else contextlib.nullcontext()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_single_step_equivalence(name):
    model = GraphNetwork(SPECS[name], N_FEATURES, N_CLASSES, np.random.default_rng(1))
    X, y = _data()
    diffs = assert_plan_equivalence(model, X[:64], y[:64], tol=1e-10)
    assert diffs["loss_diff"] <= 1e-10
    assert diffs["grad_diff"] <= 1e-10


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sampled_architecture_equivalence(seed):
    space = ArchitectureSpace(num_nodes=5)
    arch = space.random_sample(np.random.default_rng(seed))
    model = GraphNetwork(space.decode(arch), N_FEATURES, N_CLASSES, np.random.default_rng(seed))
    X, y = _data(seed)
    assert_plan_equivalence(model, X[:128], y[:128], tol=1e-10)


@pytest.mark.parametrize("mutation", ["doubled", "one_entry", "nan"])
def test_equivalence_gate_catches_a_wrong_plan_gradient(monkeypatch, mutation):
    """The gate reads the gradient the optimizer reads: a plan whose
    ``mean_grad_flat`` is off by more than the tolerance fails it."""
    loss_and_grad = CompiledPlan.loss_and_grad

    def perturbed(plan, X, y):
        loss = loss_and_grad(plan, X, y)
        if mutation == "doubled":
            plan.mean_grad_flat *= 2.0
        elif mutation == "one_entry":
            plan.mean_grad_flat[-1] += 1e-8
        else:
            plan.mean_grad_flat[0] = np.nan
        return loss

    model = GraphNetwork(SPECS["multi_skip"], N_FEATURES, N_CLASSES, np.random.default_rng(1))
    X, y = _data()
    assert_plan_equivalence(model, X[:64], y[:64], tol=1e-10)
    monkeypatch.setattr(CompiledPlan, "loss_and_grad", perturbed)
    with pytest.raises(AssertionError, match="divergence"):
        assert_plan_equivalence(model, X[:64], y[:64], tol=1e-10)


@pytest.mark.parametrize("name", ["identity_ops", "multi_skip"])
def test_five_epoch_training_equivalence(name):
    """Losses, per-epoch accuracies and final weights match over a full run."""
    X, y = _data(7)
    Xv, yv = _data(8, n=200)

    results = {}
    weights = {}
    for backend in ("eager", "compiled"):
        model = GraphNetwork(SPECS[name], N_FEATURES, N_CLASSES, np.random.default_rng(5))
        trainer = DataParallelTrainer(num_ranks=1, epochs=5, batch_size=64, learning_rate=0.01)
        with _backend(backend):
            results[backend] = trainer.fit(model, X, y, Xv, yv, np.random.default_rng(9))
        weights[backend] = model.get_weights()

    eager, compiled = results["eager"], results["compiled"]
    assert np.allclose(eager.epoch_train_losses, compiled.epoch_train_losses, atol=1e-10, rtol=0)
    assert eager.epoch_val_accuracies == compiled.epoch_val_accuracies
    assert eager.best_val_accuracy == compiled.best_val_accuracy
    for we, wc in zip(weights["eager"], weights["compiled"]):
        np.testing.assert_allclose(we, wc, atol=1e-10, rtol=0)


def test_dataparallel_backend_parity():
    """Multi-rank training (one step per global batch) agrees between
    the plan and the eager tape."""
    X, y = _data(11)
    Xv, yv = _data(12, n=200)
    results = {}
    weights = {}
    for backend in ("eager", "compiled"):
        model = GraphNetwork(SPECS["multi_skip"], N_FEATURES, N_CLASSES, np.random.default_rng(2))
        trainer = DataParallelTrainer(num_ranks=2, epochs=3, batch_size=64, learning_rate=0.01)
        with _backend(backend):
            results[backend] = trainer.fit(model, X, y, Xv, yv, np.random.default_rng(3))
        weights[backend] = model.get_weights()
    assert results["eager"].epoch_val_accuracies == results["compiled"].epoch_val_accuracies
    for we, wc in zip(weights["eager"], weights["compiled"]):
        np.testing.assert_allclose(we, wc, atol=1e-10, rtol=0)


def test_plan_is_cached_and_retraceable():
    model = GraphNetwork(SPECS["plain_chain"], N_FEATURES, N_CLASSES, np.random.default_rng(0))
    assert model.compile() is model.compile()


def test_compiled_network_is_freed_without_the_cycle_collector():
    """Network and plan form no reference cycle: a compiled network that
    ran a training step is freed by reference counting alone."""
    model = GraphNetwork(SPECS["multi_skip"], N_FEATURES, N_CLASSES, np.random.default_rng(0))
    X, y = _data(14, n=64)
    model.compile().loss_and_grad(X, y)
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_compiled_predict_logits_matches_eager():
    model = GraphNetwork(SPECS["skip_to_output"], N_FEATURES, N_CLASSES, np.random.default_rng(4))
    X, _ = _data(13, n=500)
    eager = eager_predict_logits(model, X, batch_size=128)
    np.testing.assert_array_equal(model.compile().predict_logits(X), eager)
    np.testing.assert_array_equal(model.predict_logits(X, batch_size=128), eager)
