"""Perf bench: compiled training plan vs the eager autograd tape.

Times the training hot path at three granularities — single train step,
full validation inference, and a whole :class:`ModelEvaluation` call —
with the compiled plan against the eager reference (the whole evaluation
runs on ``tests/reference/eager_trainer.py``), plus two kernels of
the compiled step against their oracles in ``tests/reference/``: the
flat-vector Adam update (``adam_step``) and the branchless activations
(``activations``).  Writes the before/after medians to
``BENCH_train.json`` at the repo root.

Timings are recorded, never asserted.  The only way this bench fails is
an equivalence gate: the compiled plan must reproduce the eager loss and
gradients to 1e-10 on the benched network, and the flat Adam and the
branchless activations must reproduce their oracles bitwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelEvaluation
from repro.core.config import ModelConfig
from repro.datasets import load_dataset
from repro.nn import Adam, GraphNetwork, Tensor, softmax_cross_entropy
from repro.nn.compiled import _relu_into, _sigmoid_into, assert_plan_equivalence
from repro.perf import BenchEntry, median_time, write_bench_json
from repro.searchspace import ArchitectureSpace

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tests"))
from reference.activations import relu_masked_into, sigmoid_masked_into  # noqa: E402
from reference.adam import ReferenceAdam  # noqa: E402
from reference.eager_trainer import eager_training  # noqa: E402

BATCH = 256
N_FEATURES = 54
N_CLASSES = 7
STEPS_PER_REP = 20


def _make_model(seed: int = 0, num_nodes: int = 5) -> GraphNetwork:
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=num_nodes)
    arch = space.random_sample(rng)
    spec = space.decode(arch)
    return GraphNetwork(spec, N_FEATURES, N_CLASSES, np.random.default_rng(seed))


def _make_batches(seed: int = 1, n: int = 4096):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, N_FEATURES))
    y = rng.integers(0, N_CLASSES, size=n)
    return X, y


def test_perf_train_step_and_evaluation():
    model = _make_model()
    X, y = _make_batches()
    Xb, yb = X[:BATCH], y[:BATCH]

    # --- equivalence gate (the only assertion in this bench) ----------- #
    diffs = assert_plan_equivalence(model, Xb, yb, tol=1e-10)
    assert diffs["loss_diff"] <= 1e-10 and diffs["grad_diff"] <= 1e-10

    # --- train step: eager tape vs compiled plan ----------------------- #
    def eager_steps():
        m = _make_model()
        opt = Adam(m.parameters(), lr=0.01)
        for i in range(STEPS_PER_REP):
            lo = (i * BATCH) % (X.shape[0] - BATCH)
            logits = m.forward(Tensor(X[lo : lo + BATCH]))
            loss = softmax_cross_entropy(logits, y[lo : lo + BATCH])
            opt.zero_grad()
            loss.backward()
            opt.step()

    def compiled_steps():
        m = _make_model()
        plan = m.compile()
        opt = Adam(m.parameters(), lr=0.01)
        for i in range(STEPS_PER_REP):
            lo = (i * BATCH) % (X.shape[0] - BATCH)
            plan.loss_and_grad(X[lo : lo + BATCH], y[lo : lo + BATCH])
            opt.apply_gradients(plan.mean_grad_flat)

    eager_s = median_time(eager_steps) / STEPS_PER_REP
    compiled_s = median_time(compiled_steps) / STEPS_PER_REP
    entries = [
        BenchEntry(
            "train_step",
            eager_s,
            compiled_s,
            meta={"batch_size": BATCH, "steps": STEPS_PER_REP, "num_nodes": 5},
        )
    ]

    # --- full-set inference: eager forward vs plan.predict_logits ------ #
    model_inf = _make_model()
    plan_inf = model_inf.compile()
    entries.append(
        BenchEntry(
            "predict_logits_4096",
            median_time(lambda: model_inf.predict_logits(X)),
            median_time(lambda: plan_inf.predict_logits(X)),
            meta={"rows": X.shape[0]},
        )
    )

    # --- whole evaluation call: eager tape vs compiled plan ------------- #
    ds = load_dataset("covertype", size=1500)
    space = ArchitectureSpace(num_nodes=5)
    arch = space.random_sample(np.random.default_rng(3))
    config = ModelConfig(
        arch=arch,
        hyperparameters={"learning_rate": 0.01, "batch_size": 256, "num_ranks": 1},
    )

    def run_eval():
        return ModelEvaluation(ds, space, epochs=3, nominal_epochs=20)(config)

    def run_eval_eager():
        with eager_training():
            return run_eval()

    eval_eager_s = median_time(run_eval_eager, repeats=3)
    eval_compiled_s = median_time(run_eval, repeats=3)
    entries.append(
        BenchEntry(
            "model_evaluation",
            eval_eager_s,
            eval_compiled_s,
            meta={"dataset": "covertype", "rows": 1500, "epochs": 3},
        )
    )

    entries.append(_bench_adam_step())
    entries.append(_bench_activations())

    out = write_bench_json(REPO_ROOT / "BENCH_train.json", "train", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e3:.2f} ms -> "
              f"opt {e.optimized_s * 1e3:.2f} ms ({e.speedup:.1f}x)")
    print(f"written: {out}")


def _bench_adam_step() -> BenchEntry:
    """Per-tensor oracle vs the flat-vector Adam, gated bitwise."""
    num_nodes = 10
    P = _make_model(num_nodes=num_nodes).num_parameters()
    rng = np.random.default_rng(5)
    grads = [rng.standard_normal(P) for _ in range(STEPS_PER_REP)]

    def run(opt_cls):
        model = _make_model(num_nodes=num_nodes)
        opt = opt_cls(model.parameters(), lr=0.01)
        for g in grads:
            opt.apply_gradients(g)
        return model, opt

    flat_model, _ = run(Adam)
    ref_model, _ = run(ReferenceAdam)
    for a, b in zip(flat_model.get_weights(), ref_model.get_weights()):
        assert a.tobytes() == b.tobytes(), "flat Adam diverged from the per-tensor oracle"

    def timed(opt_cls):
        _, opt = run(opt_cls)
        return lambda: [opt.apply_gradients(g) for g in grads]

    return BenchEntry(
        "adam_step",
        median_time(timed(ReferenceAdam)) / STEPS_PER_REP,
        median_time(timed(Adam)) / STEPS_PER_REP,
        meta={"params": P, "tensors": len(flat_model.parameters()), "steps": STEPS_PER_REP},
    )


def _bench_activations(shape=(BATCH, 80), reps: int = 50) -> BenchEntry:
    """Masked-copy ReLU + sigmoid vs the branchless kernels, gated bitwise."""
    x0 = np.random.default_rng(6).standard_normal(shape)
    x = np.empty_like(x0)
    out = np.empty_like(x0)
    scratch = np.empty_like(x0)
    mask = np.empty(shape, dtype=bool)

    def layer(relu, sigmoid):
        np.copyto(x, x0)  # ReLU is in place: restore the random signs
        relu(x, mask)
        sigmoid(x0, out, scratch, mask)

    layer(_relu_into, _sigmoid_into)
    fast = x.copy(), out.copy()
    layer(relu_masked_into, sigmoid_masked_into)
    for a, b in zip(fast, (x, out)):
        assert a.tobytes() == b.tobytes(), "branchless activation diverged from its oracle"

    def timed(relu, sigmoid):
        return lambda: [layer(relu, sigmoid) for _ in range(reps)]

    return BenchEntry(
        "activations",
        median_time(timed(relu_masked_into, sigmoid_masked_into)) / reps,
        median_time(timed(_relu_into, _sigmoid_into)) / reps,
        meta={"shape": list(shape), "kernels": ["relu", "sigmoid"], "dtype": "float64"},
    )


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
