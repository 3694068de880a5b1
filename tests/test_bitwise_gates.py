"""Bitwise gates for the compiled training step.

The branchless activation kernels and the flat-vector Adam must reproduce
their references byte for byte, not to a tolerance:

1. compiled ``predict_logits`` against the eager forward, on random
   architectures in both dtypes, with inputs seeded with NaN, ±inf, ±0.0,
   subnormals and magnitudes past ``exp``'s overflow point;
2. the flat Adam against the per-tensor oracle (``reference/adam.py``)
   over random shape lists, step counts and learning-rate changes;
3. whole ``ModelEvaluation`` calls with the production kernels against the
   same calls with the oracles monkeypatched in.

The property tests take their example count from the loaded hypothesis
profile; CI reruns this file under ``HYPOTHESIS_PROFILE=ci`` (5x).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataparallel.trainer as dp_trainer
import repro.nn.compiled as compiled
from repro.core import ModelEvaluation
from repro.core.config import ModelConfig
from repro.datasets import load_dataset
from repro.nn import Adam, GraphNetwork, Tensor
from repro.searchspace import ArchitectureSpace

from reference.activations import relu_masked_into, sigmoid_masked_into
from reference.adam import ReferenceAdam

DTYPES = [np.float32, np.float64]


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _special_values(dtype) -> np.ndarray:
    tiny = np.finfo(dtype).smallest_subnormal
    return np.array(
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 3 * tiny,
         760.0, -760.0, 1e4, -1e4], dtype=dtype,
    )


def _seeded_input(rng: np.random.Generator, shape, dtype, special_share: float) -> np.ndarray:
    X = (rng.standard_normal(shape) * rng.choice([0.5, 3.0, 40.0])).astype(dtype)
    hit = rng.random(shape) < special_share
    X[hit] = rng.choice(_special_values(dtype), size=int(hit.sum()))
    return X


# --------------------------------------------------------------------- #
# 1. Kernels and compiled forward vs the eager reference
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("dtype", DTYPES)
def test_activation_kernels_match_eager_and_masked_oracles(dtype):
    rng = np.random.default_rng(0)
    x = _seeded_input(rng, (64, 37), dtype, special_share=0.3)
    mask = np.empty(x.shape, dtype=bool)
    ref_mask = np.empty(x.shape, dtype=bool)

    relu = x.copy()
    compiled._relu_into(relu, mask)
    oracle = x.copy()
    relu_masked_into(oracle, ref_mask)
    assert _same_bytes(relu, Tensor(x).relu().data)
    assert _same_bytes(relu, oracle) and _same_bytes(mask, ref_mask)
    # fmax's unvectorized head/tail elements return -0.0 for (-0.0, 0.0).
    for n in range(1, 10):
        zeros = np.full(n, -0.0, dtype=dtype)
        compiled._relu_into(zeros, mask[0, :n])
        assert not np.signbit(zeros).any()

    scratch = np.empty_like(x)
    sig = np.empty_like(x)
    compiled._sigmoid_into(x, sig, scratch, mask)
    oracle = np.empty_like(x)
    sigmoid_masked_into(x, oracle, scratch, ref_mask)
    assert _same_bytes(sig, Tensor(x).sigmoid().data)
    # The masked oracle may flip a NaN's sign bit; elsewhere it agrees.
    finite = ~np.isnan(x)
    assert _same_bytes(sig[finite], oracle[finite])

    aliased = x.copy()
    compiled._sigmoid_into(aliased, aliased, scratch, mask)
    assert _same_bytes(aliased, sig)


@given(
    seed=st.integers(0, 10_000),
    dtype=st.sampled_from(DTYPES),
    num_nodes=st.integers(1, 6),
    rows=st.integers(1, 70),
    special_share=st.sampled_from([0.0, 0.05, 0.3]),
)
@settings(deadline=None)
def test_compiled_predict_matches_eager_forward_bitwise(seed, dtype, num_nodes, rows,
                                                        special_share):
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=num_nodes)
    spec = space.decode(space.random_sample(rng))
    n_features = int(rng.integers(1, 12))
    model = GraphNetwork(spec, n_features, int(rng.integers(2, 6)), rng, dtype=dtype)
    X = _seeded_input(rng, (rows, n_features), dtype, special_share)
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf are part of the point
        assert _same_bytes(model.compile().predict_logits(X), model.forward(X).data)


# --------------------------------------------------------------------- #
# 2. Flat Adam vs the per-tensor oracle
# --------------------------------------------------------------------- #
shapes = st.lists(
    st.one_of(
        st.tuples(st.integers(1, 9)),
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
    ),
    min_size=1,
    max_size=6,
)


@given(
    shape_list=shapes,
    steps=st.integers(1, 30),
    dtype=st.sampled_from(DTYPES),
    flat_grads=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(deadline=None)
def test_flat_adam_matches_per_tensor_oracle_bitwise(shape_list, steps, dtype,
                                                     flat_grads, seed):
    rng = np.random.default_rng(seed)
    init = [rng.standard_normal(s).astype(dtype) for s in shape_list]
    params = [Tensor(w.copy(), requires_grad=True) for w in init]
    ref_params = [Tensor(w.copy(), requires_grad=True) for w in init]
    opt = Adam(params, lr=0.01)
    ref = ReferenceAdam(ref_params, lr=0.01)
    for step in range(steps):
        # Warmup ramp, then plateau-style cuts: lr changes between steps.
        lr = 0.01 * (step + 1) / 5 if step < 5 else 0.01 * 0.1 ** (step // 10)
        opt.lr = ref.lr = lr
        grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                 for s in shape_list]
        if flat_grads:
            opt.apply_gradients(np.concatenate([g.ravel() for g in grads]))
        else:
            opt.apply_gradients(grads)
        ref.apply_gradients(grads)
        for p, q in zip(params, ref_params):
            assert _same_bytes(p.data, q.data)


def test_adam_rehomes_a_plain_parameter_list_into_one_vector():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([1.0, -1.0]), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    assert np.shares_memory(a.data, opt._flat) and np.shares_memory(b.data, opt._flat)
    np.testing.assert_array_equal(a.data, np.arange(6.0).reshape(2, 3))
    # A model's parameters are already laid out: Adam adopts its vector.
    space = ArchitectureSpace(num_nodes=2)
    spec = space.decode(space.random_sample(np.random.default_rng(0)))
    model = GraphNetwork(spec, 4, 3, np.random.default_rng(0))
    assert Adam(model.parameters(), lr=0.1)._flat is model._flat


def test_adam_rejects_partial_gradients_and_bad_flat_shape():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    a.grad = np.ones(3)
    with pytest.raises(ValueError):
        opt.step()
    with pytest.raises(ValueError):
        opt.apply_gradients(np.ones(4))


# --------------------------------------------------------------------- #
# 3. Whole evaluations: production step vs the oracles
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def covertype():
    return load_dataset("covertype", size=600)


def _evaluate(dataset, config, dtype):
    models = []

    class Recording(ModelEvaluation):
        def build_model(self, config, rng):
            models.append(super().build_model(config, rng))
            return models[-1]

    space = ArchitectureSpace(num_nodes=4)
    evaluation = Recording(dataset, space, epochs=3, warmup_epochs=1, dtype=dtype)
    result = evaluation(config)
    return result, models[0].get_weights()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed,num_ranks", [(0, 1), (1, 4), (2, 2), (3, 4)])
def test_model_evaluation_matches_oracle_step(covertype, monkeypatch, seed, num_ranks, dtype):
    space = ArchitectureSpace(num_nodes=4)
    config = ModelConfig(
        arch=space.random_sample(np.random.default_rng(seed)),
        hyperparameters={"learning_rate": 0.005, "batch_size": 32, "num_ranks": num_ranks},
    )
    result, weights = _evaluate(covertype, config, dtype)

    monkeypatch.setattr(compiled, "_relu_into", relu_masked_into)
    monkeypatch.setattr(compiled, "_sigmoid_into", sigmoid_masked_into)
    monkeypatch.setattr(dp_trainer, "Adam", ReferenceAdam)
    ref_result, ref_weights = _evaluate(covertype, config, dtype)

    assert result.objective == ref_result.objective
    assert (result.metadata["epoch_val_accuracies"]
            == ref_result.metadata["epoch_val_accuracies"])
    assert all(_same_bytes(w, r) for w, r in zip(weights, ref_weights))
