"""Vectorized hot paths vs their references, and precision plumbing.

Covers the three satellite guarantees of the perf work: the level-
synchronous forest grower and the batched forest walks are bit-identical
to the per-node oracle in ``forest_oracle.py`` (node tables and (μ, σ)),
the reference tape's ``no_grad`` stays thread-local so a concurrent
inference pass cannot disable taping on another thread, and float32 survives end-to-end
through tensors, networks and compiled plans (no silent float64
upcasts on the training path).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_oracle import ReferenceForest, grow_reference, predict_recursive, predict_reference
from repro.bo import BayesianOptimizer
from repro.bo.forest import RandomForestRegressor, RegressionTree
from repro.nn import GraphNetwork
from repro.nn.graph_network import ArchitectureSpec, NodeOp
from repro.searchspace import default_dataparallel_space

from reference.autograd import Tensor, is_grad_enabled, no_grad
from reference.eager import eager_forward, eager_loss_and_grads


def _forest_data(seed: int = 0, n: int = 250, d: int = 3):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X[:, -1] = np.round(X[:, -1] * 2) / 2  # ties stress stable ordering
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    return X, y


def _assert_bitwise(got, ref):
    for a, b in zip(got, ref, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _table(model):
    return model.feature_, model.threshold_, model.left_, model.right_, model.value_


# --------------------------------------------------------------------- #
# Forest: level-synchronous grower and batched walks vs the oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grower_matches_oracle_tree(seed):
    X, y = _forest_data(seed)
    tree = RegressionTree(max_depth=9).fit(X, y, np.random.default_rng(seed))
    ref = grow_reference(X, y, np.random.default_rng(seed), max_depth=9)
    _assert_bitwise(_table(tree), ref)


def test_tree_levelwalk_matches_recursive():
    X, y = _forest_data(3)
    tree = RegressionTree(max_depth=9).fit(X, y, np.random.default_rng(3))
    Xq = np.random.default_rng(4).standard_normal((333, 3))
    np.testing.assert_array_equal(tree.predict(Xq), predict_recursive(tree, Xq))


def test_forest_batched_predict_matches_reference():
    X, y = _forest_data(5)
    forest = RandomForestRegressor(n_trees=25, max_depth=9).fit(X, y, np.random.default_rng(5))
    Xq = np.random.default_rng(6).standard_normal((1024, 3))
    _assert_bitwise(forest.predict(Xq), predict_reference(forest, Xq))


def test_forest_grower_matches_oracle():
    X, y = _forest_data(7)
    forest = RandomForestRegressor(n_trees=10).fit(X, y, np.random.default_rng(9))
    ref = ReferenceForest(n_trees=10).fit(X, y, np.random.default_rng(9))
    _assert_bitwise(_table(forest), _table(ref))


def test_ask_with_oracle_forest_proposes_identical_batch():
    """The whole BO ask (sampling, fit, predict, liar refits) is unchanged
    when the oracle stands in for the production forest."""
    space = default_dataparallel_space()
    cfg_rng = np.random.default_rng(0)
    configs = [space.sample(cfg_rng) for _ in range(15)]
    values = list(np.random.default_rng(1).random(15))

    class OracleOptimizer(BayesianOptimizer):
        def _fit_surrogate(self, X, y):
            return ReferenceForest(n_trees=8, max_depth=6).fit(X, y, self._rng)

    batches = []
    for cls in (BayesianOptimizer, OracleOptimizer):
        opt = cls(space, seed=2, forest=RandomForestRegressor(n_trees=8, max_depth=6))
        opt.tell(configs, values)
        batches.append(opt.ask(3))
    assert batches[0] == batches[1]


@st.composite
def _forest_cases(draw):
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if draw(st.booleans()):
        X = np.round(X)  # heavy ties
    for col in range(1, d):
        kind = draw(st.sampled_from(["free", "duplicate", "constant"]))
        if kind == "duplicate":
            X[:, col] = X[:, draw(st.integers(0, col - 1))]
        elif kind == "constant":
            X[:, col] = 0.5
    y = np.full(n, 0.25) if draw(st.booleans()) else rng.standard_normal(n)
    params = dict(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 12)),
        min_samples_split=draw(st.integers(2, 5)),
        max_features=draw(st.integers(1, d)),
        bootstrap=draw(st.booleans()),
    )
    return X, y, seed, params


@given(case=_forest_cases())
@settings(max_examples=150, deadline=None)
def test_grower_matches_oracle_property(case):
    X, y, seed, params = case
    forest = RandomForestRegressor(**params).fit(X, y, np.random.default_rng(seed))
    ref = ReferenceForest(**params).fit(X, y, np.random.default_rng(seed))
    _assert_bitwise(_table(forest), _table(ref))
    Xq = np.random.default_rng(seed + 1).standard_normal((40, X.shape[1]))
    Xq[: min(7, len(X))] = X[:7]  # rows sitting exactly on training values
    _assert_bitwise(forest.predict(Xq), ref.predict(Xq))


# --------------------------------------------------------------------- #
# no_grad thread isolation
# --------------------------------------------------------------------- #
def test_no_grad_is_thread_local():
    entered = threading.Event()
    release = threading.Event()
    seen_inside_other_thread = []

    def inference_thread():
        with no_grad():
            entered.set()
            release.wait(timeout=10)
            seen_inside_other_thread.append(is_grad_enabled())

    t = threading.Thread(target=inference_thread)
    t.start()
    assert entered.wait(timeout=10)
    # The other thread is inside no_grad(); this thread must still tape.
    assert is_grad_enabled()
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    (x * 2.0).sum().backward()
    assert x.grad is not None
    release.set()
    t.join(timeout=10)
    assert seen_inside_other_thread == [False]


# --------------------------------------------------------------------- #
# dtype preservation
# --------------------------------------------------------------------- #
def test_tensor_ops_preserve_float32():
    x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    for t in (x + 1.0, x * 0.5, x - 2.0, 1.0 - x, x.relu(), x.tanh(), x.sigmoid(),
              x @ x, x.sum(), x.mean()):
        assert t.data.dtype == np.float32, t.data.dtype
    loss = (x * 3.0).sum()
    loss.backward()
    assert x.grad.dtype == np.float32


def test_network_and_plan_preserve_float32():
    spec = ArchitectureSpec(
        node_ops=(NodeOp(16, "swish"), NodeOp(None, None), NodeOp(24, "relu")),
        skips=frozenset({(0, 2), (1, 4)}),
    )
    model = GraphNetwork(spec, 8, 3, np.random.default_rng(0), dtype=np.float32)
    assert all(p.data.dtype == np.float32 for p in model.parameters())

    rng = np.random.default_rng(1)
    X = rng.standard_normal((32, 8)).astype(np.float32)
    y = rng.integers(0, 3, size=32)

    assert eager_forward(model, X).data.dtype == np.float32
    _, grads = eager_loss_and_grads(model, X, y)
    assert all(g.dtype == np.float32 for g in grads)

    plan = model.compile()
    plan.loss_and_grad(X, y)
    assert all(g.dtype == np.float32 for g in plan.mean_grad_views)
    assert plan.predict_logits(X).dtype == np.float32
    assert model.predict_logits(X.astype(np.float64)).dtype == np.float32


def test_float32_initializers_match_float64_draws():
    """Same seed gives the same weights at either precision (cast, not redrawn)."""
    spec = ArchitectureSpec(node_ops=(NodeOp(16, "relu"),))
    m64 = GraphNetwork(spec, 8, 3, np.random.default_rng(2), dtype=np.float64)
    m32 = GraphNetwork(spec, 8, 3, np.random.default_rng(2), dtype=np.float32)
    for p64, p32 in zip(m64.parameters(), m32.parameters()):
        np.testing.assert_array_equal(p64.data.astype(np.float32), p32.data)
