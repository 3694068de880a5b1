"""Tests for history/model persistence and hyperparameter importance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import hyperparameter_importance, marginal_curve
from repro.core import (
    EvaluationRecord,
    ModelConfig,
    SearchHistory,
    load_history,
    load_model_weights,
    save_history,
    save_model_weights,
)
from repro.core.serialization import history_from_dict, history_to_dict
from repro.nn import GraphNetwork
from repro.nn.graph_network import ArchitectureSpec, NodeOp
from repro.searchspace import default_dataparallel_space


def make_history(n=20, seed=0):
    rng = np.random.default_rng(seed)
    space = default_dataparallel_space()
    h = SearchHistory(label="demo")
    for i in range(n):
        hp = space.sample(rng)
        # lr is what matters in this synthetic history.
        obj = 1.0 - abs(np.log10(hp["learning_rate"]) + 2.0) / 3.0
        h.add(
            EvaluationRecord(
                config=ModelConfig(rng.integers(0, 5, size=4), hp),
                objective=float(obj),
                duration=1.0,
                submit_time=float(i),
                start_time=float(i),
                end_time=float(i + 1),
                metadata={"num_params": 100 + i, "note": "x", "array": np.zeros(3)},
            )
        )
    return h


# --------------------------------------------------------------------- #
# History serialization
# --------------------------------------------------------------------- #
def test_history_roundtrip_dict():
    h = make_history()
    back = history_from_dict(history_to_dict(h))
    assert back.label == "demo"
    assert len(back) == len(h)
    np.testing.assert_allclose(back.objectives(), h.objectives())
    np.testing.assert_array_equal(back.records[3].config.arch, h.records[3].config.arch)
    assert back.records[0].config.hyperparameters == h.records[0].config.hyperparameters


def test_history_roundtrip_file(tmp_path):
    h = make_history()
    path = save_history(h, tmp_path / "history.json")
    back = load_history(path)
    assert back.best().objective == h.best().objective
    times_a, objs_a = h.best_so_far()
    times_b, objs_b = back.best_so_far()
    np.testing.assert_allclose(times_a, times_b)
    np.testing.assert_allclose(objs_a, objs_b)


def test_serialization_keeps_scalar_metadata_only():
    h = make_history(n=3)
    data = history_to_dict(h)
    meta = data["records"][0]["metadata"]
    assert meta["num_params"] == 100
    assert meta["note"] == "x"
    assert "array" not in meta  # non-scalar metadata dropped


def test_history_version_check():
    with pytest.raises(ValueError, match="version"):
        history_from_dict({"version": 99, "records": []})


def test_loaded_history_feeds_transfer(tmp_path):
    from repro.core import extract_hp_observations

    h = make_history()
    back = load_history(save_history(h, tmp_path / "h.json"))
    configs, values = extract_hp_observations(back, top_fraction=0.25)
    assert len(configs) == 5
    assert max(values) == 1.0


# --------------------------------------------------------------------- #
# Model weights
# --------------------------------------------------------------------- #
def test_model_weights_roundtrip(tmp_path):
    spec = ArchitectureSpec((NodeOp(16, "relu"), NodeOp(8, "tanh")), frozenset({(0, 2)}))
    a = GraphNetwork(spec, 6, 3, np.random.default_rng(0))
    b = GraphNetwork(spec, 6, 3, np.random.default_rng(99))  # different init
    x = np.random.default_rng(1).normal(size=(5, 6))
    assert not np.allclose(a.predict_logits(x), b.predict_logits(x))
    path = save_model_weights(a, tmp_path / "weights.npz")
    load_model_weights(b, path)
    np.testing.assert_allclose(a.predict_logits(x), b.predict_logits(x))


def test_model_weights_structure_mismatch(tmp_path):
    spec = ArchitectureSpec((NodeOp(16, "relu"),))
    a = GraphNetwork(spec, 6, 3, np.random.default_rng(0))
    path = save_model_weights(a, tmp_path / "w.npz")
    other = GraphNetwork(
        ArchitectureSpec((NodeOp(32, "relu"),)), 6, 3, np.random.default_rng(0)
    )
    with pytest.raises(ValueError):
        load_model_weights(other, path)


# --------------------------------------------------------------------- #
# Importance
# --------------------------------------------------------------------- #
def test_importance_identifies_dominant_hyperparameter():
    h = make_history(n=60)
    space = default_dataparallel_space()
    imp = hyperparameter_importance(h, space, seed=0)
    assert set(imp) == {"batch_size", "learning_rate", "num_ranks"}
    assert abs(sum(imp.values()) - 1.0) < 1e-9
    # The synthetic objective depends only on the learning rate.
    assert imp["learning_rate"] == max(imp.values())
    assert imp["learning_rate"] > 0.5


def test_importance_requires_enough_data():
    with pytest.raises(ValueError):
        hyperparameter_importance(make_history(n=3), default_dataparallel_space())


def test_importance_empty_space():
    space = default_dataparallel_space(
        tune_batch_size=False, tune_learning_rate=False, tune_num_ranks=False
    )
    assert hyperparameter_importance(make_history(), space) == {}


def test_marginal_curve_shape():
    from repro.bo import RandomForestRegressor

    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 2))
    y = X[:, 0] ** 2
    forest = RandomForestRegressor(n_trees=10).fit(X, y, rng)
    grid = np.linspace(-2, 2, 7)
    curve = marginal_curve(forest, X, dim=0, grid=grid, rng=rng)
    assert curve.shape == (7,)
    # Quadratic in dim 0: the ends sit above the middle.
    assert curve[0] > curve[3] and curve[-1] > curve[3]
