"""Unit tests for the data-parallel hyperparameter space."""

from __future__ import annotations

import numpy as np
import pytest

from repro.searchspace import (
    Categorical,
    HyperparameterSpace,
    Integer,
    Real,
    default_dataparallel_space,
)


def test_default_space_matches_paper():
    space = default_dataparallel_space()
    assert space.names == ["batch_size", "learning_rate", "num_ranks"]
    bs = space.dimensions["batch_size"]
    assert isinstance(bs, Categorical) and bs.values == [32, 64, 128, 256, 512, 1024]
    lr = space.dimensions["learning_rate"]
    assert isinstance(lr, Real) and lr.prior == "log-uniform"
    assert (lr.low, lr.high) == (0.001, 0.1)
    ranks = space.dimensions["num_ranks"]
    assert ranks.values == [1, 2, 4, 8]


def test_sample_includes_all_keys(rng):
    space = default_dataparallel_space()
    config = space.sample(rng)
    assert set(config) == {"batch_size", "learning_rate", "num_ranks"}
    space.validate(config)


def test_variant_agebo_8_lr():
    space = default_dataparallel_space(
        tune_batch_size=False, tune_num_ranks=False, default_num_ranks=8
    )
    assert space.names == ["learning_rate"]
    config = space.sample(np.random.default_rng(0))
    assert config["batch_size"] == 256
    assert config["num_ranks"] == 8


def test_variant_agebo_8_lr_bs():
    space = default_dataparallel_space(tune_num_ranks=False, default_num_ranks=8)
    assert space.names == ["batch_size", "learning_rate"]
    assert space.defaults == {"num_ranks": 8}


def test_all_fixed_space():
    space = default_dataparallel_space(
        tune_batch_size=False, tune_learning_rate=False, tune_num_ranks=False
    )
    assert space.num_dimensions == 0
    config = space.sample(np.random.default_rng(0))
    assert config == {"batch_size": 256, "learning_rate": 0.01, "num_ranks": 1}


def test_max_ranks_filters_choices():
    space = default_dataparallel_space(max_ranks=4)
    assert space.dimensions["num_ranks"].values == [1, 2, 4]


def test_to_from_array_roundtrip(rng):
    space = default_dataparallel_space()
    for _ in range(20):
        config = space.sample(rng)
        arr = space.to_array(config)
        back = space.from_array(arr)
        assert back["batch_size"] == config["batch_size"]
        assert back["num_ranks"] == config["num_ranks"]
        assert abs(back["learning_rate"] - config["learning_rate"]) < 1e-9


def test_sample_array_draws_one_block_per_dimension():
    """The candidate pool is one draw per dimension, in definition order,
    directly in numeric coordinates, and every row decodes to a valid config."""
    space = HyperparameterSpace(
        {
            "lr": Real(0.001, 0.1, prior="log-uniform"),
            "units": Integer(4, 9),
            "act": Categorical(["relu", "tanh", "swish"]),
            "drop": Real(0.0, 0.5),
        },
        defaults={"num_ranks": 2},
    )
    pool = space.sample_array(np.random.default_rng(7), 300)
    assert pool.shape == (300, 4) and pool.dtype == float
    rng = np.random.default_rng(7)
    expected = np.column_stack(
        [
            rng.uniform(np.log(0.001), np.log(0.1), 300),
            rng.integers(4, 10, 300),
            rng.integers(3, size=300),
            rng.uniform(0.0, 0.5, 300),
        ]
    )
    np.testing.assert_array_equal(pool, expected)
    for row in pool:
        space.validate(space.from_array(row))
    assert space.from_array(pool[0])["num_ranks"] == 2


def test_learning_rate_encoded_on_log_scale():
    space = default_dataparallel_space(tune_batch_size=False, tune_num_ranks=False)
    a = space.to_array({"learning_rate": 0.001, "batch_size": 256, "num_ranks": 1})
    b = space.to_array({"learning_rate": 0.01, "batch_size": 256, "num_ranks": 1})
    c = space.to_array({"learning_rate": 0.1, "batch_size": 256, "num_ranks": 1})
    np.testing.assert_allclose(b - a, c - b, rtol=1e-9)  # equal log steps


def test_validate_catches_missing_and_invalid():
    space = default_dataparallel_space()
    with pytest.raises(ValueError, match="missing"):
        space.validate({"batch_size": 256})
    with pytest.raises(ValueError):
        space.validate({"batch_size": 100, "learning_rate": 0.01, "num_ranks": 1})


def test_validate_fixed_value_mismatch():
    space = default_dataparallel_space(tune_num_ranks=False, default_num_ranks=8)
    with pytest.raises(ValueError, match="fixed"):
        space.validate({"batch_size": 256, "learning_rate": 0.01, "num_ranks": 4})


def test_overlapping_tuned_and_fixed_rejected():
    with pytest.raises(ValueError):
        HyperparameterSpace({"x": Real(0, 1)}, {"x": 0.5})


def test_from_array_shape_check():
    space = default_dataparallel_space()
    with pytest.raises(ValueError):
        space.from_array(np.zeros(5))
