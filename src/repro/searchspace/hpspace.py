"""Hyperparameter space for data-parallel training (paper §II, §IV).

The paper tunes three hyperparameters: per-rank batch size
``bs1 ∈ {32, 64, 128, 256, 512, 1024}``, base learning rate
``lr1 ∈ (0.001, 0.1)`` sampled log-uniformly, and the number of parallel
ranks ``n ∈ {1, 2, 4, 8}``.  The AgEBO ablation variants fix a subset of
these; a fixed dimension is simply omitted from the space and supplied as a
constant in the configuration defaults.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.searchspace.dimensions import Categorical, Dimension, Real

__all__ = ["HyperparameterSpace", "default_dataparallel_space"]


class HyperparameterSpace:
    """Ordered collection of named dimensions with fixed defaults.

    Parameters
    ----------
    dimensions:
        Mapping from hyperparameter name to a :class:`Dimension`; these are
        the *tuned* hyperparameters.
    defaults:
        Values for hyperparameters that are *not* tuned in this variant
        (e.g. ``n = 8`` in AgEBO-8-LR-BS).  A full configuration always
        contains both tuned and default keys.
    """

    def __init__(
        self,
        dimensions: Mapping[str, Dimension],
        defaults: Mapping[str, Any] | None = None,
    ) -> None:
        self.dimensions: dict[str, Dimension] = dict(dimensions)
        self.defaults: dict[str, Any] = dict(defaults or {})
        overlap = set(self.dimensions) & set(self.defaults)
        if overlap:
            raise ValueError(f"hyperparameters both tuned and fixed: {sorted(overlap)}")
        for name, dim in self.dimensions.items():
            dim.name = dim.name or name

    # ------------------------------------------------------------------ #
    @property
    def names(self) -> list[str]:
        """Tuned hyperparameter names, in definition order."""
        return list(self.dimensions)

    @property
    def num_dimensions(self) -> int:
        return len(self.dimensions)

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """Sample a full configuration (tuned values + defaults)."""
        config = {name: dim.sample(rng) for name, dim in self.dimensions.items()}
        config.update(self.defaults)
        return config

    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``config`` covers the space validly."""
        for name, dim in self.dimensions.items():
            if name not in config:
                raise ValueError(f"missing hyperparameter {name!r}")
            if not dim.contains(config[name]):
                raise ValueError(f"value {config[name]!r} invalid for {name!r}")
        for name, value in self.defaults.items():
            if name in config and config[name] != value:
                raise ValueError(
                    f"fixed hyperparameter {name!r} must equal {value!r}, got {config[name]!r}"
                )

    # ------------------------------------------------------------------ #
    # Surrogate encoding
    # ------------------------------------------------------------------ #
    def to_array(self, config: Mapping[str, Any]) -> np.ndarray:
        """Numeric coordinates of the *tuned* hyperparameters."""
        return np.array(
            [dim.to_numeric(config[name]) for name, dim in self.dimensions.items()]
        )

    def from_array(self, x: np.ndarray) -> dict[str, Any]:
        """Inverse of :meth:`to_array`, re-attaching defaults."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_dimensions,):
            raise ValueError(f"expected array of shape ({self.num_dimensions},), got {x.shape}")
        config = {
            name: dim.from_numeric(float(v))
            for (name, dim), v in zip(self.dimensions.items(), x)
        }
        config.update(self.defaults)
        return config

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` candidates sampled directly in numeric coordinates,
        shape ``(size, num_dimensions)``: one ``rng`` draw per dimension,
        in definition order."""
        out = np.empty((size, self.num_dimensions))
        for j, dim in enumerate(self.dimensions.values()):
            out[:, j] = dim.sample_numeric(rng, size)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HyperparameterSpace(tuned={self.names}, fixed={sorted(self.defaults)})"
        )


def default_dataparallel_space(
    tune_batch_size: bool = True,
    tune_learning_rate: bool = True,
    tune_num_ranks: bool = True,
    default_batch_size: int = 256,
    default_learning_rate: float = 0.01,
    default_num_ranks: int = 1,
    max_ranks: int = 8,
) -> HyperparameterSpace:
    """Build the paper's H_m, or an ablation variant with some dims fixed.

    - full AgEBO: all three tuned;
    - AgEBO-8-LR-BS: ``tune_num_ranks=False, default_num_ranks=8``;
    - AgEBO-8-LR: additionally ``tune_batch_size=False``;
    - AgE-n: all False (pure defaults).
    """
    rank_choices = [r for r in (1, 2, 4, 8, 16, 32) if r <= max_ranks]
    dims: dict[str, Dimension] = {}
    defaults: dict[str, Any] = {}
    if tune_batch_size:
        dims["batch_size"] = Categorical([32, 64, 128, 256, 512, 1024], name="batch_size")
    else:
        defaults["batch_size"] = default_batch_size
    if tune_learning_rate:
        dims["learning_rate"] = Real(0.001, 0.1, prior="log-uniform", name="learning_rate")
    else:
        defaults["learning_rate"] = default_learning_rate
    if tune_num_ranks:
        dims["num_ranks"] = Categorical(rank_choices, name="num_ranks")
    else:
        defaults["num_ranks"] = default_num_ranks
    return HyperparameterSpace(dims, defaults)
