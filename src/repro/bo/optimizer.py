"""Ask/tell asynchronous Bayesian optimizer (the AgEBO ``optimizer`` object).

Mirrors the scikit-optimize interface the paper uses:

- :meth:`tell` ingests (hyperparameter config, validation accuracy) pairs;
- :meth:`ask` returns ``k`` configurations chosen by maximizing UCB over a
  random candidate pool, batching via the constant-liar strategy so the
  whole batch can be dispatched without blocking on evaluations.

While fewer than ``n_initial_points`` observations exist, :meth:`ask`
returns random samples (the "random initialization phase" of §IV-D).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.bo.acquisition import upper_confidence_bound
from repro.bo.forest import RandomForestRegressor
from repro.bo.liar import LIE_STRATEGIES, constant_lie
from repro.bo.surrogate import KNNSurrogate
from repro.searchspace.hpspace import HyperparameterSpace

__all__ = ["BayesianOptimizer", "SURROGATES"]

#: Surrogate models :class:`BayesianOptimizer` accepts by name.
SURROGATES = ("forest", "knn", "random")

#: Random candidates scored per selection.
CANDIDATE_POOL_SIZE = 500


class BayesianOptimizer:
    """Asynchronous BO over a :class:`HyperparameterSpace`.

    Parameters
    ----------
    space:
        The hyperparameter space (numeric encoding comes from it).
    kappa:
        UCB exploration weight; the paper's AgEBO default is 0.001
        (strong exploitation), with {1.96, 19.6} studied in Fig. 8.
    n_initial_points:
        Observations required before the surrogate is trusted.
    lie_strategy:
        Constant-liar dummy value policy (paper: ``"mean"``); the
        surrogate is refit after each lie, as in the paper.
    surrogate:
        ``"forest"`` (paper), ``"knn"`` (ablation) or ``"random"``
        (ablation baseline: :meth:`ask` always samples uniformly).
    """

    def __init__(
        self,
        space: HyperparameterSpace,
        kappa: float = 0.001,
        n_initial_points: int = 10,
        lie_strategy: str = "mean",
        surrogate: str = "forest",
        forest: RandomForestRegressor | None = None,
        seed: int | np.random.Generator = 0,
    ) -> None:
        if kappa < 0:
            raise ValueError("kappa must be >= 0")
        if n_initial_points < 1:
            raise ValueError("n_initial_points must be >= 1")
        if lie_strategy not in LIE_STRATEGIES:
            raise ValueError(
                f"unknown lie strategy {lie_strategy!r}; expected one of {LIE_STRATEGIES}"
            )
        if surrogate not in SURROGATES:
            raise ValueError(f"unknown surrogate {surrogate!r}; expected one of {SURROGATES}")
        self.space = space
        self.kappa = kappa
        self.n_initial_points = n_initial_points
        self.lie_strategy = lie_strategy
        self.surrogate = surrogate
        self._forest_proto = forest or RandomForestRegressor(n_trees=25, max_depth=10)
        self._rng = (
            seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        )
        self._X: list[np.ndarray] = []
        self._y: list[float] = []

    # ------------------------------------------------------------------ #
    @property
    def num_observations(self) -> int:
        return len(self._y)

    def tell(self, configs: Sequence[Mapping[str, Any]], values: Sequence[float]) -> None:
        """Record finished evaluations (objective = value, maximized)."""
        if len(configs) != len(values):
            raise ValueError(f"got {len(configs)} configs but {len(values)} values")
        for config, value in zip(configs, values):
            self.space.validate(config)
            self._X.append(self.space.to_array(config))
            self._y.append(float(value))

    def ask(self, k: int = 1) -> list[dict[str, Any]]:
        """Propose ``k`` configurations without blocking."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.space.num_dimensions == 0:
            # Degenerate space (everything fixed): only the defaults exist.
            return [self.space.sample(self._rng) for _ in range(k)]
        if self.surrogate == "random" or self.num_observations < self.n_initial_points:
            return [self.space.sample(self._rng) for _ in range(k)]

        # Observations + room for k lies in one prefilled matrix: each refit
        # sees a contiguous slice instead of re-stacking a growing list.
        n = self.num_observations
        d = self.space.num_dimensions
        X = np.empty((n + k, d), dtype=float)
        X[:n] = self._X
        y = np.empty(n + k, dtype=float)
        y[:n] = self._y
        lie = constant_lie(y[:n], self.lie_strategy)
        batch: list[dict[str, Any]] = []
        model = self._fit_surrogate(X[:n], y[:n])
        for j in range(k):
            candidates = self.space.sample_array(self._rng, CANDIDATE_POOL_SIZE)
            mu, sigma = model.predict(candidates)
            scores = upper_confidence_bound(mu, sigma, self.kappa)
            best = candidates[int(np.argmax(scores))]
            batch.append(self.space.from_array(best))
            X[n + j] = best
            y[n + j] = lie
            if len(batch) < k:
                model = self._fit_surrogate(X[: n + j + 1], y[: n + j + 1])
        return batch

    def _fit_surrogate(self, X: np.ndarray, y: np.ndarray):
        if self.surrogate == "knn":
            return KNNSurrogate().fit(X, y, self._rng)
        forest = RandomForestRegressor(
            n_trees=self._forest_proto.n_trees,
            max_depth=self._forest_proto.max_depth,
            min_samples_split=self._forest_proto.min_samples_split,
            max_features=self._forest_proto.max_features,
            bootstrap=self._forest_proto.bootstrap,
        )
        forest.fit(X, y, self._rng)
        return forest

    # ------------------------------------------------------------------ #
    def best(self) -> tuple[dict[str, Any], float]:
        """Best observed (config, value) so far."""
        if not self._y:
            raise RuntimeError("no observations yet")
        idx = int(np.argmax(self._y))
        return self.space.from_array(self._X[idx]), self._y[idx]
