"""Asynchronous Bayesian optimization (paper substitute for scikit-optimize).

Components:

- :class:`RegressionTree` / :class:`RandomForestRegressor` — the surrogate
  model ``M`` (the paper uses skopt's random forest), predicting a mean and
  a cross-tree standard deviation per candidate.
- :func:`upper_confidence_bound` — the UCB acquisition (paper Eq. 3).
- :func:`constant_lie` — the multipoint constant-liar strategy.
- :class:`BayesianOptimizer` — the ask/tell optimizer AgEBO embeds; it
  accepts the surrogate names in :data:`SURROGATES`.
"""

from repro.bo.forest import RandomForestRegressor, RegressionTree
from repro.bo.acquisition import upper_confidence_bound
from repro.bo.liar import constant_lie
from repro.bo.surrogate import KNNSurrogate
from repro.bo.optimizer import SURROGATES, BayesianOptimizer

__all__ = [
    "RegressionTree",
    "RandomForestRegressor",
    "KNNSurrogate",
    "upper_confidence_bound",
    "constant_lie",
    "BayesianOptimizer",
    "SURROGATES",
]
