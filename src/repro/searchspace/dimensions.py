"""Dimension types for mixed-integer hyperparameter spaces.

Each dimension can sample a value, map values to/from a numeric
representation used by the random-forest surrogate, and validate
membership.  The numeric representation follows scikit-optimize's
conventions: reals pass through (log-transformed under a log-uniform
prior), integers pass through, categoricals map to their index.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

__all__ = ["Dimension", "Real", "Integer", "Categorical"]


class Dimension:
    """Abstract search dimension."""

    name: str = ""

    def sample(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def sample_numeric(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` samples drawn directly in numeric coordinates, one draw."""
        raise NotImplementedError

    def to_numeric(self, value: Any) -> float:
        """Map a value into the surrogate's numeric coordinate."""
        raise NotImplementedError

    def from_numeric(self, x: float) -> Any:
        """Inverse of :meth:`to_numeric` (clipped/rounded to validity)."""
        raise NotImplementedError

    def contains(self, value: Any) -> bool:
        raise NotImplementedError


class Real(Dimension):
    """Continuous dimension on ``[low, high]``.

    ``prior='log-uniform'`` samples (and represents) the value on a log
    scale, as the paper does for the learning rate.
    """

    def __init__(self, low: float, high: float, prior: str = "uniform", name: str = "") -> None:
        if not (low < high):
            raise ValueError(f"low must be < high, got [{low}, {high}]")
        if prior not in ("uniform", "log-uniform"):
            raise ValueError(f"unknown prior {prior!r}")
        if prior == "log-uniform" and low <= 0:
            raise ValueError("log-uniform prior requires low > 0")
        self.low = float(low)
        self.high = float(high)
        self.prior = prior
        self.name = name

    def sample(self, rng: np.random.Generator) -> float:
        if self.prior == "log-uniform":
            return float(math.exp(rng.uniform(math.log(self.low), math.log(self.high))))
        return float(rng.uniform(self.low, self.high))

    def sample_numeric(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.prior == "log-uniform":
            return rng.uniform(math.log(self.low), math.log(self.high), size)
        return rng.uniform(self.low, self.high, size)

    def to_numeric(self, value: float) -> float:
        return math.log(value) if self.prior == "log-uniform" else float(value)

    def from_numeric(self, x: float) -> float:
        value = math.exp(x) if self.prior == "log-uniform" else float(x)
        return min(max(value, self.low), self.high)

    def contains(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= v <= self.high

    def __repr__(self) -> str:  # pragma: no cover
        return f"Real({self.low}, {self.high}, prior={self.prior!r}, name={self.name!r})"


class Integer(Dimension):
    """Integer dimension on ``[low, high]`` inclusive."""

    def __init__(self, low: int, high: int, name: str = "") -> None:
        if not (low < high):
            raise ValueError(f"low must be < high, got [{low}, {high}]")
        self.low = int(low)
        self.high = int(high)
        self.name = name

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def sample_numeric(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size).astype(float)

    def to_numeric(self, value: int) -> float:
        return float(value)

    def from_numeric(self, x: float) -> int:
        return int(min(max(round(x), self.low), self.high))

    def contains(self, value: Any) -> bool:
        return isinstance(value, (int, np.integer)) and self.low <= int(value) <= self.high

    def __repr__(self) -> str:  # pragma: no cover
        return f"Integer({self.low}, {self.high}, name={self.name!r})"


class Categorical(Dimension):
    """Unordered finite set of values (numeric coordinate = index)."""

    def __init__(self, values: Sequence[Any], name: str = "") -> None:
        if len(values) == 0:
            raise ValueError("Categorical requires at least one value")
        if len(set(map(repr, values))) != len(values):
            raise ValueError("Categorical values must be distinct")
        self.values = list(values)
        self.name = name
        self._index = {repr(v): i for i, v in enumerate(self.values)}

    def sample(self, rng: np.random.Generator) -> Any:
        return self.values[int(rng.integers(len(self.values)))]

    def sample_numeric(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(len(self.values), size=size).astype(float)

    def to_numeric(self, value: Any) -> float:
        try:
            return float(self._index[repr(value)])
        except KeyError:
            raise ValueError(f"{value!r} not in categorical {self.name!r}") from None

    def from_numeric(self, x: float) -> Any:
        idx = int(min(max(round(x), 0), len(self.values) - 1))
        return self.values[idx]

    def contains(self, value: Any) -> bool:
        return repr(value) in self._index

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Categorical({self.values!r}, name={self.name!r})"
