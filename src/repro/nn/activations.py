"""The activation set of the AgEBO-Tabular architecture search space.

The paper's dense-layer type is (units, activation) with activation drawn
from {Identity, Swish, ReLU, Tanh, Sigmoid}.  The compiled plan
(:mod:`repro.nn.compiled`) implements each of them as a fused kernel.
"""

from __future__ import annotations

__all__ = ["ACTIVATION_NAMES"]

#: Canonical ordering used when enumerating layer types in the search space.
ACTIVATION_NAMES: tuple[str, ...] = ("identity", "swish", "relu", "tanh", "sigmoid")
