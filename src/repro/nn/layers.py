"""Parameter holders: ``Parameter`` and the ``Dense`` layer.

A layer owns its parameters; it computes nothing itself.  The compiled plan
(:mod:`repro.nn.compiled`) executes the layers, and the architecture-level
wiring (skip connections, projections, sums) lives in
:mod:`repro.nn.graph_network`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ACTIVATION_NAMES
from repro.nn.initializers import glorot_uniform, he_normal, zeros_init

__all__ = ["Parameter", "Dense"]


class Parameter:
    """A named trainable array.

    ``data`` is updated in place by the optimizer; only
    :func:`repro.nn.optimizers.flatten_parameters` rebinds it, to a view of
    the one flat vector that holds every parameter of a model.
    """

    __slots__ = ("data", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = data
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Dense:
    """Fully connected layer ``activation(x @ W + b)``.

    Parameters
    ----------
    fan_in, units:
        Input and output widths.
    activation:
        One of the five search-space activations, or ``None`` for a purely
        affine map (used for skip-connection projections and the output
        logits layer).
    rng:
        Generator used for weight initialization.  ReLU/Swish layers use He
        initialization; others use Glorot.
    dtype:
        Parameter precision (``float64`` default; ``float32`` halves memory
        traffic on the training hot path).  Weights are drawn in float64 and
        cast, so a seed gives the same initialization at either precision.
    """

    def __init__(
        self,
        fan_in: int,
        units: int,
        activation: str | None,
        rng: np.random.Generator,
        name: str = "dense",
        dtype=np.float64,
    ) -> None:
        if fan_in <= 0 or units <= 0:
            raise ValueError(f"fan_in and units must be positive, got {fan_in}, {units}")
        if activation is not None and activation not in ACTIVATION_NAMES:
            raise ValueError(
                f"unknown activation {activation!r}; expected one of {sorted(ACTIVATION_NAMES)}"
            )
        self.fan_in = fan_in
        self.units = units
        self.activation = activation
        self.dtype = np.dtype(dtype)
        if activation in ("relu", "swish"):
            w = he_normal(fan_in, units, rng, dtype=self.dtype)
        else:
            w = glorot_uniform(fan_in, units, rng, dtype=self.dtype)
        self.W = Parameter(w, name=f"{name}.W")
        self.b = Parameter(zeros_init(units, dtype=self.dtype), name=f"{name}.b")
        self.name = name

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dense({self.fan_in}->{self.units}, act={self.activation})"
