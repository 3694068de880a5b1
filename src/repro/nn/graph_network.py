"""Materialize a searched architecture into a trainable network.

The AgEBO-Tabular search space (paper §III-A) is a chain of up to ``m``
*variable nodes* (each either a dense layer ``Dense(units, activation)`` or
an identity op) with optional *skip connections*.  Node ``i`` always
receives the output of node ``i-1``; a skip from an earlier node ``s``
(``s ∈ {i-4, i-3, i-2}``, the three previous non-consecutive nodes,
including the input node 0) passes ``h_s`` through a linear projection to
the width of ``h_{i-1}``, sums it with ``h_{i-1}``, and applies ReLU before
feeding node ``i``.  The output node is a logits layer that receives the
same skip treatment.

This module is intentionally independent of the search-space encoding: it
consumes a plain :class:`ArchitectureSpec` so it can also build
hand-designed networks (baselines, tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.layers import Dense, Parameter
from repro.nn.optimizers import flatten_parameters

__all__ = ["NodeOp", "ArchitectureSpec", "GraphNetwork"]


@dataclass(frozen=True)
class NodeOp:
    """Operation of one variable node.

    ``units is None`` encodes the identity op (the 31st layer type); then
    ``activation`` must also be ``None``.
    """

    units: int | None
    activation: str | None

    def __post_init__(self) -> None:
        if (self.units is None) != (self.activation is None):
            raise ValueError("identity op requires both units and activation to be None")
        if self.units is not None and self.units <= 0:
            raise ValueError(f"units must be positive, got {self.units}")

    @property
    def is_identity(self) -> bool:
        return self.units is None


@dataclass(frozen=True)
class ArchitectureSpec:
    """A decoded architecture: node ops plus active skip connections.

    Attributes
    ----------
    node_ops:
        Ops for variable nodes 1..m, in order.
    skips:
        Set of ``(source, destination)`` pairs over graph-node indices where
        0 is the input node, ``1..m`` are variable nodes and ``m+1`` is the
        output node.  Only pairs with ``destination - source >= 2`` are
        valid (consecutive nodes are always connected).
    """

    node_ops: tuple[NodeOp, ...]
    skips: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        m = len(self.node_ops)
        for src, dst in self.skips:
            if not (0 <= src <= m and 2 <= dst <= m + 1):
                raise ValueError(f"skip ({src},{dst}) out of range for {m} nodes")
            if dst - src < 2:
                raise ValueError(f"skip ({src},{dst}) duplicates the sequential edge")

    @property
    def num_nodes(self) -> int:
        return len(self.node_ops)

    def active_depth(self) -> int:
        """Number of non-identity dense layers."""
        return sum(0 if op.is_identity else 1 for op in self.node_ops)

    def node_widths(self, input_dim: int) -> list[int]:
        """Output width of every graph node before the output node (index
        0 is the input); an identity op passes its input width through."""
        widths = [input_dim]
        for op in self.node_ops:
            widths.append(widths[-1] if op.is_identity else op.units)
        return widths

    def num_parameters(self, input_dim: int, n_classes: int) -> int:
        """Scalar parameter count of the network built from this spec —
        each dense layer, skip projection and the output layer holds a
        ``fan_in x units`` weight and a ``units`` bias — known without
        drawing any weights."""
        widths = self.node_widths(input_dim)
        layers = [
            (widths[i - 1], op.units)
            for i, op in enumerate(self.node_ops, start=1)
            if not op.is_identity
        ]
        layers += [(widths[src], widths[dst - 1]) for src, dst in self.skips]
        layers.append((widths[-1], n_classes))
        return sum((fan_in + 1) * units for fan_in, units in layers)


class GraphNetwork:
    """Trainable network built from an :class:`ArchitectureSpec`.

    The network holds the layers and their parameters; its compiled plan
    (:meth:`compile`) trains it and computes its predictions.

    Parameters
    ----------
    spec:
        Decoded architecture.
    input_dim, n_classes:
        Tabular input width and number of output classes.
    rng:
        Generator for all weight initialization, making a build reproducible.
    dtype:
        Parameter/activation precision (float64 default, the oracles'; campaigns
        train at float32).  Weights are drawn in float64 and cast, so the same
        seed produces the same network at either precision.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        input_dim: int,
        n_classes: int,
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> None:
        if input_dim <= 0 or n_classes <= 1:
            raise ValueError(f"invalid dims: input_dim={input_dim}, n_classes={n_classes}")
        self.spec = spec
        self.input_dim = input_dim
        self.n_classes = n_classes
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"dtype must be a float type, got {self.dtype}")
        self._plan = None  # lazily built CompiledPlan (see compile())

        m = spec.num_nodes
        widths = spec.node_widths(input_dim)
        self._node_layers: list[Dense | None] = [
            None
            if op.is_identity
            else Dense(
                widths[i - 1], op.units, op.activation, rng, name=f"node{i}", dtype=self.dtype
            )
            for i, op in enumerate(spec.node_ops, start=1)
        ]
        self._widths = widths

        # Skip projections: map h_src's width to h_{dst-1}'s width (the
        # tensor it is summed with).  Built only for active skips; a skip
        # whose source width already matches still uses a projection, per
        # the paper ("passes the tensor ... through a linear layer").
        self._projections: dict[tuple[int, int], Dense] = {}
        for src, dst in sorted(spec.skips):
            target_width = widths[dst - 1]
            self._projections[(src, dst)] = Dense(
                widths[src], target_width, None, rng, name=f"proj{src}-{dst}", dtype=self.dtype
            )

        self._output = Dense(widths[m], n_classes, None, rng, name="output", dtype=self.dtype)
        # Every parameter is a view of one contiguous vector, in
        # ``parameters()`` order: the layout of the compiled plan's flat
        # gradient, so Adam updates all weights with one set of ufuncs.
        self._flat = flatten_parameters(self.parameters())

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_plan"] = None  # a plan keys its buffers by object id
        del state["_flat"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Pickling and deep-copying give each parameter view its own
        # memory; lay the copies out in one vector again, or an optimizer
        # would update a buffer that the plan never reads.
        self.__dict__.update(state)
        self._flat = flatten_parameters(self.parameters())

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self._node_layers:
            if layer is not None:
                params.extend(layer.parameters())
        for proj in self._projections.values():
            params.extend(proj.parameters())
        params.extend(self._output.parameters())
        return params

    def num_parameters(self) -> int:
        """Total scalar parameter count (drives the training-time model)."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    def compile(self) -> "CompiledPlan":
        """Trace this architecture into a :class:`~repro.nn.compiled.CompiledPlan`.

        The plan is built once and cached; it shares this network's
        parameters, so optimizer updates (which mutate ``p.data``
        in place) are visible to subsequent plan executions and
        :meth:`get_weights`/:meth:`set_weights` keep working.
        """
        if self._plan is None:
            from repro.nn.compiled import CompiledPlan

            self._plan = CompiledPlan(self)
        return self._plan

    def predict_logits(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Inference-mode logits from the compiled plan, batched to bound
        peak memory.

        The plan's buffers are reused, so concurrent calls on one model are
        not thread-safe (see :mod:`repro.nn.compiled`).
        """
        x = np.asarray(x)
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"expected input width {self.input_dim}, got {x.shape[-1]}")
        return self.compile().predict_logits(x, batch_size)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return self.predict_logits(x).argmax(axis=1)

    # ------------------------------------------------------------------ #
    def get_weights(self) -> list[np.ndarray]:
        """Copy out all parameter arrays (checkpointing)."""
        return [p.data.copy() for p in self.parameters()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameter arrays previously produced by :meth:`get_weights`."""
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            if p.data.shape != w.shape:
                raise ValueError(f"shape mismatch: {p.data.shape} vs {w.shape}")
            p.data[...] = w
