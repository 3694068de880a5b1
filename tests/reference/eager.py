"""A network's forward pass on the autograd tape: the compiled plan's oracle.

A :class:`~repro.nn.GraphNetwork` holds its spec and layers; in ``src/``
only its compiled plan computes with them.  :class:`EagerNetwork` computes
the same function on the reverse-mode tape of :mod:`reference.autograd`,
rebuilt at every call: the activation map, each dense layer's affine map
plus activation, and the skip-connection wiring.  The plan replays this
op order, so its forward values equal the tape's byte for byte and its
loss and gradients agree to round-off; :func:`assert_plan_equivalence`
is the seeded gate the tests and ``benchmarks/test_perf_train.py`` call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from reference.autograd import Tensor, no_grad
from reference.losses import softmax_cross_entropy
from repro.nn.layers import Dense


def _identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "identity": _identity,
    "swish": Tensor.swish,
    "relu": Tensor.relu,
    "tanh": Tensor.tanh,
    "sigmoid": Tensor.sigmoid,
}


def apply_activation(name: str, x: Tensor) -> Tensor:
    """Apply the named activation to ``x``; ``KeyError`` if it is unknown."""
    try:
        fn = ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None
    return fn(x)


class EagerNetwork:
    """The forward pass of ``model`` on the tape.

    Every parameter becomes a leaf ``Tensor`` that wraps the model's own
    array without copying, so in-place weight updates show, and
    ``backward`` leaves each parameter's gradient in its leaf's ``.grad``.
    Build a new one after the model's arrays are rebound (unpickling).
    ``model`` may also be a single ``Dense`` layer, for :meth:`dense` and
    :meth:`linear`.
    """

    def __init__(self, model) -> None:
        self.model = model
        params = model.parameters()
        self.leaves = [Tensor(p.data, requires_grad=True, name=p.name) for p in params]
        self._leaf = {id(p): leaf for p, leaf in zip(params, self.leaves)}

    def parameters(self) -> list[Tensor]:
        """The leaves, in ``model.parameters()`` order."""
        return self.leaves

    def linear(self, layer: Dense, x: Tensor) -> Tensor:
        """Affine part of ``layer``, ignoring its activation."""
        return x @ self._leaf[id(layer.W)] + self._leaf[id(layer.b)]

    def dense(self, layer: Dense, x: Tensor) -> Tensor:
        """``activation(x @ W + b)``; no activation for ``None``."""
        out = self.linear(layer, x)
        if layer.activation is not None:
            out = apply_activation(layer.activation, out)
        return out

    def forward(self, x: np.ndarray | Tensor) -> Tensor:
        """Logits for a ``(batch, input_dim)`` design matrix."""
        model = self.model
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=model.dtype))
        if h.shape[-1] != model.input_dim:
            raise ValueError(f"expected input width {model.input_dim}, got {h.shape[-1]}")
        outputs: list[Tensor] = [h]  # outputs[i] is graph node i's output
        m = model.spec.num_nodes
        for i in range(1, m + 2):  # variable nodes then output node
            incoming = outputs[i - 1]
            skip_sources = [s for (s, d) in model._projections if d == i]
            if skip_sources:
                acc = incoming
                for s in sorted(skip_sources):
                    acc = acc + self.dense(model._projections[(s, i)], outputs[s])
                incoming = acc.relu()
            if i <= m:
                layer = model._node_layers[i - 1]
                outputs.append(incoming if layer is None else self.dense(layer, incoming))
            else:
                return self.dense(model._output, incoming)
        raise AssertionError("unreachable")

    __call__ = forward


def eager_forward(model, x: np.ndarray | Tensor) -> Tensor:
    """``model``'s logits on a fresh tape."""
    return EagerNetwork(model)(x)


def eager_predict_logits(model, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
    """Inference-mode logits on the tape, batched to bound peak memory."""
    with no_grad():
        net = EagerNetwork(model)
        chunks = [net(x[i : i + batch_size]).data for i in range(0, x.shape[0], batch_size)]
    if not chunks:
        return np.zeros((0, model.n_classes), dtype=model.dtype)
    return np.concatenate(chunks, axis=0)


def eager_loss_and_grads(model, X: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Mean softmax cross-entropy and every parameter's gradient, on the tape.

    A parameter the loss does not reach gets a zero gradient.
    """
    net = EagerNetwork(model)
    loss = softmax_cross_entropy(net(X), y)
    loss.backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in net.parameters()]
    return loss.item(), grads


def assert_plan_equivalence(
    model,
    X: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-10,
) -> dict[str, float]:
    """Seeded equivalence gate: compiled plan vs. the eager tape.

    Computes the loss and all parameter gradients along both paths on the
    same inputs: the tape's from its leaves, the plan's from
    ``mean_grad_views``, the gradient the optimizer reads.  Raises
    ``AssertionError`` if any quantity differs by more than ``tol``.
    Returns the observed maximum deviations so callers (tests, the perf
    bench) can report them.
    """
    eager_loss, eager_grads = eager_loss_and_grads(model, X, y)
    plan = model.compile()
    compiled_loss = plan.loss_and_grad(X, y)

    loss_diff = abs(eager_loss - compiled_loss)
    grad_diff = 0.0
    for ge, gc in zip(eager_grads, plan.mean_grad_views, strict=True):
        grad_diff = float(np.maximum(grad_diff, np.max(np.abs(ge - gc))))
    report = {"loss_diff": loss_diff, "grad_diff": grad_diff}
    # Written so that a NaN on either side fails the gate.
    if not (loss_diff <= tol and grad_diff <= tol and np.isfinite(eager_loss)):
        raise AssertionError(
            f"compiled/eager divergence: loss diff {loss_diff:.3e}, "
            f"max grad diff {grad_diff:.3e} exceeds tol {tol:.1e}"
        )
    return report
