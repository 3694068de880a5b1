"""Minimal reverse-mode automatic differentiation over numpy arrays.

The oracle for the compiled plan (:mod:`repro.nn.compiled`), whose kernels
replay this tape's op order; :mod:`reference.eager` runs a network on it.

The engine implements exactly the operation set needed by the AgEBO-Tabular
search space: affine transforms, elementwise activations, tensor addition
(with broadcasting, for biases and skip-connection sums), and reductions
used by losses.  All operations are vectorized over the batch dimension; no
per-sample Python loops appear anywhere in a training step.

Design: eager tape-per-call (micrograd-style).  Every forward pass builds a
fresh graph of :class:`Tensor` nodes; :meth:`Tensor.backward` walks the tape
in reverse topological order, each op's closure accumulating gradients into
its parents' ``.grad``.  Intermediate buffers die with the tape, keeping the
training loop allocation-light.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Thread-local so a no_grad() inference pass on one evaluator thread cannot
# disable taping for training running concurrently on another.
_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction (inference mode)."""
    prev = _grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record backward closures."""
    return _grad_enabled()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting prepends axes and stretches size-1 axes; the adjoint of a
    broadcast is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus an optional gradient and backward closure.

    Parameters
    ----------
    data:
        Array (or scalar) holding the value.  Non-float inputs are promoted
        to ``float64``; float arrays keep their dtype.
    requires_grad:
        Whether this tensor participates in differentiation.  Gradients are
        accumulated into ``.grad`` for every participating node during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[], None] | None = None,
        name: str = "",
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        grad_on = _grad_enabled()
        self.requires_grad = bool(requires_grad) and grad_on
        self._parents = tuple(_parents) if (grad_on and self.requires_grad) else ()
        self._backward = _backward if (grad_on and self.requires_grad) else None
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lift(value, dtype: np.dtype | None = None) -> "Tensor":
        """Wrap ``value`` in a Tensor.

        Python scalars are materialized at ``dtype`` (the other operand's
        dtype) so that mixing e.g. ``2.0 * x`` with a float32 ``x`` does not
        silently promote the whole graph to float64: numpy treats 0-d
        float64 *arrays* as strong types under NEP 50 promotion.
        """
        if isinstance(value, Tensor):
            return value
        if dtype is not None and not isinstance(value, np.ndarray):
            return Tensor(np.asarray(value, dtype=dtype))
        return Tensor(value)

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` promises that ``grad`` is a freshly allocated array
        no other node holds a reference to, so the first accumulation can
        adopt it instead of copying (backward closures pass ``owned=True``
        exactly when they just computed the array).  Shared buffers (e.g. a
        child's ``out.grad`` forwarded unchanged through a no-broadcast add,
        or a read-only ``broadcast_to`` view) must keep the defensive copy.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype and grad.shape == self.data.shape:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out = Tensor(
            self.data + other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward() -> None:
            g = out.grad
            gs = _unbroadcast(g, self.data.shape)
            self._accumulate(gs, owned=gs is not g)
            go = _unbroadcast(g, other.data.shape)
            other._accumulate(go, owned=go is not g)

        out._backward = backward if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(-out.grad, owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor._lift(other, self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return Tensor._lift(other, self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = Tensor._lift(other, self.data.dtype)
        out = Tensor(
            self.data * other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward() -> None:
            g = out.grad
            self._accumulate(_unbroadcast(g * other.data, self.data.shape), owned=True)
            other._accumulate(_unbroadcast(g * self.data, other.data.shape), owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product ``self @ other`` for 2-D operands."""
        other = Tensor._lift(other)
        out = Tensor(
            self.data @ other.data,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def backward() -> None:
            g = out.grad
            self._accumulate(g @ other.data.T, owned=True)
            other._accumulate(self.data.T @ g, owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    __matmul__ = matmul

    def sum(self) -> "Tensor":
        out = Tensor(self.data.sum(), self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(np.broadcast_to(out.grad, self.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def mean(self) -> "Tensor":
        scale = 1.0 / self.data.size
        out = Tensor(self.data.mean(), self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(np.broadcast_to(out.grad * scale, self.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0.0
        out = Tensor(np.where(mask, self.data, 0.0), self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(out.grad * mask, owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = Tensor(value, self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(out.grad * (1.0 - value * value), owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def sigmoid(self) -> "Tensor":
        value = _stable_sigmoid(self.data)
        out = Tensor(value, self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(out.grad * value * (1.0 - value), owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def swish(self) -> "Tensor":
        """Swish activation ``x * sigmoid(x)`` (Ramachandran et al., 2018)."""
        sig = _stable_sigmoid(self.data)
        value = self.data * sig
        out = Tensor(value, self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(out.grad * (sig + value * (1.0 - sig)), owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def pow2(self) -> "Tensor":
        """Elementwise square (used for L2 regularization)."""
        out = Tensor(self.data * self.data, self.requires_grad, (self,))

        def backward() -> None:
            self._accumulate(out.grad * 2.0 * self.data, owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def log_softmax(self) -> "Tensor":
        """Row-wise log-softmax for 2-D logits, numerically stabilized."""
        shifted = self.data - self.data.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        value = shifted - log_z
        out = Tensor(value, self.requires_grad, (self,))

        def backward() -> None:
            g = out.grad
            softmax = np.exp(value)
            self._accumulate(g - softmax * g.sum(axis=1, keepdims=True), owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select one column per row: ``out[i] = self[i, index[i]]``."""
        rows = np.arange(self.data.shape[0])
        out = Tensor(self.data[rows, index], self.requires_grad, (self,))

        def backward() -> None:
            g = np.zeros_like(self.data)
            np.add.at(g, (rows, index), out.grad)
            self._accumulate(g, owned=True)

        out._backward = backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to 1.0 and requires a scalar output in that case.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(_toposort(self)):
            if node._backward is not None and node.grad is not None:
                node._backward()
                if node._parents:
                    # Interior node: its gradient is no longer needed.
                    node.grad = None


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _toposort(root: Tensor) -> list[Tensor]:
    """Return tensors reachable from ``root`` in topological order."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order
