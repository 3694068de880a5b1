"""Gradient-descent optimizers.

The paper trains every candidate with Adam (Kingma & Ba); SGD with momentum
is included for completeness and for baseline models.  Optimizers mutate
parameter ``.data`` in place (guides: prefer in-place updates to avoid
reallocating large buffers every step).
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "flatten_parameters"]


def _tiled_base(arrays: list[np.ndarray]) -> np.ndarray | None:
    """The 1-D array that ``arrays`` tile exactly, in order, or ``None``.

    Each array must be a C-contiguous view of one common 1-D base, starting
    where the previous one ends, and together they must cover all of it.
    """
    base = arrays[0].base
    if not (isinstance(base, np.ndarray) and base.ndim == 1 and base.flags.c_contiguous):
        return None
    addr = base.ctypes.data
    for a in arrays:
        if (a.base is not base or a.dtype != base.dtype
                or not a.flags.c_contiguous or a.ctypes.data != addr):
            return None
        addr += a.nbytes
    return base if addr == base.ctypes.data + base.nbytes else None


def flatten_parameters(parameters: list[Tensor]) -> np.ndarray:
    """One contiguous vector whose consecutive segments are the parameters.

    Parameters that already tile one vector in order (a ``GraphNetwork``'s,
    which are laid out at construction) return that vector.  Otherwise a new
    vector is filled with their values and every ``p.data`` is rebound to
    its segment view, so in-place updates of the vector are updates of the
    parameters.
    """
    arrays = [p.data for p in parameters]
    if not arrays:
        return np.empty(0)
    flat = _tiled_base(arrays)
    if flat is not None:
        return flat
    if len({a.dtype for a in arrays}) != 1:
        raise ValueError("parameters of mixed dtypes cannot share one flat vector")
    flat = np.concatenate([a.ravel() for a in arrays])
    offset = 0
    for p in parameters:
        size = p.data.size
        p.data = flat[offset : offset + size].reshape(p.data.shape)
        offset += size
    return flat


class Optimizer:
    """Base optimizer over a fixed parameter list.

    The learning rate is a mutable attribute so schedules
    (:mod:`repro.nn.schedules`) can adjust it between steps.
    """

    def __init__(self, parameters: list[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def apply_gradients(self, grads: list[np.ndarray] | np.ndarray) -> None:
        """Install externally computed gradients then step.

        Used by the trainers, whose compiled plan leaves the (rank-averaged)
        gradient in its flat buffer outside the optimizer.  ``grads``
        is one array per parameter, or one flat vector holding them all in
        ``parameters()`` order.
        """
        if isinstance(grads, np.ndarray):
            self._step_flat(grads)
            return
        if len(grads) != len(self.parameters):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.parameters)} parameters"
            )
        for p, g in zip(self.parameters, grads):
            p.grad = g
        self.step()

    def _step_flat(self, grad: np.ndarray) -> None:
        """Step on a flat gradient; by default, installed per parameter."""
        offset = 0
        for p in self.parameters:
            p.grad = grad[offset : offset + p.size].reshape(p.shape)
            offset += p.size
        self.step()


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum."""

    def __init__(self, parameters: list[Tensor], lr: float, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    The whole update runs over one flat vector: the parameters are views of
    it (see :func:`flatten_parameters`), the moments ``m``/``v`` are flat,
    and a step is 14 in-place ufuncs over all ``P`` scalars,
    whatever the number of tensors.  Each element sees the per-tensor
    formula's operations in the same order, so the result is bitwise that
    of updating tensor by tensor (the oracle in ``tests/reference/``).
    """

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._flat = flatten_parameters(self.parameters)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._g = np.empty_like(self._flat)    # gathered per-tensor gradients
        self._scr = np.empty_like(self._flat)
        self._den = np.empty_like(self._flat)
        self._t = 0

    def step(self) -> None:
        """Update from the parameters' ``.grad`` arrays.

        Like the per-tensor formula, a step where no parameter has a
        gradient leaves the weights and moments alone; a partial set is
        rejected, since the flat update cannot skip single tensors.
        """
        grads = [p.grad for p in self.parameters]
        missing = sum(g is None for g in grads)
        if missing == len(grads):
            self._t += 1
            return
        if missing:
            raise ValueError(f"{missing} of {len(grads)} parameters have no gradient")
        np.concatenate([np.ravel(g) for g in grads], out=self._g)
        self._step_flat(self._g)

    def _step_flat(self, g: np.ndarray) -> None:
        if g.shape != self._flat.shape:
            raise ValueError(f"flat gradient of shape {g.shape} for {self._flat.size} parameters")
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        m, v, scr, den = self._m, self._v, self._scr, self._den
        m *= self.beta1                           # m = m·β1 + (1 − β1)·g
        np.multiply(g, 1.0 - self.beta1, out=scr)
        m += scr
        v *= self.beta2                           # v = v·β2 + (1 − β2)·(g·g)
        np.multiply(g, g, out=scr)
        scr *= 1.0 - self.beta2
        v += scr
        np.divide(m, b1t, out=scr)                # lr · m̂
        scr *= self.lr
        np.divide(v, b2t, out=den)                # sqrt(v̂) + eps
        np.sqrt(den, out=den)
        den += self.eps
        scr /= den
        self._flat -= scr
