"""Gradient-descent optimizers.

The paper trains every candidate with Adam (Kingma & Ba).  An optimizer
takes one flat gradient vector per step, the compiled plan's
``mean_grad_flat``, and mutates parameter ``.data`` in place (guides:
prefer in-place updates to avoid reallocating large buffers every step).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter

__all__ = ["Optimizer", "Adam", "flatten_parameters"]


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


def flatten_parameters(parameters: list[Parameter]) -> np.ndarray:
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
    (:mod:`repro.nn.schedules`) can adjust it between steps.  Subclasses
    implement ``_step_flat``.
    """

    def __init__(self, parameters: list[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)

    def apply_gradients(self, grad: np.ndarray) -> None:
        """Take one step on ``grad``, the flat gradient of every parameter.

        ``grad`` holds the gradients back to back in ``parameters`` order:
        the layout of the compiled plan's ``mean_grad_flat``, which the
        trainer passes straight in.
        """
        self._step_flat(grad)

    def _step_flat(self, grad: np.ndarray) -> None:
        raise NotImplementedError


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
        parameters: list[Parameter],
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
        self._scr = np.empty_like(self._flat)
        self._den = np.empty_like(self._flat)
        self._t = 0

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
