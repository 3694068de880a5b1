"""Per-tensor Adam: the oracle for the flat-vector :class:`repro.nn.Adam`."""

from __future__ import annotations

import numpy as np

from repro.nn.optimizers import Optimizer


class ReferenceAdam(Optimizer):
    """Adam (Kingma & Ba, 2015) updating one parameter tensor at a time.

    It takes the same flat gradient as :class:`repro.nn.Adam` and splits it
    into per-parameter views, so it can be monkeypatched into the trainer.
    """

    def __init__(self, parameters, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8) -> None:
        super().__init__(parameters, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def _step_flat(self, grad: np.ndarray) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        offset = 0
        for p, m, v in zip(self.parameters, self._m, self._v):
            g = grad[offset : offset + p.data.size].reshape(p.data.shape)
            offset += p.data.size
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / b1t
            v_hat = v / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
