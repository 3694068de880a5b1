"""The eager-tape training path: the oracle for the compiled plan.

Both trainers take every step through ``model.compile()``: one
``loss_and_grad`` that leaves the gradient in ``mean_grad_flat``, then
``predict_logits`` for validation.  Within :func:`eager_training`,
``compile`` returns an :class:`EagerPlan` instead, which computes the same
three things on the reference autograd tape, rebuilt at every step.  A
training run under it is the eager training loop; comparing it with the
same run on the compiled plan gates the plan over whole trainings.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.nn.graph_network import GraphNetwork
from repro.nn.losses import softmax_cross_entropy


class EagerPlan:
    """The training surface of a compiled plan, computed on the tape."""

    def __init__(self, model: GraphNetwork) -> None:
        self.model = model
        self.params = model.parameters()
        self.mean_grad_flat = np.empty(model.num_parameters(), dtype=model.dtype)

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> float:
        for p in self.params:
            p.grad = None
        loss = softmax_cross_entropy(self.model.forward(X), y)
        loss.backward()
        offset = 0
        for p in self.params:
            span = self.mean_grad_flat[offset : offset + p.data.size]
            span[:] = 0.0 if p.grad is None else p.grad.ravel()
            offset += p.data.size
        return loss.item()

    def predict_logits(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict_logits(X)


@contextlib.contextmanager
def eager_training():
    """Within the block, every trainer step runs on the eager tape."""
    with mock.patch.object(GraphNetwork, "compile", lambda model: EagerPlan(model)):
        yield
