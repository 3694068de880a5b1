"""The eager-tape training path: the oracle for the compiled plan.

The trainer takes every step through ``model.compile()``: one
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

from reference.eager import eager_loss_and_grads, eager_predict_logits


class EagerPlan:
    """The training surface of a compiled plan, computed on the tape."""

    def __init__(self, model: GraphNetwork) -> None:
        self.model = model
        self.mean_grad_flat = np.empty(model.num_parameters(), dtype=model.dtype)

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> float:
        loss, grads = eager_loss_and_grads(self.model, X, y)
        np.concatenate([g.ravel() for g in grads], out=self.mean_grad_flat)
        return loss

    def predict_logits(self, X: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        return eager_predict_logits(self.model, X, batch_size)


@contextlib.contextmanager
def eager_training():
    """Within the block, every trainer step runs on the eager tape."""
    with mock.patch.object(GraphNetwork, "compile", lambda model: EagerPlan(model)):
        yield
