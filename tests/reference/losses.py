"""Loss functions on the reference tape (the compiled plan fuses its own)."""

from __future__ import annotations

import numpy as np

from reference.autograd import Tensor

__all__ = ["softmax_cross_entropy", "l2_regularization"]


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row-wise softmax.

    Parameters
    ----------
    logits:
        ``(batch, classes)`` tensor of unnormalized scores.
    labels:
        ``(batch,)`` integer class indices.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels must be 1-D of length {logits.shape[0]}, got shape {labels.shape}"
        )
    log_probs = logits.log_softmax()
    picked = log_probs.gather_rows(labels.astype(np.intp))
    return -1.0 * picked.mean()


def l2_regularization(parameters, coefficient: float) -> Tensor:
    """``coefficient * sum_i ||p_i||^2`` over weight tensors.

    Bias vectors (1-D parameters) are conventionally excluded.
    """
    total: Tensor | None = None
    for p in parameters:
        if p.ndim < 2:
            continue
        term = p.pow2().sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return coefficient * total
