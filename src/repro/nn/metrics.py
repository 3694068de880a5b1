"""Classification metrics (plain numpy; never differentiated)."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy", "top_k_accuracy"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max matches the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose label is within the top-``k`` scores."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    k = min(k, logits.shape[1])
    topk = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    return float((topk == labels[:, None]).any(axis=1).mean())
