"""Masked-copy activation kernels: the oracles for the branchless ones.

These are the compiled plan's original ReLU and sigmoid, which select
values with ``np.copyto(..., where=mask)``.  They take the same arguments
as :func:`repro.nn.compiled._relu_into` / ``_sigmoid_into``, so a test can
monkeypatch them into the plan and compare whole trainings bitwise.
"""

from __future__ import annotations

import numpy as np


def relu_masked_into(x: np.ndarray, mask: np.ndarray) -> None:
    """In-place ReLU via a masked store of zeros; stores the mask ``x > 0``."""
    np.greater(x, 0.0, out=mask)
    np.copyto(x, 0.0, where=np.logical_not(mask))


def sigmoid_masked_into(x: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                        mask: np.ndarray) -> None:
    """Stable sigmoid computing both branches, then a masked select.

    ``mask`` is used as scratch for ``x < 0``; ``out`` may alias ``x``.
    """
    np.less(x, 0.0, out=mask)
    np.abs(x, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)          # exp(-|x|)
    np.add(scratch, 1.0, out=out)         # 1 + exp(-|x|)
    np.divide(scratch, out, out=scratch)  # negative branch: e / (1 + e)
    np.divide(1.0, out, out=out)          # positive branch: 1 / (1 + e)
    np.copyto(out, scratch, where=mask)
