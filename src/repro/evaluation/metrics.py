"""Accuracy metrics of the evaluation (Sec. VI.B).

* :func:`rms_error` — the weighted root-mean-square relative IPC error
  (the ``Err`` columns of Fig. 4b);
* :func:`kendall_tau` — Kendall's τ rank-correlation coefficient between
  predicted and native IPCs (the ``τK`` columns);
* :func:`coverage` — fraction of basic blocks a tool was able to process.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np


def rms_error(
    predicted: Sequence[float],
    native: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Weighted root-mean-square relative error between predictions and native IPC.

    Implements the paper's formula::

        Err = sqrt( Σ_i (w_i / Σ_j w_j) · ((IPC_i,tool − IPC_i,native) / IPC_i,native)² )

    Raises ``ValueError`` on empty or mismatched inputs, or when a native
    value is zero (the relative error would be undefined).
    """
    if len(predicted) != len(native):
        raise ValueError("predicted and native sequences must have the same length")
    if not predicted:
        raise ValueError("cannot compute an error over zero samples")
    if weights is None:
        weights = [1.0] * len(predicted)
    if len(weights) != len(predicted):
        raise ValueError("weights must match the number of samples")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ValueError("total weight must be positive")

    accumulator = 0.0
    for value, reference, weight in zip(predicted, native, weights):
        if reference == 0:
            raise ValueError("native IPC of zero makes the relative error undefined")
        relative = (value - reference) / reference
        accumulator += (weight / total_weight) * relative * relative
    return math.sqrt(accumulator)


#: Values closer than this relative distance tie in :func:`kendall_tau`.
_TIE_TOLERANCE = 1e-9


def _ties(value: float, others: np.ndarray) -> np.ndarray:
    """Which of ``others`` tie with ``value`` within :data:`_TIE_TOLERANCE`."""
    scale = np.maximum(abs(value), np.abs(others))
    return np.abs(value - others) <= _TIE_TOLERANCE * scale


def kendall_tau(predicted: Sequence[float], native: Sequence[float]) -> float:
    """Kendall's τ-b rank correlation between two sequences.

    τ-b corrects for ties in either sequence, which matters here because
    many basic blocks saturate the front-end and share the same native IPC.
    Two values tie when ``|a − b| ≤ 1e-9 · max(|a|, |b|)``: predictions
    that are equal in exact arithmetic can differ in the last ulp, and
    such a pair carries no ordering.  Returns a value in [-1, 1]; 0 when
    either sequence is constant.
    """
    if len(predicted) != len(native):
        raise ValueError("sequences must have the same length")
    size = len(predicted)
    if size < 2:
        raise ValueError("Kendall's tau needs at least two samples")

    x = np.asarray(predicted, dtype=float)
    y = np.asarray(native, dtype=float)
    concordant = 0
    discordant = 0
    ties_left = 0
    ties_right = 0
    for i in range(size - 1):
        tie_x = _ties(x[i], x[i + 1 :])
        tie_y = _ties(y[i], y[i + 1 :])
        ordered = ~(tie_x | tie_y)
        agree = (x[i] > x[i + 1 :]) == (y[i] > y[i + 1 :])
        ties_left += int(tie_x.sum())
        ties_right += int(tie_y.sum())
        concordant += int((ordered & agree).sum())
        discordant += int((ordered & ~agree).sum())

    total = size * (size - 1) // 2
    denom_left = total - ties_left
    denom_right = total - ties_right
    if denom_left <= 0 or denom_right <= 0:
        return 0.0
    return (concordant - discordant) / math.sqrt(denom_left * denom_right)


def coverage(processed: int, total: int) -> float:
    """Fraction of basic blocks a tool processed (possibly in degraded mode)."""
    if total <= 0:
        raise ValueError("total number of blocks must be positive")
    if processed < 0 or processed > total:
        raise ValueError("processed must be between 0 and total")
    return processed / total
