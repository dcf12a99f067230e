"""Categorical cross-entropy over class probabilities.

Labels are integer class ids, one per row of ``probs``, as ``Split.label2``
hands them out; the one-hot target is never built.
"""

from __future__ import annotations

import numpy as np

LOG_CLAMP = 1e-12  # added inside the log so saturated softmax cannot give -inf


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean of -log(probs[i, y_i] + eps) over the (N, K) batch."""
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(picked + LOG_CLAMP).mean())


def cross_entropy_logit_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the batch-mean loss w.r.t. pre-softmax logits: (p - y)/N,
    with y the one-hot rows of ``labels``."""
    grad = probs.copy()
    grad[np.arange(probs.shape[0]), labels] -= 1
    return grad / probs.shape[0]
