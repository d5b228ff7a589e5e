"""Loss functions shared across YOLLO and the baseline models."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor, as_tensor, get_default_dtype, log_softmax, where

#: Focal loss class balance ``alpha`` (``None`` disables it) and
#: modulation exponent ``gamma`` (0 disables it), RetinaNet's defaults.
FOCAL_ALPHA: Optional[float] = 0.25
FOCAL_GAMMA = 2.0
#: Crossover between the quadratic and linear parts of :func:`smooth_l1`.
SMOOTH_L1_BETA = 1.0


def softmax_cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer class ``targets``.

    ``logits`` has shape ``(..., classes)``; ``targets`` has the leading
    shape.  ``weights`` (same shape as targets) re-weights samples, e.g.
    to ignore padded time-steps in the speaker decoder.
    """
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    flat = log_probs.reshape(-1, logits.shape[-1])
    rows = np.arange(flat.shape[0])
    picked = flat[rows, targets.reshape(-1)]
    if weights is None:
        return -picked.mean()
    flat_weights = np.asarray(weights, dtype=get_default_dtype()).reshape(-1)
    total = max(float(flat_weights.sum()), 1e-12)
    return -(picked * Tensor(flat_weights)).sum() / total


def _bce_elements(logits: Tensor, targets_t: Tensor) -> Tensor:
    """Per-element numerically stable BCE over raw logits.

    log(1 + exp(-|x|)) + max(x, 0) - x*t is the stable formulation.
    """
    abs_neg = -logits.abs()
    softplus = (abs_neg.exp() + 1.0).log()
    return logits.maximum(0.0) - logits * targets_t + softplus


def _weighted_mean(per_element: Tensor,
                   weights: Optional[np.ndarray]) -> Tensor:
    if weights is None:
        return per_element.mean()
    weight_t = Tensor(np.asarray(weights, dtype=get_default_dtype()))
    total = max(float(weight_t.data.sum()), 1e-12)
    return (per_element * weight_t).sum() / total


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Numerically stable elementwise BCE over raw logits."""
    targets_t = Tensor(np.asarray(targets, dtype=get_default_dtype()))
    return _weighted_mean(_bce_elements(logits, targets_t), weights)


def sigmoid_focal_loss(
    logits: Tensor,
    targets: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Focal loss over raw logits (RetinaNet Eq. (4), sigmoid form).

    Per element: ``FL = alpha_t * (1 - p_t)^gamma * BCE`` where
    ``p_t = p`` for positives and ``1 - p`` for negatives, with
    ``alpha = FOCAL_ALPHA`` and ``gamma = FOCAL_GAMMA``.  The
    ``(1 - p_t)^gamma`` factor down-weights already-confident easy
    examples so dense negative anchors stop drowning the rare positives.

    ``FOCAL_ALPHA = None`` disables the class balance factor, and
    ``FOCAL_GAMMA = 0`` skips the modulation entirely, making the result
    *exactly* :func:`binary_cross_entropy_with_logits` — the
    reduction-equivalence anchor the loss registry's tests pin down.
    """
    targets_arr = np.asarray(targets, dtype=get_default_dtype())
    targets_t = Tensor(targets_arr)
    per_element = _bce_elements(logits, targets_t)
    if FOCAL_GAMMA > 0:
        p = logits.sigmoid()
        # 1 - p_t == p for negatives, 1 - p for positives.
        one_minus_pt = p + targets_t * (1.0 - p * 2.0)
        per_element = per_element * one_minus_pt ** FOCAL_GAMMA
    if FOCAL_ALPHA is not None:
        alpha_t = np.where(targets_arr > 0.5, FOCAL_ALPHA, 1.0 - FOCAL_ALPHA)
        per_element = per_element * Tensor(alpha_t)
    return _weighted_mean(per_element, weights)


def smooth_l1(
    predictions: Tensor,
    targets: np.ndarray,
) -> Tensor:
    """Elementwise smooth-L1 (Huber) as in Fast R-CNN Eq. (3); returns per-element losses."""
    diff = predictions - as_tensor(np.asarray(targets, dtype=get_default_dtype()))
    abs_diff = diff.abs()
    quadratic = (diff * diff) * (0.5 / SMOOTH_L1_BETA)
    linear = abs_diff - 0.5 * SMOOTH_L1_BETA
    return where(abs_diff.data < SMOOTH_L1_BETA, quadratic, linear)


def margin_ranking_loss(positive: Tensor, negative: Tensor, margin: float = 0.1) -> Tensor:
    """Hinge loss pushing ``positive`` scores above ``negative`` by ``margin``.

    Used by the listener baseline (and the MMI variant of the speaker) to
    contrast the target proposal against distractor proposals.
    """
    return (negative - positive + margin).maximum(0.0).mean()
