"""YOLLO training losses (Eqs. 6-9)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, log_softmax
from repro.core.config import YolloConfig
from repro.detection import (
    AnchorGrid,
    AnchorMatcher,
    BalancedSampler,
    UniformTopKMatcher,
)
from repro.nn import sigmoid_focal_loss, smooth_l1, softmax_cross_entropy


@dataclass
class LossBreakdown:
    """Total loss tensor plus detached component values for logging."""

    total: Tensor
    att: float
    cls: float
    reg: float


def build_gt_mask(target_boxes: np.ndarray, grid_h: int, grid_w: int,
                  stride: float) -> np.ndarray:
    """Rasterise target boxes into ground-truth attention masks (Sec. 3.2).

    Each box is scaled to feature-map coordinates; cells inside receive
    ``1 / (w_r * h_r)`` and cells outside zero, so each mask sums to one.
    Returns ``(B, grid_h * grid_w)``.
    """
    target_boxes = np.asarray(target_boxes, dtype=np.float64)
    batch = target_boxes.shape[0]
    masks = np.zeros((batch, grid_h, grid_w))
    for b in range(batch):
        x1, y1, x2, y2 = target_boxes[b] / stride
        col1 = int(np.clip(np.floor(x1), 0, grid_w - 1))
        col2 = int(np.clip(np.ceil(x2), col1 + 1, grid_w))
        row1 = int(np.clip(np.floor(y1), 0, grid_h - 1))
        row2 = int(np.clip(np.ceil(y2), row1 + 1, grid_h))
        area = (row2 - row1) * (col2 - col1)
        masks[b, row1:row2, col1:col2] = 1.0 / area
    return masks.reshape(batch, grid_h * grid_w)


def attention_mask_loss(att_v: Tensor, gt_mask: np.ndarray) -> Tensor:
    """Eq. (6): cross-entropy between softmax(att_v) and the box mask."""
    log_p = log_softmax(att_v, axis=-1)
    return -(log_p * Tensor(gt_mask)).sum(axis=-1).mean()


def build_matcher(config: YolloConfig):
    """Anchor matcher selected by ``config.matcher``.

    ``"iou"`` is the paper's rho_high/rho_low thresholding; ``"topk"``
    is YOLOF-style uniform matching (the matcher's default 4 positives
    per target regardless of scale, IoU ignore band above 0.7).
    """
    if config.matcher == "iou":
        return AnchorMatcher(rho_high=config.rho_high, rho_low=config.rho_low)
    if config.matcher == "topk":
        return UniformTopKMatcher()
    raise ValueError(
        f"unknown matcher {config.matcher!r}; valid matchers: iou, topk")


def classification_loss(picked_logits: Tensor, labels: np.ndarray,
                        config: YolloConfig,
                        weights: Optional[np.ndarray] = None) -> Tensor:
    """Classification term over sampled anchors, per ``config.cls_loss``.

    ``"softmax_ce"`` is the paper's 2-way softmax cross-entropy;
    ``"focal"`` collapses the two logits into the target-vs-background
    margin and applies sigmoid focal loss at its default alpha 0.25 and
    gamma 2 (easy negatives are down-weighted rather than balanced
    purely by sampling).  Per-anchor ``weights`` make it a weighted mean
    instead of a plain one.
    """
    if config.cls_loss == "softmax_ce":
        return softmax_cross_entropy(picked_logits, labels, weights=weights)
    if config.cls_loss == "focal":
        margin = picked_logits[:, 1] - picked_logits[:, 0]
        return sigmoid_focal_loss(margin, labels, weights=weights)
    raise ValueError(
        f"unknown cls_loss {config.cls_loss!r}; valid losses: "
        f"softmax_ce, focal")


def detection_loss(
    cls_logits: Tensor,
    reg_offsets: Tensor,
    target_boxes: np.ndarray,
    anchor_grid: AnchorGrid,
    config: YolloConfig,
    rng: Optional[np.random.Generator] = None,
):
    """Eqs. (7)-(8): sampled classification + positive-only regression.

    Anchors are labelled by the configured matcher (rho_high/rho_low by
    default, uniform top-k as the zoo variant), ``N`` anchors per image
    are sampled (balanced positive/negative), classification is the
    configured loss over the sampled anchors, and regression is
    smooth-L1 on the positives only (the ``p_i^*`` factor).
    Returns ``(cls_loss, reg_loss)`` tensors: the batch average of each
    sample's mean over its anchors.

    Matching runs once for the whole batch; sampling runs per sample,
    in batch order, so the rng draws are those of a per-sample loop.
    The losses then run once over the anchors gathered from the whole
    batch, each weighted by ``1 / (n_b * B)`` where ``n_b`` is its
    sample's anchor count.
    """
    anchors = anchor_grid.all_anchors()
    matcher = build_matcher(config)
    sampler = BalancedSampler(batch_size=config.anchor_batch)
    batch = cls_logits.shape[0]

    sampled: List[np.ndarray] = []
    labels: List[np.ndarray] = []
    regressed: List[np.ndarray] = []
    offset_targets: List[np.ndarray] = []
    for match in matcher.match_batch(anchors, target_boxes):
        indices, sample_labels = sampler.sample(match, rng=rng)
        sampled.append(indices)
        labels.append(sample_labels)

        if config.regress_ignore_band:
            chosen = np.flatnonzero(match.ious >= config.rho_low)
            if len(chosen) == 0:
                chosen = match.positive_indices
        else:
            chosen = match.positive_indices
        regressed.append(chosen)
        offset_targets.append(match.offsets[chosen])

    def gather(values: Tensor, per_sample: List[np.ndarray]):
        """``values[b, i]`` for every sample's indices, and each one's weight."""
        counts = [len(indices) for indices in per_sample]
        rows = np.repeat(np.arange(batch), counts)
        weights = np.concatenate([np.full(n, 1.0 / (n * batch)) for n in counts])
        return values[rows, np.concatenate(per_sample)], weights

    picked_logits, cls_weights = gather(cls_logits, sampled)
    cls_loss = classification_loss(picked_logits, np.concatenate(labels), config,
                                   weights=cls_weights)
    picked_offsets, reg_weights = gather(reg_offsets, regressed)
    per_anchor = smooth_l1(picked_offsets, np.concatenate(offset_targets)).sum(axis=-1)
    reg_loss = (per_anchor * Tensor(reg_weights)).sum()
    return cls_loss, reg_loss


def yollo_loss(
    attention_masks: Sequence[Tensor],
    cls_logits: Tensor,
    reg_offsets: Tensor,
    target_boxes: np.ndarray,
    anchor_grid: AnchorGrid,
    config: YolloConfig,
    rng: Optional[np.random.Generator] = None,
) -> LossBreakdown:
    """Eq. (9): ``L = L_att + L_cls + lambda * L_reg``.

    ``attention_masks`` are the raw per-module masks from the Rel2Att
    stack; every module is supervised (deep supervision) and ``L_att``
    is their mean.
    """
    gt_mask = build_gt_mask(
        target_boxes, anchor_grid.grid_h, anchor_grid.grid_w, anchor_grid.stride
    )
    att_terms = [attention_mask_loss(mask, gt_mask) for mask in attention_masks]
    att_loss = sum(att_terms[1:], att_terms[0]) / float(len(att_terms))

    cls_loss, reg_loss = detection_loss(
        cls_logits, reg_offsets, target_boxes, anchor_grid, config, rng=rng
    )
    total = config.lambda_att * att_loss + cls_loss + config.lambda_reg * reg_loss
    return LossBreakdown(
        total=total,
        att=float(att_loss.data),
        cls=float(cls_loss.data),
        reg=float(reg_loss.data),
    )
