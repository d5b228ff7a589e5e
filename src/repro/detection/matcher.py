"""Anchor labelling: the paper's IoU rule and YOLOF-style uniform top-k."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.detection.boxes import boxes_to_cxcywh, encode_offsets, iou_matrix

#: Whether :class:`AnchorMatcher` forces the best-IoU anchor positive
#: when no anchor clears ``rho_high``.
FORCE_MATCH = True
#: Positives per target of :class:`UniformTopKMatcher`.
TOPK = 4
#: IoU at or above which a non-selected anchor is ignored, not negative.
IGNORE_THRESHOLD = 0.7


@dataclass
class MatchResult:
    """Per-anchor supervision produced by :class:`AnchorMatcher`.

    Attributes
    ----------
    labels:
        ``1`` positive, ``0`` negative, ``-1`` ignored (between thresholds).
    offsets:
        Regression targets toward the ground-truth box, per anchor.
    ious:
        IoU of every anchor with the ground-truth box.
    """

    labels: np.ndarray
    offsets: np.ndarray
    ious: np.ndarray

    @property
    def positive_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    @property
    def negative_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 0)


class AnchorMatcher:
    """Label anchors against the single target box of a grounding sample.

    Anchors with IoU >= ``rho_high`` become positives; anchors with
    IoU < ``rho_low`` become negatives; the band in between is ignored.
    If no anchor clears ``rho_high``, the best-IoU anchor is forced
    positive (:data:`FORCE_MATCH`) so every sample has at least one
    positive (standard RPN practice, required because the target is a
    single box).
    """

    def __init__(self, rho_high: float = 0.5, rho_low: float = 0.25):
        if not 0.0 <= rho_low <= rho_high <= 1.0:
            raise ValueError(f"invalid thresholds: rho_low={rho_low}, rho_high={rho_high}")
        self.rho_high = rho_high
        self.rho_low = rho_low

    def match(self, anchors: np.ndarray, target_box: np.ndarray) -> MatchResult:
        """Produce labels and regression targets for one ground-truth box."""
        return self.match_batch(anchors, np.reshape(target_box, (1, 4)))[0]

    def match_batch(self, anchors: np.ndarray, target_boxes: np.ndarray) -> List[MatchResult]:
        """:meth:`match` for each of ``(B, 4)`` boxes, computed as one batch."""
        targets = _as_targets(target_boxes)
        ious = iou_matrix(targets, anchors)  # (B, A)
        labels = np.full(ious.shape, -1, dtype=np.int64)
        labels[ious < self.rho_low] = 0
        labels[ious >= self.rho_high] = 1
        if FORCE_MATCH:
            unmatched = np.flatnonzero(~(labels == 1).any(axis=1))
            labels[unmatched, ious[unmatched].argmax(axis=1)] = 1
        return _results(labels, anchors, targets, ious)


class UniformTopKMatcher:
    """YOLOF-style uniform matching for the single-target grounding case.

    Instead of thresholding IoU (which hands large objects many positives
    and small objects almost none), the :data:`TOPK` anchors whose centers
    lie closest to the target's center become the positives — *exactly*
    that many per target, uniformly across object scales.  Everything else
    is negative, except non-selected anchors whose IoU with the target is
    at least :data:`IGNORE_THRESHOLD`: those are close enough that pushing
    them to background would fight the regression head, so they are ignored
    (label ``-1``), mirroring the reference implementation's
    ``ignore_thresh`` band.

    Ties in center distance are broken by anchor index (``argsort`` is
    stable over the lexicographic key), so matching is deterministic.
    """

    def match(self, anchors: np.ndarray, target_box: np.ndarray) -> MatchResult:
        """Produce labels and regression targets for one ground-truth box."""
        return self.match_batch(anchors, np.reshape(target_box, (1, 4)))[0]

    def match_batch(self, anchors: np.ndarray, target_boxes: np.ndarray) -> List[MatchResult]:
        """:meth:`match` for each of ``(B, 4)`` boxes, computed as one batch."""
        anchors = np.asarray(anchors, dtype=np.float64)
        targets = _as_targets(target_boxes)
        ious = iou_matrix(targets, anchors)  # (B, A)
        anchor_centers = boxes_to_cxcywh(anchors)[:, :2]
        target_centers = boxes_to_cxcywh(targets)[:, None, :2]
        distances = np.abs(anchor_centers - target_centers).sum(axis=-1)

        k = min(TOPK, len(anchors))
        selected = np.argsort(distances, axis=1, kind="stable")[:, :k]
        labels = np.zeros(ious.shape, dtype=np.int64)
        labels[ious >= IGNORE_THRESHOLD] = -1
        labels[np.arange(len(targets))[:, None], selected] = 1
        return _results(labels, anchors, targets, ious)


def _as_targets(target_boxes: np.ndarray) -> np.ndarray:
    return np.asarray(target_boxes, dtype=np.float64).reshape(-1, 4)


def _results(labels: np.ndarray, anchors: np.ndarray, targets: np.ndarray,
             ious: np.ndarray) -> List[MatchResult]:
    """One :class:`MatchResult` per target row; offsets encoded at once."""
    anchors = np.asarray(anchors, dtype=np.float64)
    offsets = encode_offsets(anchors[None], targets[:, None])  # (B, A, 4)
    return [MatchResult(labels=labels[b], offsets=offsets[b], ious=ious[b])
            for b in range(len(targets))]
