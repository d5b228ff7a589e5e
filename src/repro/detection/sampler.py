"""Balanced positive/negative anchor sampling (N=256 in the paper)."""

from __future__ import annotations

import numpy as np

from repro.detection.matcher import MatchResult
from repro.utils.seeding import get_rng

#: Largest share of a sampled minibatch that may be positives.
POSITIVE_FRACTION = 0.5


class BalancedSampler:
    """Sample a fixed-size minibatch of anchors for the detection losses.

    Up to ``POSITIVE_FRACTION * batch_size`` positives are drawn; the
    remainder is filled with negatives.  Returns flat anchor indices and
    matching 0/1 labels.
    """

    def __init__(self, batch_size: int = 256):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size

    def sample(self, match: MatchResult, rng: np.random.Generator = None):
        """Return ``(indices, labels)`` arrays for one sample's anchors."""
        rng = rng or get_rng()
        positives = match.positive_indices
        negatives = match.negative_indices

        max_pos = int(round(self.batch_size * POSITIVE_FRACTION))
        if len(positives) > max_pos:
            positives = rng.choice(positives, size=max_pos, replace=False)
        num_neg = min(self.batch_size - len(positives), len(negatives))
        if len(negatives) > num_neg:
            negatives = rng.choice(negatives, size=num_neg, replace=False)

        indices = np.concatenate([positives, negatives])
        labels = np.concatenate(
            [np.ones(len(positives), dtype=np.int64), np.zeros(len(negatives), dtype=np.int64)]
        )
        return indices, labels
