"""Anchor matcher, balanced sampler, NMS."""

import numpy as np
import pytest

from repro.detection import AnchorMatcher, BalancedSampler, nms


def anchors_around(target, offsets):
    """Build anchors by shifting a target box by fractions of its width."""
    target = np.asarray(target, dtype=np.float64)
    width = target[2] - target[0]
    return np.stack([target + np.array([o, 0, o, 0]) * width for o in offsets])


class TestAnchorMatcher:
    def test_threshold_labels(self):
        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = anchors_around(target, [0.0, 0.4, 2.0])  # IoU 1.0, ~0.43, 0.0
        match = AnchorMatcher(rho_high=0.5, rho_low=0.25).match(anchors, target)
        assert match.labels[0] == 1
        assert match.labels[1] == -1  # ignore band
        assert match.labels[2] == 0

    def test_force_match_when_no_positive(self):
        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = anchors_around(target, [0.8, 2.0])
        match = AnchorMatcher().match(anchors, target)
        assert (match.labels == 1).sum() == 1
        assert match.labels[0] == 1  # best IoU anchor forced positive

    def test_force_match_disabled(self):
        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = anchors_around(target, [0.8, 2.0])
        match = AnchorMatcher(force_match=False).match(anchors, target)
        assert not (match.labels == 1).any()

    def test_offsets_decode_back_to_target(self):
        from repro.detection import decode_offsets

        target = np.array([10.0, 12.0, 30.0, 28.0])
        anchors = anchors_around(target, [0.1, 0.3])
        match = AnchorMatcher().match(anchors, target)
        decoded = decode_offsets(anchors, match.offsets)
        assert np.allclose(decoded, np.broadcast_to(target, decoded.shape), atol=1e-6)

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            AnchorMatcher(rho_high=0.2, rho_low=0.5)

    def test_index_properties(self):
        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = anchors_around(target, [0.0, 2.0])
        match = AnchorMatcher().match(anchors, target)
        assert match.positive_indices.tolist() == [0]
        assert match.negative_indices.tolist() == [1]


class TestBalancedSampler:
    def _match(self, positives, negatives):
        from repro.detection import MatchResult

        labels = np.concatenate(
            [np.ones(positives, dtype=np.int64), np.zeros(negatives, dtype=np.int64)]
        )
        total = positives + negatives
        return MatchResult(
            labels=labels, offsets=np.zeros((total, 4)), ious=np.zeros(total)
        )

    def test_caps_positives(self):
        sampler = BalancedSampler(batch_size=8, positive_fraction=0.5)
        indices, labels = sampler.sample(self._match(20, 20), np.random.default_rng(0))
        assert (labels == 1).sum() == 4
        assert len(indices) == 8

    def test_takes_all_when_scarce(self):
        sampler = BalancedSampler(batch_size=16)
        indices, labels = sampler.sample(self._match(2, 3), np.random.default_rng(0))
        assert (labels == 1).sum() == 2
        assert (labels == 0).sum() == 3

    def test_no_duplicate_indices(self):
        sampler = BalancedSampler(batch_size=10)
        indices, _ = sampler.sample(self._match(30, 30), np.random.default_rng(0))
        assert len(np.unique(indices)) == len(indices)

    def test_validation(self):
        with pytest.raises(ValueError):
            BalancedSampler(batch_size=0)
        with pytest.raises(ValueError):
            BalancedSampler(positive_fraction=0.0)


class TestNMS:
    def test_suppresses_overlapping(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [50, 50, 60, 60]], dtype=float)
        scores = np.array([0.9, 0.8, 0.7])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert keep.tolist() == [0, 2]

    def test_keeps_all_disjoint(self):
        boxes = np.array([[0, 0, 5, 5], [10, 10, 15, 15]], dtype=float)
        keep = nms(boxes, np.array([0.5, 0.9]))
        assert sorted(keep.tolist()) == [0, 1]
        assert keep[0] == 1  # sorted by score

    def test_max_keep(self):
        boxes = np.stack([[i * 20.0, 0.0, i * 20.0 + 10, 10.0] for i in range(5)])
        keep = nms(boxes, np.linspace(1, 0.5, 5), max_keep=2)
        assert len(keep) == 2

    def test_empty_input(self):
        assert len(nms(np.empty((0, 4)), np.empty(0))) == 0

    def test_tied_scores_keep_index_order(self):
        # Rounded scores tie often; an unstable sort kept index 497
        # first here while argmax (the top-1 answer) is 26.
        scores = np.round(np.random.default_rng(0).random(576), 1)
        boxes = np.stack([[i * 20.0, 0.0, i * 20.0 + 10, 10.0]
                          for i in range(len(scores))])
        keep = nms(boxes, scores)
        assert keep[0] == scores.argmax()
        assert keep.tolist() == np.argsort(-scores, kind="stable").tolist()
        assert nms(boxes, scores, max_keep=1).tolist() == [scores.argmax()]


class TestUniformTopKMatcher:
    def _grid_anchors(self, n=6, size=10.0):
        """An n x n grid of size x size anchors tiling [0, n*size]^2."""
        from itertools import product

        return np.array([
            [x * size, y * size, (x + 1) * size, (y + 1) * size]
            for x, y in product(range(n), range(n))
        ])

    def test_exactly_k_positives_regardless_of_scale(self):
        from repro.detection import UniformTopKMatcher

        anchors = self._grid_anchors()
        matcher = UniformTopKMatcher(topk=4, ignore_threshold=0.7)
        for target in (
            np.array([12.0, 12.0, 18.0, 18.0]),    # small object
            np.array([5.0, 5.0, 55.0, 55.0]),      # large object
            np.array([0.0, 0.0, 60.0, 60.0]),      # whole image
        ):
            match = matcher.match(anchors, target)
            assert (match.labels == 1).sum() == 4, (
                f"target {target.tolist()} did not get exactly k positives")

    def test_k_clamped_to_anchor_count(self):
        from repro.detection import UniformTopKMatcher

        anchors = self._grid_anchors(n=1)
        match = UniformTopKMatcher(topk=4).match(
            anchors, np.array([2.0, 2.0, 8.0, 8.0]))
        assert (match.labels == 1).sum() == 1

    def test_positives_are_the_nearest_centers(self):
        from repro.detection import UniformTopKMatcher

        anchors = self._grid_anchors()
        target = np.array([8.0, 8.0, 22.0, 22.0])  # centered at (15, 15)
        match = UniformTopKMatcher(topk=4).match(anchors, target)
        from repro.detection.boxes import boxes_to_cxcywh

        centers = boxes_to_cxcywh(anchors)[:, :2]
        distances = np.abs(centers - np.array([15.0, 15.0])).sum(axis=1)
        chosen = np.flatnonzero(match.labels == 1)
        cutoff = np.sort(distances)[3]
        assert (distances[chosen] <= cutoff).all()

    def test_high_iou_nonselected_anchors_are_ignored(self):
        from repro.detection import UniformTopKMatcher

        target = np.array([10.0, 10.0, 30.0, 30.0])
        # one exact-overlap anchor, one slight shift (IoU ~0.85), one far
        anchors = np.stack([
            target,
            target + np.array([1.0, 0.0, 1.0, 0.0]),
            target + np.array([100.0, 0.0, 100.0, 0.0]),
        ])
        match = UniformTopKMatcher(topk=1, ignore_threshold=0.7).match(
            anchors, target)
        assert match.labels[0] == 1          # nearest center: positive
        assert match.labels[1] == -1, (
            "IoU above ignore_threshold must be ignored, not negative")
        assert match.labels[2] == 0

    def test_ignore_threshold_one_disables_band(self):
        from repro.detection import UniformTopKMatcher

        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = np.stack([target,
                            target + np.array([1.0, 0.0, 1.0, 0.0])])
        match = UniformTopKMatcher(topk=1, ignore_threshold=1.0).match(
            anchors, target)
        assert match.labels.tolist() == [1, 0]

    def test_deterministic_tie_break(self):
        from repro.detection import UniformTopKMatcher

        anchors = self._grid_anchors()
        target = np.array([10.0, 10.0, 30.0, 30.0])
        matcher = UniformTopKMatcher(topk=4)
        one = matcher.match(anchors, target).labels
        two = matcher.match(anchors[::1], target).labels
        assert one.tolist() == two.tolist()

    def test_offsets_decode_back_to_target(self):
        from repro.detection import UniformTopKMatcher, decode_offsets

        anchors = self._grid_anchors()
        target = np.array([12.0, 14.0, 31.0, 27.0])
        match = UniformTopKMatcher(topk=4).match(anchors, target)
        positives = match.positive_indices
        decoded = decode_offsets(anchors[positives], match.offsets[positives])
        assert np.allclose(decoded, np.broadcast_to(target, decoded.shape),
                           atol=1e-6)

    def test_rejects_bad_parameters(self):
        from repro.detection import UniformTopKMatcher

        with pytest.raises(ValueError):
            UniformTopKMatcher(topk=0)
        with pytest.raises(ValueError):
            UniformTopKMatcher(ignore_threshold=1.5)
