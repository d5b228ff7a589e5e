"""Anchor matcher, balanced sampler, NMS."""

import importlib

import numpy as np
import pytest

from repro.detection import AnchorMatcher, BalancedSampler, iou_matrix, nms
from repro.detection import matcher as matcher_module


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

    def test_force_match_disabled(self, monkeypatch):
        monkeypatch.setattr(matcher_module, "FORCE_MATCH", False)
        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = anchors_around(target, [0.8, 2.0])
        match = AnchorMatcher().match(anchors, target)
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
        sampler = BalancedSampler(batch_size=8)
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

    @staticmethod
    def _random_boxes(seed, n=300):
        """Overlapping boxes with rounded (often tied) scores."""
        rng = np.random.default_rng(seed)
        corners = rng.uniform(0.0, 60.0, size=(n, 2))
        sizes = rng.uniform(2.0, 30.0, size=(n, 2))
        boxes = np.concatenate([corners, corners + sizes], axis=1)
        return boxes, np.round(rng.random(n), 1)

    @pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.6, 0.9])
    @pytest.mark.parametrize("max_keep", [None, 1, 5, 20])
    def test_matches_dense_reference(self, iou_threshold, max_keep):
        def dense_nms(boxes, scores):
            # The full n x n IoU matrix, built up front.
            order = np.argsort(-scores, kind="stable")
            ious = iou_matrix(boxes, boxes)
            keep = []
            suppressed = np.zeros(len(boxes), dtype=bool)
            for idx in order:
                if suppressed[idx]:
                    continue
                keep.append(idx)
                if max_keep is not None and len(keep) >= max_keep:
                    break
                suppressed |= ious[idx] > iou_threshold
                suppressed[idx] = True
            return np.asarray(keep, dtype=np.int64)

        for seed in range(4):
            boxes, scores = self._random_boxes(seed)
            expected = dense_nms(boxes, scores)
            keep = nms(boxes, scores, iou_threshold=iou_threshold,
                       max_keep=max_keep)
            assert keep.dtype == np.int64
            assert keep.tolist() == expected.tolist()

    @pytest.mark.parametrize("max_keep", [1, 5, 20])
    def test_never_builds_the_full_iou_matrix(self, monkeypatch, max_keep):
        module = importlib.import_module("repro.detection.nms")
        calls = []

        def counting_iou(boxes_a, boxes_b):
            out = iou_matrix(boxes_a, boxes_b)
            calls.append(out.shape)
            return out

        monkeypatch.setattr(module, "iou_matrix", counting_iou)
        boxes, scores = self._random_boxes(0)
        keep = nms(boxes, scores, iou_threshold=0.5, max_keep=max_keep)
        assert len(keep) == max_keep
        assert len(calls) <= len(keep) - 1
        assert all(rows <= max_keep - 1 for rows, _ in calls)
        assert sum(rows for rows, _ in calls) < len(boxes)


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
        matcher = UniformTopKMatcher()
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
        match = UniformTopKMatcher().match(
            anchors, np.array([2.0, 2.0, 8.0, 8.0]))
        assert (match.labels == 1).sum() == 1

    def test_positives_are_the_nearest_centers(self):
        from repro.detection import UniformTopKMatcher

        anchors = self._grid_anchors()
        target = np.array([8.0, 8.0, 22.0, 22.0])  # centered at (15, 15)
        match = UniformTopKMatcher().match(anchors, target)
        from repro.detection.boxes import boxes_to_cxcywh

        centers = boxes_to_cxcywh(anchors)[:, :2]
        distances = np.abs(centers - np.array([15.0, 15.0])).sum(axis=1)
        chosen = np.flatnonzero(match.labels == 1)
        cutoff = np.sort(distances)[3]
        assert (distances[chosen] <= cutoff).all()

    def test_high_iou_nonselected_anchors_are_ignored(self, monkeypatch):
        from repro.detection import UniformTopKMatcher

        monkeypatch.setattr(matcher_module, "TOPK", 1)
        target = np.array([10.0, 10.0, 30.0, 30.0])
        # one exact-overlap anchor, one slight shift (IoU ~0.85), one far
        anchors = np.stack([
            target,
            target + np.array([1.0, 0.0, 1.0, 0.0]),
            target + np.array([100.0, 0.0, 100.0, 0.0]),
        ])
        match = UniformTopKMatcher().match(anchors, target)
        assert match.labels[0] == 1          # nearest center: positive
        assert match.labels[1] == -1, (
            "IoU above IGNORE_THRESHOLD must be ignored, not negative")
        assert match.labels[2] == 0

    def test_ignore_threshold_one_disables_band(self, monkeypatch):
        from repro.detection import UniformTopKMatcher

        monkeypatch.setattr(matcher_module, "TOPK", 1)
        monkeypatch.setattr(matcher_module, "IGNORE_THRESHOLD", 1.0)
        target = np.array([10.0, 10.0, 30.0, 30.0])
        anchors = np.stack([target,
                            target + np.array([1.0, 0.0, 1.0, 0.0])])
        match = UniformTopKMatcher().match(anchors, target)
        assert match.labels.tolist() == [1, 0]

    def test_deterministic_tie_break(self):
        from repro.detection import UniformTopKMatcher

        anchors = self._grid_anchors()
        target = np.array([10.0, 10.0, 30.0, 30.0])
        matcher = UniformTopKMatcher()
        one = matcher.match(anchors, target).labels
        two = matcher.match(anchors[::1], target).labels
        assert one.tolist() == two.tolist()

    def test_offsets_decode_back_to_target(self):
        from repro.detection import UniformTopKMatcher, decode_offsets

        anchors = self._grid_anchors()
        target = np.array([12.0, 14.0, 31.0, 27.0])
        match = UniformTopKMatcher().match(anchors, target)
        positives = match.positive_indices
        decoded = decode_offsets(anchors[positives], match.offsets[positives])
        assert np.allclose(decoded, np.broadcast_to(target, decoded.shape),
                           atol=1e-6)


def reference_match(matcher, anchors, target_box):
    """The one-box matchers before matching was batched."""
    from repro.detection import UniformTopKMatcher
    from repro.detection.boxes import boxes_to_cxcywh, encode_offsets

    anchors = np.asarray(anchors, dtype=np.float64)
    target = np.asarray(target_box, dtype=np.float64).reshape(1, 4)
    ious = iou_matrix(anchors, target)[:, 0]
    if isinstance(matcher, UniformTopKMatcher):
        distances = np.abs(boxes_to_cxcywh(anchors)[:, :2]
                           - boxes_to_cxcywh(target)[0, :2]).sum(axis=1)
        selected = np.argsort(distances, kind="stable")[
            :min(matcher_module.TOPK, len(anchors))]
        labels = np.zeros(len(anchors), dtype=np.int64)
        labels[ious >= matcher_module.IGNORE_THRESHOLD] = -1
        labels[selected] = 1
    else:
        labels = np.full(len(anchors), -1, dtype=np.int64)
        labels[ious < matcher.rho_low] = 0
        labels[ious >= matcher.rho_high] = 1
        if matcher_module.FORCE_MATCH and not (labels == 1).any():
            labels[int(ious.argmax())] = 1
    offsets = encode_offsets(anchors, np.broadcast_to(target, anchors.shape))
    return labels, offsets, ious


class TestMatchBatch:
    """``match_batch`` gives every box the bytes the one-box loop gave."""

    @pytest.mark.parametrize("make,constants", [
        (lambda m: m.AnchorMatcher(), {}),
        (lambda m: m.AnchorMatcher(rho_high=0.9, rho_low=0.1),
         {"FORCE_MATCH": False}),
        (lambda m: m.UniformTopKMatcher(), {}),
        (lambda m: m.UniformTopKMatcher(),
         {"TOPK": 1, "IGNORE_THRESHOLD": 0.3}),
    ], ids=["iou", "iou-no-force", "topk", "topk-1"])
    def test_equals_one_box_loop(self, make, constants, monkeypatch):
        from repro import detection
        from repro.detection.anchors import AnchorGrid

        for name, value in constants.items():
            monkeypatch.setattr(matcher_module, name, value)
        matcher = make(detection)
        anchors = AnchorGrid(6, 9, 8).all_anchors()
        rng = np.random.default_rng(3)
        corners = rng.uniform(-10.0, 80.0, size=(16, 2))
        boxes = np.concatenate([corners, corners + rng.uniform(0.5, 50.0, (16, 2))], 1)
        boxes[3, 2:] = boxes[3, :2]  # a zero-area box: no anchor overlaps it
        matches = matcher.match_batch(anchors, boxes)
        assert len(matches) == len(boxes)
        for match, box in zip(matches, boxes):
            for got, want in zip((match.labels, match.offsets, match.ious),
                                 reference_match(matcher, anchors, box)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
