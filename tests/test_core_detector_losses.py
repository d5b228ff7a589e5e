"""Target detection network and the YOLLO losses (Eqs. 6-9)."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import TargetDetectionNetwork, YolloConfig
from repro.core.losses import (
    attention_mask_loss,
    build_gt_mask,
    build_matcher,
    classification_loss,
    detection_loss,
    yollo_loss,
)
from repro.detection import BalancedSampler
from repro.nn import smooth_l1


def config(**overrides):
    base = YolloConfig(backbone="tiny", d_model=8, head_hidden=10, max_query_length=4)
    return base.with_overrides(**overrides) if overrides else base


@pytest.fixture
def detector():
    return TargetDetectionNetwork(config(), grid_h=6, grid_w=9, stride=8)


class TestDetector:
    def test_output_shapes(self, detector):
        features = Tensor(np.random.default_rng(0).random((2, 8, 6, 9)))
        cls, reg = detector(features)
        num_anchors = detector.anchor_grid.num_anchors
        assert cls.shape == (2, num_anchors, 2)
        assert reg.shape == (2, num_anchors, 4)

    def test_anchor_grid_matches_config(self, detector):
        assert detector.anchor_grid.num_anchors_per_cell == 9

    def test_channel_to_anchor_alignment(self, detector):
        """Perturbing one cell's features only changes that cell's anchors."""
        base = np.zeros((1, 8, 6, 9))
        bumped = base.copy()
        bumped[0, :, 2, 3] = 5.0
        cls_base, _ = detector(Tensor(base))
        cls_bump, _ = detector(Tensor(bumped))
        diff = np.abs(cls_base.data - cls_bump.data).sum(axis=-1)[0]
        changed = np.flatnonzero(diff > 1e-9)
        cells = {detector.anchor_grid.cell_index(int(i))[:2] for i in changed}
        # The 3x3 head convs spread influence to neighbouring cells only.
        for row, col in cells:
            assert abs(row - 2) <= 2 and abs(col - 3) <= 2


class TestGtMask:
    def test_sums_to_one(self):
        boxes = np.array([[8.0, 8.0, 24.0, 24.0], [0.0, 0.0, 7.0, 7.0]])
        masks = build_gt_mask(boxes, grid_h=6, grid_w=9, stride=8)
        assert np.allclose(masks.sum(axis=1), 1.0)

    def test_mass_inside_box(self):
        boxes = np.array([[16.0, 8.0, 32.0, 24.0]])
        mask = build_gt_mask(boxes, 6, 9, 8).reshape(6, 9)
        assert mask[1:3, 2:4].sum() == pytest.approx(1.0)
        assert mask[0].sum() == 0.0

    def test_tiny_box_still_covered(self):
        boxes = np.array([[1.0, 1.0, 2.0, 2.0]])
        mask = build_gt_mask(boxes, 6, 9, 8)
        assert mask.sum() == pytest.approx(1.0)


class TestAttentionLoss:
    def test_optimal_at_matching_distribution(self):
        gt = build_gt_mask(np.array([[8.0, 8.0, 24.0, 24.0]]), 6, 9, 8)
        aligned = Tensor(np.log(gt + 1e-9))
        uniform = Tensor(np.zeros_like(gt))
        assert float(attention_mask_loss(aligned, gt).data) < float(
            attention_mask_loss(uniform, gt).data
        )

    def test_gradient_direction(self):
        gt = build_gt_mask(np.array([[8.0, 8.0, 24.0, 24.0]]), 6, 9, 8)
        att = Tensor(np.zeros_like(gt), requires_grad=True)
        attention_mask_loss(att, gt).backward()
        inside = gt[0] > 0
        # Gradient pushes attention up inside the box, down outside.
        assert att.grad[0][inside].mean() < 0
        assert att.grad[0][~inside].mean() > 0


class TestDetectionLoss:
    def test_returns_finite_losses(self, detector):
        cfg = config()
        rng = np.random.default_rng(0)
        cls = Tensor(rng.normal(size=(2, detector.anchor_grid.num_anchors, 2)),
                     requires_grad=True)
        reg = Tensor(rng.normal(size=(2, detector.anchor_grid.num_anchors, 4)),
                     requires_grad=True)
        boxes = np.array([[8.0, 8.0, 24.0, 24.0], [30.0, 20.0, 50.0, 40.0]])
        cls_loss, reg_loss = detection_loss(cls, reg, boxes, detector.anchor_grid, cfg)
        assert np.isfinite(float(cls_loss.data))
        assert np.isfinite(float(reg_loss.data))

    def test_perfect_predictions_give_small_loss(self, detector):
        from repro.detection import AnchorMatcher

        cfg = config()
        anchors = detector.anchor_grid.all_anchors()
        box = np.array([[8.0, 8.0, 24.0, 24.0]])
        match = AnchorMatcher(cfg.rho_high, cfg.rho_low).match(anchors, box[0])
        logits = np.zeros((1, len(anchors), 2))
        logits[0, :, 0] = 10.0
        logits[0, match.positive_indices, 0] = 0.0
        logits[0, match.positive_indices, 1] = 10.0
        reg = np.zeros((1, len(anchors), 4))
        reg[0] = match.offsets
        cls_loss, reg_loss = detection_loss(
            Tensor(logits), Tensor(reg), box, detector.anchor_grid, cfg
        )
        assert float(cls_loss.data) < 1e-3
        assert float(reg_loss.data) < 1e-6


def reference_detection_loss(cls_logits, reg_offsets, target_boxes, anchor_grid,
                             config, rng):
    """Eqs. (7)-(8) as a per-sample loop: each sample's mean losses,
    averaged over the batch."""
    anchors = anchor_grid.all_anchors()
    matcher = build_matcher(config)
    sampler = BalancedSampler(batch_size=config.anchor_batch)
    cls_terms, reg_terms = [], []
    for b in range(cls_logits.shape[0]):
        match = matcher.match(anchors, target_boxes[b])
        indices, labels = sampler.sample(match, rng=rng)
        cls_terms.append(classification_loss(cls_logits[b][indices], labels, config))
        regressed = match.positive_indices
        if config.regress_ignore_band:
            band = np.flatnonzero(match.ious >= config.rho_low)
            regressed = band if len(band) else regressed
        offsets = smooth_l1(reg_offsets[b][regressed], match.offsets[regressed])
        reg_terms.append(offsets.sum(axis=-1).mean())
    batch = float(cls_logits.shape[0])
    return sum(cls_terms) / batch, sum(reg_terms) / batch


class TestBatchedDetectionLoss:
    """The one-gather detection loss equals the per-sample loop."""

    # The third box is too small for any anchor to reach rho_low, so the
    # ignore band falls back to the forced positive.
    BOXES = np.array([[8.0, 8.0, 24.0, 24.0], [30.0, 10.0, 70.0, 46.0],
                      [40.0, 20.0, 41.0, 21.0]])

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("cls_loss", ["softmax_ce", "focal"])
    @pytest.mark.parametrize("matcher", ["iou", "topk"])
    @pytest.mark.parametrize("band", [False, True], ids=["positives", "ignore-band"])
    def test_matches_per_sample_loop(self, detector, cls_loss, matcher, band):
        cfg = config(cls_loss=cls_loss, matcher=matcher, regress_ignore_band=band,
                     anchor_batch=64)
        num_anchors = detector.anchor_grid.num_anchors
        data = np.random.default_rng(5)
        cls_data = data.normal(size=(3, num_anchors, 2))
        reg_data = data.normal(size=(3, num_anchors, 4))

        results = []
        for loss_fn in (detection_loss, reference_detection_loss):
            cls = Tensor(cls_data, requires_grad=True)
            reg = Tensor(reg_data, requires_grad=True)
            rng = np.random.default_rng(11)
            cls_loss_t, reg_loss_t = loss_fn(cls, reg, self.BOXES, detector.anchor_grid,
                                             cfg, rng)
            (cls_loss_t + reg_loss_t * 0.5).backward()
            results.append((float(cls_loss_t.data), float(reg_loss_t.data),
                            cls.grad, reg.grad, rng.bit_generator.state))
        (cls_b, reg_b, gcls_b, greg_b, state_b), (cls_r, reg_r, gcls_r, greg_r, state_r) = results
        assert cls_b == pytest.approx(cls_r, rel=1e-12)
        assert reg_b == pytest.approx(reg_r, rel=1e-12)
        np.testing.assert_allclose(gcls_b, gcls_r, rtol=1e-12, atol=1e-17)
        np.testing.assert_allclose(greg_b, greg_r, rtol=1e-12, atol=1e-17)
        assert state_b == state_r


class TestTrainerTrajectory:
    """Ten ``YolloTrainer`` steps give pinned losses.

    The pins were first taken from the per-sample loss loop, before the
    detection loss was batched.  When batches and anchor draws moved to
    the seeded schedule (``YolloTrainer.global_batch``), the unchanged
    batched loss, driven by that schedule, gave these values.  The
    Rel2Att self-attention gate then re-pinned them: the first loss is
    the ``use_self_attention=False`` model's, bit for bit.
    """

    PINNED = {
        "paper": [10.350683166390702, 9.21539882962526, 8.975624157827317,
                  8.934440914072203, 8.912698449553833, 8.840165993438982,
                  8.883207560592874, 8.821670216825828, 8.846978564945443,
                  8.812224173040079],
        "focal-topk-band": [9.78453678903728, 8.645512424016191, 8.412378718197765,
                            8.378005074627827, 8.353921191567897, 8.282603409049056,
                            8.331131101369445, 8.266123153175945, 8.295162953443633,
                            8.262354843413558],
    }
    OVERRIDES = {
        "paper": {},
        "focal-topk-band": dict(cls_loss="focal", matcher="topk", regress_ignore_band=True),
    }

    @pytest.mark.usefixtures("float64")
    @pytest.mark.parametrize("variant", ["paper", "focal-topk-band"])
    def test_loss_trajectory_is_pinned(self, variant):
        from repro.core import YolloModel, YolloTrainer
        from repro.data import REFCOCO, build_dataset
        from repro.utils import seed_everything

        seed_everything(0)
        dataset = build_dataset(REFCOCO.scaled(0.04))
        cfg = YolloConfig(backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16,
                          head_hidden=16, num_rel2att=2,
                          max_query_length=max(6, dataset.max_query_length),
                          batch_size=4, **self.OVERRIDES[variant])
        trainer = YolloTrainer(YolloModel(cfg, vocab_size=len(dataset.vocab)), dataset, cfg)
        losses = []
        for _ in range(10):
            loss = trainer.forward_backward()
            trainer.apply_step(loss)
            losses.append(loss)
        np.testing.assert_allclose(losses, self.PINNED[variant], rtol=1e-10, atol=0)


class TestYolloLoss:
    def test_breakdown_components(self, detector):
        cfg = config()
        rng = np.random.default_rng(1)
        num_anchors = detector.anchor_grid.num_anchors
        masks = [Tensor(rng.normal(size=(1, 54)), requires_grad=True) for _ in range(3)]
        cls = Tensor(rng.normal(size=(1, num_anchors, 2)), requires_grad=True)
        reg = Tensor(rng.normal(size=(1, num_anchors, 4)), requires_grad=True)
        boxes = np.array([[8.0, 8.0, 24.0, 24.0]])
        breakdown = yollo_loss(masks, cls, reg, boxes, detector.anchor_grid, cfg)
        total = cfg.lambda_att * breakdown.att + breakdown.cls + cfg.lambda_reg * breakdown.reg
        assert float(breakdown.total.data) == pytest.approx(total, rel=1e-6)

    def test_every_module_supervised(self, detector):
        cfg = config()
        rng = np.random.default_rng(2)
        num_anchors = detector.anchor_grid.num_anchors
        masks = [
            Tensor(rng.normal(size=(1, 54)), requires_grad=True) for _ in range(3)
        ]
        cls = Tensor(rng.normal(size=(1, num_anchors, 2)))
        reg = Tensor(rng.normal(size=(1, num_anchors, 4)))
        boxes = np.array([[8.0, 8.0, 24.0, 24.0]])
        breakdown = yollo_loss(masks, cls, reg, boxes, detector.anchor_grid, cfg)
        breakdown.total.backward()
        assert all(mask.grad is not None for mask in masks)
