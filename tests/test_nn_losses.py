"""Loss functions: cross-entropy, BCE, smooth-L1, margin ranking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, gradient_check
from repro.nn import (
    binary_cross_entropy_with_logits,
    margin_ranking_loss,
    smooth_l1,
    softmax_cross_entropy,
)
from repro.nn import losses


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestSoftmaxCrossEntropy:
    def test_matches_manual_computation(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        targets = np.array([2])
        expected = -np.log(np.exp(3.0) / np.exp([1.0, 2.0, 3.0]).sum())
        loss = softmax_cross_entropy(Tensor(logits), targets)
        assert np.isclose(float(loss.data), expected)

    def test_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0]]))
        assert float(softmax_cross_entropy(logits, np.array([0])).data) < 1e-6

    def test_weights_ignore_entries(self):
        logits = make((4, 3))
        targets = np.array([0, 1, 2, 0])
        weights = np.array([1.0, 1.0, 0.0, 0.0])
        weighted = softmax_cross_entropy(logits, targets, weights=weights)
        # Same mean over the two active entries.
        manual = softmax_cross_entropy(Tensor(logits.data[:2]), targets[:2])
        assert np.isclose(float(weighted.data), float(manual.data))

    def test_3d_logits(self):
        logits = make((2, 3, 5))
        targets = np.zeros((2, 3), dtype=np.int64)
        assert softmax_cross_entropy(logits, targets).size == 1

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        gradient_check(
            lambda l: softmax_cross_entropy(l, np.array([0, 1, 2])), [make((3, 4))]
        )


class TestBCEWithLogits:
    def test_matches_naive_for_small_logits(self):
        logits = make((3, 4))
        targets = (np.random.default_rng(1).random((3, 4)) > 0.5).astype(float)
        probs = 1 / (1 + np.exp(-logits.data))
        naive = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert np.isclose(float(binary_cross_entropy_with_logits(logits, targets).data), naive)

    def test_stable_with_extreme_logits(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        loss = binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) < 1e-6

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        targets = (np.random.default_rng(2).random((3, 3)) > 0.5).astype(float)
        gradient_check(
            lambda l: binary_cross_entropy_with_logits(l, targets), [make((3, 3))]
        )


class TestSmoothL1:
    def test_quadratic_region(self):
        loss = smooth_l1(Tensor(np.array([0.4])), np.array([0.0]))
        assert np.isclose(loss.data[0], 0.5 * 0.4**2)

    def test_linear_region(self):
        loss = smooth_l1(Tensor(np.array([3.0])), np.array([0.0]))
        assert np.isclose(loss.data[0], 3.0 - 0.5)

    def test_beta_changes_crossover(self, monkeypatch):
        monkeypatch.setattr(losses, "SMOOTH_L1_BETA", 2.0)
        loss = smooth_l1(Tensor(np.array([1.5])), np.array([0.0]))
        assert np.isclose(loss.data[0], 1.5**2 / 4.0)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        gradient_check(lambda p: smooth_l1(p, np.zeros((3, 4))), [make((3, 4))])


class TestMarginRanking:
    def test_zero_when_separated(self):
        loss = margin_ranking_loss(Tensor(np.array(2.0)), Tensor(np.array([0.0])), 0.5)
        assert float(loss.data) == 0.0

    def test_penalises_violations(self):
        loss = margin_ranking_loss(Tensor(np.array(0.0)), Tensor(np.array([1.0])), 0.5)
        assert np.isclose(float(loss.data), 1.5)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        pos, neg = make((1,)), make((4,), 1)
        gradient_check(lambda p, n: margin_ranking_loss(p.sum(), n, 0.3), [pos, neg])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), classes=st.integers(2, 6))
def test_property_cross_entropy_nonnegative(seed, classes):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(4, classes)))
    targets = rng.integers(0, classes, size=4)
    assert float(softmax_cross_entropy(logits, targets).data) >= 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_smooth_l1_symmetric(seed):
    rng = np.random.default_rng(seed)
    diff = rng.normal(size=5)
    a = smooth_l1(Tensor(diff), np.zeros(5)).data
    b = smooth_l1(Tensor(-diff), np.zeros(5)).data
    assert np.allclose(a, b)


class TestSigmoidFocalLoss:
    @staticmethod
    def _plain(monkeypatch, gamma=0.0):
        """Turn off the class balance and set the modulation exponent."""
        monkeypatch.setattr(losses, "FOCAL_ALPHA", None)
        monkeypatch.setattr(losses, "FOCAL_GAMMA", gamma)

    def test_gamma_zero_no_alpha_is_exactly_bce(self, monkeypatch):
        from repro.nn import sigmoid_focal_loss

        self._plain(monkeypatch)
        logits = make((4, 6), seed=3)
        targets = (np.random.default_rng(4).random((4, 6)) > 0.5).astype(float)
        focal = sigmoid_focal_loss(logits, targets)
        bce = binary_cross_entropy_with_logits(
            Tensor(logits.data), targets)
        assert float(focal.data) == float(bce.data), (
            "gamma=0 + alpha=None must reduce to BCE bit-for-bit")

    def test_weighted_reduction_matches_bce_at_gamma_zero(self, monkeypatch):
        from repro.nn import sigmoid_focal_loss

        self._plain(monkeypatch)
        logits = make((8,), seed=5)
        targets = np.array([1.0, 0, 1, 0, 1, 0, 1, 0])
        weights = np.array([1.0, 1, 0, 0, 1, 1, 0, 0])
        focal = sigmoid_focal_loss(logits, targets, weights=weights)
        bce = binary_cross_entropy_with_logits(
            Tensor(logits.data), targets, weights=weights)
        assert float(focal.data) == float(bce.data)

    def test_modulation_downweights_easy_examples(self, monkeypatch):
        from repro.nn import sigmoid_focal_loss

        # A confidently-correct positive (easy) vs an uncertain one
        # (hard): focal must shrink the easy example's share far more.
        easy = Tensor(np.array([6.0]), requires_grad=True)
        hard = Tensor(np.array([0.1]), requires_grad=True)
        targets = np.array([1.0])
        for logits in (easy, hard):
            self._plain(monkeypatch, gamma=0.0)
            bce = sigmoid_focal_loss(logits, targets)
            self._plain(monkeypatch, gamma=2.0)
            focal = sigmoid_focal_loss(logits, targets)
            ratio = float(focal.data) / float(bce.data)
            if logits is easy:
                easy_ratio = ratio
            else:
                hard_ratio = ratio
        assert easy_ratio < hard_ratio < 1.0

    def test_alpha_balances_classes(self, monkeypatch):
        from repro.nn import sigmoid_focal_loss

        monkeypatch.setattr(losses, "FOCAL_GAMMA", 0.0)
        logits = Tensor(np.zeros(2))
        positive = sigmoid_focal_loss(logits, np.array([1.0, 1.0]))
        negative = sigmoid_focal_loss(logits, np.array([0.0, 0.0]))
        # identical logits, symmetric targets: only alpha distinguishes
        assert float(positive.data) == pytest.approx(
            float(negative.data) / 3.0)

    @pytest.mark.usefixtures("float64")
    def test_grad(self):
        from repro.nn import sigmoid_focal_loss

        targets = (np.random.default_rng(7).random((3, 4)) > 0.5).astype(float)
        gradient_check(
            lambda l: sigmoid_focal_loss(l, targets),
            [make((3, 4), seed=8)],
        )

    @pytest.mark.usefixtures("float64")
    def test_grad_gamma_one(self, monkeypatch):
        from repro.nn import sigmoid_focal_loss

        self._plain(monkeypatch, gamma=1.0)
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        gradient_check(
            lambda l: sigmoid_focal_loss(l, targets),
            [make((2, 2), seed=9)],
        )
