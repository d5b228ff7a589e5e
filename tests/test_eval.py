"""Evaluation: metrics, timing, curves, reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GroundingResponse
from repro.data import REFCOCO, build_dataset
from repro.data.loader import encode_batch
from repro.eval import curves, timing
from repro.eval import metrics as eval_metrics
from repro.eval import (
    TrainingCurve,
    accuracy_at_iou,
    accuracy_sweep,
    evaluate_grounder,
    format_table,
    mean_iou,
    time_grounder,
)
from repro.eval import (
    calibrate_not_found_threshold,
    no_target_report,
    recall_at_k,
)
from repro.eval.metrics import SWEEP_THRESHOLDS, pairwise_ious


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.03))


def perfect(samples):
    """Grounder answering every sample with its target box."""
    return [GroundingResponse(boxes=s.target_box, scores=[1.0])
            for s in samples]


def zero_grounder(samples):
    """Grounder answering every sample with the zero box."""
    return [GroundingResponse(boxes=np.zeros(4), scores=[1.0])
            for s in samples]


def tiny_grounder(dataset, seed=17):
    from repro.core import Grounder, YolloConfig, YolloModel
    from repro.utils import seed_everything

    seed_everything(seed)
    cfg = YolloConfig(
        backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16,
        head_hidden=16, num_rel2att=2,
        max_query_length=max(6, dataset.max_query_length),
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab)).eval()
    return Grounder(model, dataset.vocab)


class TestMetrics:
    def test_accuracy_at_iou(self):
        ious = np.array([0.4, 0.6, 0.9])
        assert accuracy_at_iou(ious, 0.5) == pytest.approx(2 / 3)

    def test_accuracy_threshold_is_inclusive(self):
        # Regression: ACC@eta is the fraction with IoU >= eta; a strict
        # comparison used to count a prediction at exactly the threshold
        # as a miss.
        ious = np.array([0.5, 0.75, 0.3])
        assert accuracy_at_iou(ious, 0.5) == pytest.approx(2 / 3)
        assert accuracy_at_iou(ious, 0.75) == pytest.approx(1 / 3)
        assert accuracy_at_iou(np.array([0.5]), 0.5) == 1.0

    def test_accuracy_empty(self):
        assert accuracy_at_iou(np.array([])) == 0.0
        assert mean_iou(np.array([])) == 0.0

    def test_sweep_thresholds(self):
        assert len(SWEEP_THRESHOLDS) == 10
        assert SWEEP_THRESHOLDS[0] == 0.5 and SWEEP_THRESHOLDS[-1] == 0.95

    def test_sweep_perfect_predictions(self):
        assert accuracy_sweep(np.ones(5)) == 1.0

    def test_pairwise_ious_diagonal(self):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [5.0, 5.0, 15.0, 15.0]])
        assert np.allclose(pairwise_ious(boxes, boxes), 1.0)

    def test_pairwise_shape_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_ious(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_pairwise_matches_per_pair_iou_matrix(self):
        # The vectorised pass must agree with the per-pair reference
        # (the old implementation: one 1x1 iou_matrix call per sample).
        from repro.detection import iou_matrix

        rng = np.random.default_rng(5)
        corners = rng.uniform(0.0, 40.0, size=(64, 2, 2))
        predicted = np.concatenate(
            [corners.min(axis=1), corners.min(axis=1) + rng.uniform(0.1, 20.0, (64, 2))],
            axis=1,
        )
        corners = rng.uniform(0.0, 40.0, size=(64, 2, 2))
        targets = np.concatenate(
            [corners.min(axis=1), corners.min(axis=1) + rng.uniform(0.1, 20.0, (64, 2))],
            axis=1,
        )
        reference = np.array(
            [iou_matrix(p[None], t[None])[0, 0] for p, t in zip(predicted, targets)]
        )
        assert np.allclose(pairwise_ious(predicted, targets), reference)

    def test_pairwise_empty(self):
        assert pairwise_ious(np.empty((0, 4)), np.empty((0, 4))).shape == (0,)

    def test_evaluate_perfect_grounder(self, dataset):
        report = evaluate_grounder(perfect, dataset["val"])
        assert report.acc_at_50 == 1.0
        assert report.miou == pytest.approx(1.0)

    def test_evaluate_terrible_grounder(self, dataset):
        report = evaluate_grounder(zero_grounder, dataset["val"])
        assert report.acc_at_50 == 0.0

    def test_evaluate_batches_correctly(self, dataset, monkeypatch):
        monkeypatch.setattr(eval_metrics, "EVAL_BATCH_SIZE", 3)
        calls = []

        def grounder(samples):
            calls.append(len(samples))
            return perfect(samples)

        evaluate_grounder(grounder, dataset["val"])
        assert sum(calls) == len(dataset["val"])
        assert max(calls) <= 3

    def test_yollo_ious_match_predict_boxes_bytewise(self, dataset, monkeypatch):
        # Scoring response top boxes must reproduce scoring the paper's
        # single predicted box, so cached eval reports stay valid.
        grounder = tiny_grounder(dataset)
        samples = list(dataset["val"])
        monkeypatch.setattr(eval_metrics, "EVAL_BATCH_SIZE", 5)
        report = evaluate_grounder(grounder, samples)
        batch = encode_batch(samples, dataset.vocab, grounder.max_query_length)
        boxes = np.stack([p.box for p in grounder.model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"])])
        targets = np.stack([s.target_box for s in samples])
        assert report.ious.tobytes() == pairwise_ious(boxes, targets).tobytes()

    def test_report_as_dict(self, dataset):
        report = evaluate_grounder(perfect, dataset["val"])
        assert set(report.as_dict()) == {"ACC", "ACC@0.5", "ACC@0.75", "MIOU"}


class TestTiming:
    def test_reports_stats(self, dataset, monkeypatch):
        monkeypatch.setattr(timing, "TIMING_WARMUP", 1)
        report = time_grounder(zero_grounder, dataset["val"][:4])
        assert report.latency.count == 4
        assert report.latency.mean >= 0.0
        assert report.total_mean == report.latency.mean

    def test_proposal_timer_adds(self, dataset):
        report = time_grounder(
            zero_grounder, dataset["val"][:3], proposal_timer=lambda s: 0.5
        )
        assert report.proposal_mean == pytest.approx(0.5)
        assert report.total_mean == pytest.approx(report.latency.mean + 0.5)

    def test_model_time_from_spans(self, dataset, monkeypatch):
        from repro.obs import trace_span

        monkeypatch.setattr(timing, "TIMING_WARMUP", 0)
        def grounder(samples):
            with trace_span("yollo.forward"):
                pass  # the span *is* the model time here
            return zero_grounder(samples)

        report = time_grounder(grounder, dataset["val"][:3])
        assert report.model_mean > 0.0
        assert report.model_mean <= report.latency.mean
        assert report.overhead_mean == pytest.approx(
            report.latency.mean - report.model_mean
        )

    def test_unspanned_grounder_has_zero_model_time(self, dataset, monkeypatch):
        monkeypatch.setattr(timing, "TIMING_WARMUP", 0)
        report = time_grounder(zero_grounder, dataset["val"][:2])
        assert report.model_mean == 0.0
        assert report.overhead_mean == report.latency.mean


class TestTrainingCurve:
    def test_record_and_final(self):
        curve = TrainingCurve("x")
        curve.record(10, 0.2)
        curve.record(20, 0.8)
        assert curve.final() == 0.8
        assert curve.best() == 0.8
        assert curve.as_series() == [(10, 0.2), (20, 0.8)]

    def test_empty_defaults(self):
        curve = TrainingCurve("x")
        assert curve.final() == 0.0
        assert curve.convergence_iteration() == 0

    def test_convergence_iteration(self):
        curve = TrainingCurve("x")
        for i, v in [(1, 0.1), (2, 0.5), (3, 0.96), (4, 1.0)]:
            curve.record(i, v)
        assert curve.convergence_iteration() == 3

    def test_ascii_rendering(self, monkeypatch):
        monkeypatch.setattr(curves, "PLOT_WIDTH", 20)
        monkeypatch.setattr(curves, "PLOT_HEIGHT", 5)
        curve = TrainingCurve("demo")
        for i in range(10):
            curve.record(i, i / 10)
        art = curve.render_ascii()
        assert "demo" in art and "*" in art


class TestFormatTable:
    def test_alignment_and_floats(self):
        table = format_table(["a", "bb"], [["x", 1.234], ["yy", 10.0]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "1.23" in table
        assert all(len(line) == len(lines[1]) for line in lines[1:])


class TestRecallAtK:
    def _boxes(self, *rows):
        return np.asarray(rows, dtype=float).reshape(-1, 4)

    def test_perfect_at_one(self):
        targets = [self._boxes([0, 0, 10, 10]), self._boxes([5, 5, 15, 15])]
        assert recall_at_k(targets, targets, k=1) == 1.0

    def test_hit_only_deeper_in_ranking(self):
        ranked = [self._boxes([50, 50, 60, 60], [0, 0, 10, 10])]
        targets = [self._boxes([0, 0, 10, 10])]
        assert recall_at_k(ranked, targets, k=1) == 0.0
        assert recall_at_k(ranked, targets, k=2) == 1.0

    def test_multi_target_any_match_counts(self):
        ranked = [self._boxes([0, 0, 10, 10])]
        targets = [self._boxes([100, 100, 110, 110], [0, 0, 10, 10])]
        assert recall_at_k(ranked, targets, k=1) == 1.0

    def test_no_target_queries_are_skipped(self):
        ranked = [self._boxes([0, 0, 10, 10]), np.empty((0, 4))]
        targets = [self._boxes([0, 0, 10, 10]), np.empty((0, 4))]
        assert recall_at_k(ranked, targets, k=1) == 1.0

    def test_empty_ranking_with_real_target_misses(self):
        ranked = [np.empty((0, 4))]
        targets = [self._boxes([0, 0, 10, 10])]
        assert recall_at_k(ranked, targets, k=5) == 0.0

    def test_iou_threshold_respected(self):
        ranked = [self._boxes([0, 0, 10, 10])]
        targets = [self._boxes([0, 0, 10, 12])]  # IoU = 10/12
        assert recall_at_k(ranked, targets, k=1, iou_threshold=0.9) == 0.0
        assert recall_at_k(ranked, targets, k=1, iou_threshold=0.8) == 1.0

    def test_rejects_bad_k_and_misalignment(self):
        with pytest.raises(ValueError):
            recall_at_k([], [], k=0)
        with pytest.raises(ValueError):
            recall_at_k([np.empty((0, 4))], [], k=1)


class TestClauseDepthRecall:
    def _boxes(self, *rows):
        return np.asarray(rows, dtype=np.float64).reshape(-1, 4)

    def test_grouping_by_parse_depth(self):
        from repro.eval import group_by_clause_depth

        groups = group_by_clause_depth([
            "the red car",                                     # depth 0
            "the dog to the left of the car",                  # depth 1
            "the dog next to the car that is to the left of "
            "the lamp",                                        # depth 2
            "???",                                             # unparseable
        ])
        assert groups[0] == [0, 3]
        assert groups[1] == [1]
        assert groups[2] == [2]

    def test_recall_split_per_depth(self):
        from repro.eval import recall_by_clause_depth

        queries = ["the red car", "the dog to the left of the car"]
        targets = [self._boxes([0, 0, 10, 10]), self._boxes([5, 5, 15, 15])]
        ranked = [targets[0], self._boxes([90, 90, 99, 99])]  # depth-1 miss
        result = recall_by_clause_depth(ranked, targets, queries)
        assert result[0] == 1.0
        assert result[1] == 0.0

    def test_misalignment_rejected(self):
        from repro.eval import recall_by_clause_depth

        with pytest.raises(ValueError):
            recall_by_clause_depth([np.empty((0, 4))], [], ["q"])


class TestNoTargetReport:
    def test_counts_and_rates(self):
        report = no_target_report(
            predicted_not_found=[True, True, False, False, True],
            actual_no_target=[True, False, True, False, True],
        )
        assert report.true_positives == 2
        assert report.false_positives == 1
        assert report.false_negatives == 1
        assert report.true_negatives == 1
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(2 / 3)

    def test_never_abstains(self):
        report = no_target_report([False, False], [True, False])
        assert report.precision == 0.0 and report.recall == 0.0
        assert report.f1 == 0.0

    def test_perfect(self):
        report = no_target_report([True, False], [True, False])
        assert report.f1 == 1.0
        assert set(report.as_dict()) >= {"precision", "recall", "f1"}

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            no_target_report([True], [True, False])


class TestCalibrateNotFoundThreshold:
    def test_separable_scores(self):
        threshold = calibrate_not_found_threshold(
            found_scores=[0.9, 0.8, 0.7], no_target_scores=[0.2, 0.1]
        )
        assert 0.2 < threshold < 0.7
        # The calibrated rule classifies every training score correctly.
        assert all(s >= threshold for s in [0.9, 0.8, 0.7])
        assert all(s < threshold for s in [0.2, 0.1])

    def test_no_absent_queries_never_abstains(self):
        assert calibrate_not_found_threshold([0.5, 0.9], []) == 0.0

    def test_only_absent_queries_always_abstains(self):
        threshold = calibrate_not_found_threshold([], [0.3, 0.6])
        assert threshold > 0.6

    def test_overlapping_scores_prefer_f1(self):
        threshold = calibrate_not_found_threshold(
            found_scores=[0.9, 0.6, 0.4], no_target_scores=[0.5, 0.1]
        )
        predicted = [s < threshold for s in [0.9, 0.6, 0.4, 0.5, 0.1]]
        actual = [False, False, False, True, True]
        report = no_target_report(predicted, actual)
        assert report.f1 >= 0.5


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_metric_ordering(seed):
    """ACC <= ACC@0.5 and ACC@0.75 <= ACC@0.5 for any IoU sample."""
    ious = np.random.default_rng(seed).random(20)
    assert accuracy_sweep(ious) <= accuracy_at_iou(ious, 0.5) + 1e-12
    assert accuracy_at_iou(ious, 0.75) <= accuracy_at_iou(ious, 0.5) + 1e-12
