"""Cross-module integration: a miniature end-to-end reproduction.

Trains a small YOLLO model briefly and checks the pieces cooperate.
Short CPU training budgets sit on optimisation plateaus, so the
assertions target robust signals: the total loss must fall
substantially, the attention must beat the uniform prior, and the
one-stage / two-stage paradigms must share the evaluation protocol.
"""

import numpy as np
import pytest

from repro.autograd import set_default_dtype
from repro.core import YolloConfig, YolloModel, YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.eval import evaluate_grounder, time_grounder, timing
from repro.twostage import ListenerMatcher, SegmentationProposer, TwoStageGrounder
from repro.twostage import listener as listener_module
from repro.utils import seed_everything


@pytest.fixture(scope="module")
def setup():
    seed_everything(11)
    dataset = build_dataset(REFCOCO.scaled(0.08))
    cfg = YolloConfig(
        backbone="tiny", d_model=16, d_rel=24, ffn_hidden=24, head_hidden=24,
        num_rel2att=2, max_query_length=max(6, dataset.max_query_length),
        batch_size=8,
    )
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    trainer = YolloTrainer(model, dataset, cfg)
    history = trainer.train(epochs=25)
    return dataset, cfg, model, trainer, history


def test_training_reduces_total_loss(setup):
    _, _, _, _, history = setup
    first = np.mean(history.losses[:5])
    last = np.mean(history.losses[-5:])
    assert last < 0.8 * first


def test_attention_loss_below_uniform(setup):
    """The attention CE must end below the uniform-distribution level."""
    dataset, _, model, _, history = setup
    uniform = np.log(model.encoder.num_regions)
    assert history.loss_components[-1]["att"] < uniform


def test_attention_concentrates_on_targets(setup):
    dataset, _, model, trainer, _ = setup
    from repro.core.losses import build_gt_mask

    samples = dataset["train"][:16]
    boxes = np.stack([s.target_box for s in samples])
    gt = build_gt_mask(boxes, model.encoder.grid_h, model.encoder.grid_w,
                       model.encoder.backbone.stride)
    hits = []
    for sample, mask in zip(samples, gt):
        pred = trainer.grounder.ground(sample.image, sample.query)
        flat = pred.attention_map.reshape(-1)
        hits.append(mask[flat.argmax()] > 0)
    # The box prior covers ~8-15% of cells; trained attention must beat it.
    assert np.mean(hits) > 0.15


def test_predictions_are_nondegenerate(setup):
    dataset, cfg, _, trainer, _ = setup
    boxes = np.stack([r.top_box for r in trainer.grounder(dataset["val"][:8])])
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    assert np.all(widths > 1.0) and np.all(heights > 1.0)


def test_same_eval_path_for_both_paradigms(setup, monkeypatch):
    dataset, _, _, trainer, _ = setup
    monkeypatch.setattr(listener_module, "EMBED_DIM", 12)
    listener = ListenerMatcher(dataset.vocab,
                               max_query_length=dataset.max_query_length)
    two_stage = TwoStageGrounder(
        SegmentationProposer(rng=np.random.default_rng(0)), {"listener": listener}
    )
    for grounder in (trainer.grounder, two_stage):
        report = evaluate_grounder(grounder, dataset["val"][:4])
        assert 0.0 <= report.acc_at_50 <= 1.0


def test_timing_protocol_for_both_paradigms(setup, monkeypatch):
    monkeypatch.setattr(timing, "TIMING_WARMUP", 1)
    dataset, _, _, trainer, _ = setup
    report = time_grounder(trainer.grounder, dataset["val"][:3])
    assert report.latency.mean > 0


def test_float32_training_step_runs(setup):
    """One float32 step end-to-end (the experiment-harness configuration)."""
    dataset, cfg, _, _, _ = setup
    set_default_dtype(np.float32)
    try:
        seed_everything(5)
        model = YolloModel(cfg, vocab_size=len(dataset.vocab))
        trainer = YolloTrainer(model, dataset, cfg)
        history = trainer.train(epochs=1)
        assert np.all(np.isfinite(history.losses))
    finally:
        set_default_dtype(np.float64)


def test_trainer_publishes_shared_metrics(setup):
    """YolloTrainer reports steps/timings through the repro.obs registry."""
    from repro.obs import MetricsRegistry

    dataset, cfg, _, _, _ = setup
    registry = MetricsRegistry()
    seed_everything(17)
    model = YolloModel(cfg, vocab_size=len(dataset.vocab))
    trainer = YolloTrainer(model, dataset, cfg, metrics=registry)
    trainer.begin_run(iterations=2)
    loss = None
    for _ in range(2):
        loss = trainer.forward_backward()
        trainer.apply_step(loss)
    assert registry.counter("train.steps").value == 2
    assert registry.histogram("train.forward_backward_seconds").count == 2
    assert registry.histogram("train.apply_seconds").count == 2
    assert registry.gauge("train.loss").value == pytest.approx(loss)
