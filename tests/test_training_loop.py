"""One step loop: every trainer runs under ``TrainingSupervisor``.

The supervisor must only *observe* a healthy run — supervised training
is bit-identical to driving ``forward_backward``/``apply_step`` by hand,
and a checkpoint directory changes nothing but persistence.  No-op
iterations keep the eval/checkpoint schedule, and ``resume`` without a
checkpoint store is refused instead of silently training from scratch.
"""

import os

import numpy as np
import pytest

from repro.backbone import build_backbone, pretrain_backbone
from repro.cli import main
from repro.data import REFCOCO, build_dataset
from repro.nn import Parameter
from repro.optim import SGD
from repro.runtime import CallbackTask, TrainingSupervisor
from repro.twostage import (
    ListenerMatcher,
    SegmentationProposer,
    SpeakerScorer,
    train_listener,
    train_speaker,
)
from tests.test_runtime import make_toy_task, make_yollo_trainer


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.04))


# ----------------------------------------------------------------------
# Schedule and validation
# ----------------------------------------------------------------------
def test_none_loss_iteration_keeps_eval_and_checkpoint_schedule(tmp_path):
    param = Parameter(np.array([1.0, -2.0]))
    optimizer = SGD([param], lr=0.1)
    evaluated = []

    def forward_backward(step: int):
        if step == 3:  # iteration 4 is a no-op (e.g. an unusable sample)
            return None
        param.grad = 2.0 * param.data
        return float((param.data ** 2).sum())

    task = CallbackTask(
        total_iterations=10,
        forward_backward=forward_backward,
        apply_update=lambda step, loss: optimizer.step(),
        optimizer=optimizer,
        eval_every=2,
        evaluate=evaluated.append,
    )
    report = TrainingSupervisor(task, checkpoint_dir=str(tmp_path),
                                checkpoint_every=4).run()
    assert evaluated == [2, 4, 6, 8, 10]
    assert sorted(n for n in os.listdir(tmp_path) if n.endswith(".ckpt")) == [
        "ckpt-00000004.ckpt", "ckpt-00000008.ckpt", "ckpt-00000010.ckpt",
    ]
    assert report.checkpoint_writes == 3
    assert report.skipped_steps == 0  # a no-op is not an anomaly


def test_resume_without_checkpoint_dir_is_rejected():
    task, _, _ = make_toy_task()
    with pytest.raises(ValueError, match="checkpoint_dir"):
        TrainingSupervisor(task, resume=True)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        pretrain_backbone(build_backbone("tiny"), steps=1, batch_size=2,
                          resume=True)


def test_cli_resume_without_checkpoint_dir_exits_with_message():
    with pytest.raises(SystemExit, match="--resume requires --checkpoint-dir"):
        main(["train", "--resume", "--quiet", "--scale", "0.05",
              "--epochs", "1", "--preset", "tiny"])


# ----------------------------------------------------------------------
# Supervision only observes
# ----------------------------------------------------------------------
def test_supervised_train_matches_hand_driven_loop():
    supervised = make_yollo_trainer()
    history = supervised.train(epochs=2, eval_every=3, eval_samples=2)

    manual = make_yollo_trainer()
    manual.begin_run(epochs=2, eval_every=3, eval_samples=2)
    while manual.iteration < manual.total_iterations:
        manual.apply_step(manual.forward_backward())
        if manual.iteration % manual.eval_every == 0:
            manual.periodic_eval()
    manual.finalize()

    assert history.iterations == manual.history.iterations > 0
    assert history.losses == manual.history.losses
    assert history.loss_components == manual.history.loss_components
    assert history.curve.iterations == manual.history.curve.iterations
    assert history.curve.values == manual.history.curve.values
    for a, b in zip(supervised.parameters(), manual.parameters()):
        assert np.array_equal(a.data, b.data)


def _copy_weights(source, target):
    target.load_state_dict(source.state_dict())
    return target


def test_listener_losses_independent_of_checkpoint_dir(dataset, tmp_path):
    kwargs = dict(embed_dim=12, max_query_length=dataset.max_query_length)
    first = ListenerMatcher(dataset.vocab, **kwargs)
    second = _copy_weights(first, ListenerMatcher(dataset.vocab, **kwargs))

    def run(listener, checkpoint_dir):
        proposer = SegmentationProposer(quality=1.0, rng=np.random.default_rng(1))
        return train_listener(listener, dataset["train"], proposer, steps=12,
                              rng=np.random.default_rng(2),
                              checkpoint_dir=checkpoint_dir)

    plain = run(first, None)
    stored = run(second, str(tmp_path))
    assert plain and plain == stored


def test_speaker_losses_independent_of_checkpoint_dir(dataset, tmp_path):
    kwargs = dict(embed_dim=12, max_query_length=dataset.max_query_length)
    first = SpeakerScorer(dataset.vocab, **kwargs)
    second = _copy_weights(first, SpeakerScorer(dataset.vocab, **kwargs))
    plain = train_speaker(first, dataset["train"], steps=6,
                          rng=np.random.default_rng(3))
    stored = train_speaker(second, dataset["train"], steps=6,
                           rng=np.random.default_rng(3),
                           checkpoint_dir=str(tmp_path))
    assert len(plain) == 6 and plain == stored


def test_pretrain_history_independent_of_checkpoint_dir(tmp_path):
    first = build_backbone("tiny")
    second = _copy_weights(first, build_backbone("tiny"))
    plain = pretrain_backbone(first, steps=3, batch_size=4,
                              rng=np.random.default_rng(4))
    stored = pretrain_backbone(second, steps=3, batch_size=4,
                               rng=np.random.default_rng(4),
                               checkpoint_dir=str(tmp_path))
    assert len(plain["loss"]) == 3 and plain == stored
