"""One step loop: every trainer runs under ``TrainingSupervisor``.

The supervisor must only *observe* a healthy run — supervised training
is bit-identical to driving ``forward_backward``/``apply_step`` by hand,
and a checkpoint directory changes nothing but persistence.  No-op
iterations keep the eval/checkpoint schedule, and ``resume`` without a
checkpoint store is refused instead of silently training from scratch.
"""

import os
import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.backbone import build_backbone, pretrain_backbone
from repro.cli import main
from repro.core import YolloTrainer
from repro.data import REFCOCO, build_dataset
from repro.nn import Parameter
from repro.optim import Adam
from repro.runtime import CallbackTask, TrainingSupervisor
from repro.twostage import (
    ListenerMatcher,
    SegmentationProposer,
    SpeakerScorer,
    train_listener,
    train_speaker,
)
from repro.twostage import listener, proposals, speaker
from repro.utils import seed_everything
from repro.zoo import build_model
from tests.test_runtime import make_toy_task, make_yollo_trainer


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(REFCOCO.scaled(0.04))


# ----------------------------------------------------------------------
# Schedule and validation
# ----------------------------------------------------------------------
def test_none_loss_iteration_keeps_eval_and_checkpoint_schedule(tmp_path):
    param = Parameter(np.array([1.0, -2.0]))
    optimizer = Adam([param], lr=0.1)
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
        pretrain_backbone(build_backbone("tiny"), steps=1, resume=True)


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


# ----------------------------------------------------------------------
# Memory of one train step
# ----------------------------------------------------------------------
def _graph_tensors(root):
    """Tensors reachable from ``root`` through parent edges and closures."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
        for cell in getattr(node._backward, "__closure__", None) or ():
            value = cell.cell_contents
            values = value if isinstance(value, (list, tuple)) else (value,)
            stack.extend(v for v in values if isinstance(v, Tensor))
    return list(seen.values())


def test_train_step_peaks_at_its_activations(monkeypatch):
    """Backward releases the graph as it walks it: the step's peak stays
    near the arrays alive when backward starts (1.02x measured; keeping
    every interior gradient until backward returned peaked at 1.95x),
    and the pending loss holds no graph after the step."""
    seed_everything(7)
    dataset = build_dataset(REFCOCO.scaled(0.13))  # 32 train samples
    model = build_model("tiny", len(dataset.vocab),
                        max_query_length=max(8, dataset.max_query_length),
                        batch_size=16)
    trainer = YolloTrainer(model, dataset)
    trainer.begin_run(iterations=10)
    trainer.apply_step(trainer.forward_backward())

    outputs = []
    forward = model.forward

    def holding_forward(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(model, "forward", holding_forward, raising=False)
    at_backward = []
    backward = Tensor.backward

    def marking_backward(self, grad=None):
        at_backward.append(tracemalloc.get_traced_memory()[0])
        return backward(self, grad)

    monkeypatch.setattr(Tensor, "backward", marking_backward)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trainer.forward_backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    live = at_backward[0] - start
    assert peak <= 1.25 * live, f"peak {peak / 1e6:.1f} MB, live {live / 1e6:.1f} MB"

    # Only the loss itself is left: no edge or closure leads to an
    # interior tensor, its gradient or a parameter.
    root = trainer._pending.total
    assert _graph_tensors(root) == [root]
    assert root.grad is not None
    logits = outputs[0].cls_logits
    assert logits.grad is None
    assert logits.data.shape[0] == 16 and np.isfinite(logits.data).all()


def _copy_weights(source, target):
    target.load_state_dict(source.state_dict())
    return target


def test_listener_losses_independent_of_checkpoint_dir(dataset, tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr(proposals, "QUALITY", 1.0)
    monkeypatch.setattr(listener, "EMBED_DIM", 12)
    kwargs = dict(max_query_length=dataset.max_query_length)
    first = ListenerMatcher(dataset.vocab, **kwargs)
    second = _copy_weights(first, ListenerMatcher(dataset.vocab, **kwargs))

    def run(listener, checkpoint_dir):
        proposer = SegmentationProposer(rng=np.random.default_rng(1))
        return train_listener(listener, dataset["train"], proposer, steps=12,
                              rng=np.random.default_rng(2),
                              checkpoint_dir=checkpoint_dir)

    plain = run(first, None)
    stored = run(second, str(tmp_path))
    assert plain and plain == stored


def test_speaker_losses_independent_of_checkpoint_dir(dataset, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(speaker, "EMBED_DIM", 12)
    kwargs = dict(max_query_length=dataset.max_query_length)
    first = SpeakerScorer(dataset.vocab, **kwargs)
    second = _copy_weights(first, SpeakerScorer(dataset.vocab, **kwargs))
    plain = train_speaker(first, dataset["train"], steps=6,
                          rng=np.random.default_rng(3))
    stored = train_speaker(second, dataset["train"], steps=6,
                           rng=np.random.default_rng(3),
                           checkpoint_dir=str(tmp_path))
    assert len(plain) == 6 and plain == stored


def test_pretrain_history_independent_of_checkpoint_dir(tmp_path, monkeypatch):
    from repro.backbone import pretrain

    monkeypatch.setattr(pretrain, "BATCH_SIZE", 4)
    first = build_backbone("tiny")
    second = _copy_weights(first, build_backbone("tiny"))
    plain = pretrain_backbone(first, steps=3, rng=np.random.default_rng(4))
    stored = pretrain_backbone(second, steps=3,
                               rng=np.random.default_rng(4),
                               checkpoint_dir=str(tmp_path))
    assert len(plain["loss"]) == 3 and plain == stored
