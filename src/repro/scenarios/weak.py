"""Weak scenario: image-level pairing supervision, no boxes at train time.

The train split contains only (image, expression) *pairs* — every
``ScenarioSample`` has a zeroed ``target_box`` and ``target_index=-1``
(``query_type="weak_pair"``), so nothing downstream can accidentally
train on localisation labels.  A two-tower contrastive model
(:class:`WeakContrastiveModel`) learns a joint embedding from those
pairs alone with a symmetric in-batch InfoNCE loss.

Grounding then emerges at *eval* time without ever having trained on a
box: each eval expression is scored against per-object crops of its
scene and the best-scoring object is the prediction
(:func:`pointing_accuracy`) — the standard weakly-supervised grounding
protocol ("pointing game").  Eval samples keep their ground-truth boxes
purely for scoring.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.data.expressions import ExpressionGenerator
from repro.data.refcoco import GroundingSample
from repro.data.render import render_scene
from repro.data.scenes import SceneGenerator
from repro.nn import Conv2d, Embedding, GlobalAvgPool2d, Linear, Module, \
    softmax_cross_entropy
from repro.optim import Adam
from repro.runtime import CallbackTask, TrainingSupervisor
from repro.scenarios.registry import (
    Scenario,
    ScenarioSample,
    register_scenario,
)
from repro.text.tokenizer import tokenize
from repro.text.vocab import Vocabulary
from repro.utils.seeding import spawn_rng

#: Width of the shared image/text embedding space.
EMBED_DIM = 24
#: InfoNCE softmax temperature.
TEMPERATURE = 0.1
#: Pairs per step and Adam learning rate of :func:`train_weak_model`.
BATCH_SIZE = 8
LEARNING_RATE = 5e-3


class WeakContrastiveModel(Module):
    """Two-tower image/expression embedding model.

    A small strided CNN pools images (or object crops — the towers are
    resolution-agnostic) to a D-dim embedding; expressions are embedded
    by a masked mean over token embeddings.  Both towers L2-normalise,
    so similarity is a cosine score scaled by a learned-free inverse
    temperature at loss time.
    """

    def __init__(self, vocab_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else spawn_rng("weak-model")
        self.conv1 = Conv2d(3, 16, 3, stride=2, padding=1, rng=rng)
        self.conv2 = Conv2d(16, EMBED_DIM, 3, stride=2, padding=1, rng=rng)
        self.pool = GlobalAvgPool2d()
        self.image_proj = Linear(EMBED_DIM, EMBED_DIM, rng=rng)
        self.token_embed = Embedding(vocab_size, EMBED_DIM, rng=rng)
        self.text_proj = Linear(EMBED_DIM, EMBED_DIM, rng=rng)

    @staticmethod
    def _l2_normalize(features: Tensor) -> Tensor:
        norm = (features * features).sum(axis=-1, keepdims=True) + 1e-8
        return features / norm.sqrt()

    def encode_images(self, images: np.ndarray) -> Tensor:
        """(n, 3, H, W) pixels -> (n, D) unit embeddings."""
        hidden = self.conv1(Tensor(np.asarray(images))).relu()
        hidden = self.conv2(hidden).relu()
        pooled = self.pool(hidden)
        return self._l2_normalize(self.image_proj(pooled))

    def encode_texts(self, token_ids: np.ndarray,
                     token_mask: np.ndarray) -> Tensor:
        """(n, L) ids + mask -> (n, D) unit embeddings (masked mean)."""
        embedded = self.token_embed(np.asarray(token_ids))
        mask = Tensor(np.asarray(token_mask, dtype=float)[..., None])
        counts = np.maximum(
            np.asarray(token_mask, dtype=float).sum(axis=-1, keepdims=True),
            1.0)
        mean = (embedded * mask).sum(axis=1) / Tensor(counts)
        return self._l2_normalize(self.text_proj(mean))

    def forward(self, images: np.ndarray, token_ids: np.ndarray,
                token_mask: np.ndarray) -> Tensor:
        """(n, n) cosine similarity of every image against every text."""
        image_emb = self.encode_images(images)
        text_emb = self.encode_texts(token_ids, token_mask)
        return image_emb.matmul(text_emb.T)


def contrastive_loss(similarity: Tensor) -> Tensor:
    """Symmetric in-batch InfoNCE over an (n, n) similarity matrix.

    Row ``i``'s positive is column ``i`` (the paired expression) and
    vice versa — the only supervision is *which image goes with which
    sentence*, never where the referent is.
    """
    n = similarity.shape[0]
    targets = np.arange(n)
    logits = similarity * (1.0 / TEMPERATURE)
    image_to_text = softmax_cross_entropy(logits, targets)
    text_to_image = softmax_cross_entropy(logits.T, targets)
    return (image_to_text + text_to_image) * 0.5


def _encode_batch(samples: Sequence[GroundingSample], vocab: Vocabulary,
                  max_length: int):
    ids, masks = zip(*(vocab.encode(s.tokens, max_length) for s in samples))
    return np.stack(ids), np.stack(masks)


def train_weak_model(
    samples: Sequence[ScenarioSample],
    vocab: Vocabulary,
    steps: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, object]:
    """Fit a :class:`WeakContrastiveModel` on pairing-only samples.

    Refuses samples that carry box supervision (``target_index >= 0``)
    — the scenario's contract is that eval never sees a box at train
    time, and this guard makes violating it loud.
    """
    if any(s.target_index >= 0 for s in samples):
        raise ValueError(
            "weak training received box-supervised samples; the weak "
            "scenario trains on image-level pairs only")
    rng = rng if rng is not None else spawn_rng("weak-train")
    max_length = max(len(s.tokens) for s in samples)
    model = WeakContrastiveModel(len(vocab), rng=rng)
    optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
    losses: List[float] = []

    def forward_backward(step: int) -> float:
        batch_indices = rng.choice(
            len(samples), size=min(BATCH_SIZE, len(samples)), replace=False)
        batch = [samples[int(i)] for i in batch_indices]
        images = np.stack([s.image for s in batch])
        token_ids, token_mask = _encode_batch(batch, vocab, max_length)
        model.zero_grad()
        loss = contrastive_loss(model(images, token_ids, token_mask))
        loss.backward()
        return float(loss.item())

    def apply_update(step: int, loss_value: float) -> None:
        optimizer.step()
        losses.append(loss_value)

    TrainingSupervisor(CallbackTask(
        steps, forward_backward, apply_update, optimizer=optimizer,
        modules={"model": model}, rng=rng)).run()
    return {"model": model, "losses": losses, "max_length": max_length}


def _crop(image: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Cut one object's pixels out of a (3, H, W) image."""
    _, height, width = image.shape
    x1 = int(np.clip(np.floor(box[0]), 0, width - 2))
    y1 = int(np.clip(np.floor(box[1]), 0, height - 2))
    x2 = int(np.clip(np.ceil(box[2]), x1 + 2, width))
    y2 = int(np.clip(np.ceil(box[3]), y1 + 2, height))
    return image[:, y1:y2, x1:x2]


def pointing_accuracy(model: WeakContrastiveModel,
                      samples: Sequence[ScenarioSample],
                      vocab: Vocabulary, max_length: int) -> float:
    """Fraction of eval queries whose best-scoring object crop is the target.

    The "pointing game" protocol: the model never predicted a box — it
    only ranks the scene's objects by crop/expression similarity.
    """
    if not samples:
        return 0.0
    correct = 0
    with no_grad():
        for sample in samples:
            token_ids, token_mask = _encode_batch(
                [sample], vocab, max_length)
            text_emb = model.encode_texts(token_ids, token_mask).data[0]
            scores = []
            for obj in sample.scene.objects:
                crop = _crop(sample.image, obj.box)[None]
                scores.append(
                    float(model.encode_images(crop).data[0] @ text_emb))
            if int(np.argmax(scores)) == sample.target_index:
                correct += 1
    return correct / len(samples)


def build_weak(num_scenes: int,
               rng: np.random.Generator,
               ) -> Dict[str, List[ScenarioSample]]:
    """Pairing-only train split plus a box-scored eval split."""
    scene_gen = SceneGenerator(same_type_density=2.5, rng=rng)
    expr_gen = ExpressionGenerator("refcoco", rng=rng)
    train: List[ScenarioSample] = []
    eval_split: List[ScenarioSample] = []
    guard = 0
    want_train, want_eval = num_scenes * 2, num_scenes
    while len(train) < want_train or len(eval_split) < want_eval:
        guard += 1
        if guard > max(50, num_scenes * 50):
            raise RuntimeError("weak scenario generation stalled")
        scene = scene_gen.generate(rng=rng)
        image = render_scene(scene, rng=rng)
        indices = list(range(len(scene.objects)))
        rng.shuffle(indices)
        produced = None
        for index in indices:
            target = scene.objects[index]
            query = expr_gen.generate(scene, target, rng=rng)
            if query is not None:
                produced = (index, target, query)
                break
        if produced is None:
            continue
        index, target, query = produced
        if len(train) < want_train:
            # Image-level pair: the box never leaves the generator.
            train.append(ScenarioSample(
                image=image, query=query, tokens=tokenize(query),
                target_box=np.zeros(4), target_index=-1, scene=scene,
                split="train", query_type="weak_pair",
                all_target_boxes=np.empty((0, 4)), scenario="weak"))
        else:
            eval_split.append(ScenarioSample(
                image=image, query=query, tokens=tokenize(query),
                target_box=target.box.copy(), target_index=index,
                scene=scene, split="eval", query_type="single",
                all_target_boxes=target.box.copy().reshape(1, 4),
                scenario="weak"))
    return {"train": train, "eval": eval_split}


register_scenario(Scenario(
    name="weak",
    description=("image-level pairing supervision only: contrastive "
                 "two-tower training, pointing-game eval (no boxes at "
                 "train time)"),
    build=build_weak,
))
