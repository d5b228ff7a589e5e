"""Synthetic-ImageNet pre-training for backbones.

The paper pre-trains its ResNet on ImageNet before grounding training.
Our stand-in task renders single-object scenes and trains the backbone
with two linear heads (category and colour classification) on globally
pooled features, so the trunk learns shape- and colour-selective filters
before it is fine-tuned inside YOLLO.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.data.render import render_scene
from repro.data.scenes import CATEGORIES, COLORS, Scene, SceneGenerator
from repro.nn import Linear, Module, softmax_cross_entropy
from repro.optim import Adam
from repro.runtime import CallbackTask, TrainingSupervisor
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import spawn_rng


class ClassificationHead(Module):
    """Global-max-pool features into category and colour logits.

    Max pooling (not average) is essential here: the labelled object
    covers a small fraction of the canvas, and averaging dilutes its
    activations into the background.
    """

    def __init__(self, in_channels: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.category_head = Linear(in_channels, len(CATEGORIES), rng=rng)
        self.color_head = Linear(in_channels, len(COLORS), rng=rng)

    def forward(self, features: Tensor) -> Tuple[Tensor, Tensor]:
        pooled = features.max(axis=(2, 3))
        return self.category_head(pooled), self.color_head(pooled)


def _sample_classification_batch(
    generator: SceneGenerator, batch_size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Render single-object images labelled by (category, colour)."""
    images: List[np.ndarray] = []
    categories = np.empty(batch_size, dtype=np.int64)
    colors = np.empty(batch_size, dtype=np.int64)
    for i in range(batch_size):
        category = CATEGORIES[int(rng.integers(0, len(CATEGORIES)))]
        scene = Scene(generator.height, generator.width)
        placed = generator._place_object(scene, category, rng)
        if placed is None:  # placement cannot fail on an empty canvas, but be safe
            continue
        scene.objects.append(placed)
        images.append(render_scene(scene, rng=rng))
        categories[i] = CATEGORIES.index(placed.category)
        colors[i] = COLORS.index(placed.color)
    return np.stack(images), categories[: len(images)], colors[: len(images)]


def pretrain_backbone(
    backbone: Module,
    steps: int = 60,
    batch_size: int = 16,
    lr: float = 1e-3,
    image_height: int = 48,
    image_width: int = 72,
    rng: Optional[np.random.Generator] = None,
    logger: Optional[ProgressLogger] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> Dict[str, List[float]]:
    """Train ``backbone`` on the synthetic classification task in place.

    Returns a history dict with per-step losses and accuracies; the
    classification heads are discarded, matching the paper's use of
    ImageNet weights.  The loop runs under a
    :class:`repro.runtime.TrainingSupervisor`, which skips anomalous
    steps; ``checkpoint_dir`` adds checkpoints every ``checkpoint_every``
    steps and ``resume=True`` (which needs ``checkpoint_dir``) continues
    a killed run from the newest checkpoint.
    """
    rng = rng if rng is not None else spawn_rng("backbone-pretrain")
    logger = logger or ProgressLogger("pretrain", enabled=False)
    generator = SceneGenerator(height=image_height, width=image_width, rng=rng)
    # The head must draw its initial weights from the pretrain's own
    # stream: pulling from the process-global generator here would shift
    # every later init for cache-miss runs only, making cold- and
    # warm-cache training runs diverge.
    head = ClassificationHead(backbone.out_channels, rng=rng)
    optimizer = Adam(backbone.parameters() + head.parameters(), lr=lr)

    history: Dict[str, List[float]] = {"loss": [], "category_acc": [], "color_acc": []}
    pending: Dict[str, float] = {}

    def forward_backward(step: int) -> float:
        images, categories, colors = _sample_classification_batch(
            generator, batch_size, rng
        )
        features = backbone(Tensor(images))
        cat_logits, color_logits = head(features)
        loss = softmax_cross_entropy(cat_logits, categories) + softmax_cross_entropy(
            color_logits, colors
        )
        optimizer.zero_grad()
        loss.backward()
        pending["category_acc"] = float(
            (cat_logits.data.argmax(axis=1) == categories).mean()
        )
        pending["color_acc"] = float(
            (color_logits.data.argmax(axis=1) == colors).mean()
        )
        return float(loss.data)

    def apply_update(step: int, loss_value: float) -> None:
        optimizer.step()
        history["loss"].append(loss_value)
        history["category_acc"].append(pending["category_acc"])
        history["color_acc"].append(pending["color_acc"])
        logger.periodic(
            f"step {step}/{steps} loss={loss_value:.3f} "
            f"cat={pending['category_acc']:.2f} color={pending['color_acc']:.2f}"
        )

    task = CallbackTask(
        total_iterations=steps,
        forward_backward=forward_backward,
        apply_update=apply_update,
        optimizer=optimizer,
        modules={"backbone": backbone, "head": head},
        rng=rng,
        fingerprint_data={
            "task": "backbone-pretrain",
            "steps": steps,
            "batch_size": batch_size,
            "lr": lr,
            "image": [image_height, image_width],
        },
        extra_state=lambda: {k: list(v) for k, v in history.items()},
        load_extra_state=lambda saved: history.update(
            {k: list(v) for k, v in saved.items()}
        ),
        result=lambda: history,
    )
    TrainingSupervisor(
        task,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every or max(1, steps // 4),
        resume=resume,
        logger=logger,
    ).run()
    return history


def default_cache_dir() -> str:
    """Directory for cached pre-trained backbone weights."""
    return os.environ.get(
        "REPRO_CACHE_DIR", os.path.join(os.path.expanduser("~"), ".cache", "repro")
    )


def load_pretrained_backbone(
    name: str,
    steps: int = 600,
    image_height: int = 48,
    image_width: int = 72,
    cache_dir: Optional[str] = None,
    logger: Optional[ProgressLogger] = None,
):
    """Build a backbone preset with synthetic-ImageNet weights, cached.

    The first call for a given (preset, steps, size) trains and writes an
    ``.npz`` under the cache directory; later calls load it instantly.
    This mirrors downloading the paper's ImageNet checkpoint.
    """
    from repro.backbone.factory import build_backbone

    backbone = build_backbone(name)
    cache_dir = cache_dir or default_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    cache_path = os.path.join(
        cache_dir, f"backbone-{name}-{steps}-{image_height}x{image_width}.npz"
    )
    if os.path.exists(cache_path):
        backbone.load(cache_path)
        return backbone
    # A killed pretrain resumes from its checkpoints instead of restarting;
    # the checkpoint directory is removed once the final weights are cached.
    checkpoint_dir = cache_path + ".ckpts"
    pretrain_backbone(
        backbone,
        steps=steps,
        image_height=image_height,
        image_width=image_width,
        rng=spawn_rng(f"backbone-pretrain-{name}"),
        logger=logger,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=max(1, steps // 4),
        resume=True,
    )
    backbone.save(cache_path)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return backbone
