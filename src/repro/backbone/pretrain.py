"""Synthetic-ImageNet pre-training for backbones.

The paper pre-trains its ResNet on ImageNet before grounding training.
Our stand-in task renders single-object scenes and trains the backbone
with two linear heads (category and colour classification) on globally
pooled features, so the trunk learns shape- and colour-selective filters
before it is fine-tuned inside YOLLO.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.data.render import render_scene
from repro.data.scenes import CATEGORIES, COLORS, Scene, SceneGenerator
from repro.nn import Linear, Module, softmax_cross_entropy
from repro.optim import Adam
from repro.runtime import SupervisedTask, TrainingSupervisor, cached
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


def pretrain_fingerprint(steps: int, batch_size: int = 16, lr: float = 1e-3,
                         image_height: int = 48,
                         image_width: int = 72) -> Dict[str, Any]:
    """The pretrain task's checkpoint fingerprint, part of a backbone's key."""
    # Format 1 drew single-process batches from a stateful ``rng``.
    return {"task": "backbone-pretrain", "steps": steps, "batch_size": batch_size,
            "lr": lr, "image": [image_height, image_width], "schedule_format": 2}


class BackbonePretrainTask(SupervisedTask):
    """Backbone pretraining as one :class:`repro.runtime.SupervisedTask`.

    One schedule seed, drawn from ``rng`` at construction, seeds each
    slot's render stream ``(seed, iteration, slot)``; a single-process
    step is slot 0 of one.  Generative: only ``len(indices)`` is read.
    """

    def __init__(
        self,
        backbone: Module,
        steps: int = 60,
        batch_size: int = 16,
        lr: float = 1e-3,
        image_height: int = 48,
        image_width: int = 72,
        rng: Optional[np.random.Generator] = None,
        logger: Optional[ProgressLogger] = None,
    ):
        rng = rng if rng is not None else spawn_rng("backbone-pretrain")
        self.logger = logger or ProgressLogger("pretrain", enabled=False)
        self.backbone = backbone
        self.generator = SceneGenerator(height=image_height, width=image_width)
        # The head must draw its initial weights from the pretrain's own
        # stream: pulling from the process-global generator here would
        # shift every later init for cache-miss runs only, making cold-
        # and warm-cache training runs diverge.
        self.head = ClassificationHead(backbone.out_channels, rng=rng)
        self._schedule_seed = int(rng.integers(2**63))
        self.optimizer = Adam(backbone.parameters() + self.head.parameters(),
                              lr=lr)
        self.batch_size = batch_size
        self.image_size = [image_height, image_width]
        self.iteration = 0
        self.total_iterations = steps
        self.history: Dict[str, List[float]] = {
            "loss": [], "category_acc": [], "color_acc": [],
        }
        self._pending: Dict[str, float] = {}

    def parameters(self) -> List:
        return self.optimizer.parameters

    def forward_backward(self) -> float:
        loss, _ = self.slot_forward_backward(
            self.iteration, 0, self.global_batch(self.iteration))
        return loss

    def global_batch(self, iteration: int) -> np.ndarray:
        """The step's sample indices: generative, so only their count matters."""
        return np.arange(self.batch_size)

    def slot_forward_backward(
        self, iteration: int, slot: int, indices: np.ndarray
    ) -> Tuple[float, Dict[str, float]]:
        """One micro-batch slot: loss, accuracies, and gradients."""
        images, categories, colors = _sample_classification_batch(
            self.generator, len(indices),
            np.random.default_rng((self._schedule_seed, iteration, slot)))
        cat_logits, color_logits = self.head(self.backbone(Tensor(images)))
        loss = softmax_cross_entropy(cat_logits, categories) + softmax_cross_entropy(
            color_logits, colors
        )
        self.optimizer.zero_grad()
        loss.backward()
        self._pending = {
            "category_acc": float(
                (cat_logits.data.argmax(axis=1) == categories).mean()
            ),
            "color_acc": float((color_logits.data.argmax(axis=1) == colors).mean()),
        }
        return float(loss.data), self._pending

    def set_reduced_step(self, loss: float, components: Dict[str, float]) -> None:
        """Record the slot-reduced accuracies for :meth:`apply_step`."""
        self._pending = dict(components)

    def apply_step(self, loss: float) -> None:
        self.optimizer.step()
        self.iteration += 1
        self.history["loss"].append(loss)
        self.history["category_acc"].append(self._pending["category_acc"])
        self.history["color_acc"].append(self._pending["color_acc"])
        self.logger.periodic(
            f"step {self.iteration}/{self.total_iterations} loss={loss:.3f} "
            f"cat={self._pending['category_acc']:.2f} "
            f"color={self._pending['color_acc']:.2f}"
        )

    def skip_step(self) -> None:
        self.optimizer.zero_grad()
        self.iteration += 1

    def fingerprint_data(self) -> Dict[str, Any]:
        return pretrain_fingerprint(self.total_iterations, self.batch_size,
                                    self.optimizer.lr, *self.image_size)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "optimizer": self.optimizer.state_dict(),
            "modules": {"backbone": self.backbone.state_dict(),
                        "head": self.head.state_dict()},
            "schedule_seed": self._schedule_seed,
            "extra": {k: list(v) for k, v in self.history.items()},
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.iteration = int(state["iteration"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.backbone.load_state_dict(state["modules"]["backbone"])
        self.head.load_state_dict(state["modules"]["head"])
        self._schedule_seed = int(state["schedule_seed"])
        self.history = {k: list(v) for k, v in state["extra"].items()}

    def result(self) -> Dict[str, List[float]]:
        return self.history


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
    ImageNet weights.  The :class:`BackbonePretrainTask` runs under a
    :class:`repro.runtime.TrainingSupervisor`, which skips anomalous
    steps; ``checkpoint_dir`` adds checkpoints every ``checkpoint_every``
    steps and ``resume=True`` (which needs ``checkpoint_dir``) continues
    a killed run from the newest checkpoint.
    """
    task = BackbonePretrainTask(
        backbone, steps=steps, batch_size=batch_size, lr=lr,
        image_height=image_height, image_width=image_width, rng=rng,
        logger=logger,
    )
    TrainingSupervisor(
        task,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every or max(1, steps // 4),
        resume=resume,
        logger=task.logger,
    ).run()
    return task.history


def backbone_key(name: str, backbone: Module, steps: int,
                 image_height: int = 48, image_width: int = 72) -> Dict[str, Any]:
    """The :func:`repro.runtime.cached` key of a pretrained backbone.

    Arguments and state shapes only: no pretrain task is built.  Like a
    downloaded ImageNet checkpoint, the weights ignore the global seed.
    """
    return {"pretrain": pretrain_fingerprint(steps, image_height=image_height,
                                             image_width=image_width),
            "backbone": name,
            "seed": zlib.crc32(f"backbone-pretrain-{name}".encode("utf-8")),
            "shapes": {k: list(v.shape) for k, v in backbone.state_dict().items()}}


def load_pretrained_backbone(name: str, steps: int = 600, image_height: int = 48,
                             image_width: int = 72,
                             cache_dir: Optional[str] = None):
    """Build a backbone preset with synthetic-ImageNet weights, cached.

    This mirrors downloading the paper's ImageNet checkpoint: the first
    call for a :func:`backbone_key` trains, later calls load.
    """
    from repro.backbone.factory import build_backbone

    backbone = build_backbone(name)
    key = backbone_key(name, backbone, steps, image_height, image_width)

    def pretrain() -> Dict[str, np.ndarray]:
        pretrain_backbone(backbone, steps=steps, image_height=image_height,
                          image_width=image_width,
                          rng=np.random.default_rng(key["seed"]))
        return backbone.state_dict()

    backbone.load_state_dict(cached(cache_dir, "backbone", key, pretrain))
    return backbone
