"""Data-parallel task adapters and spawn-safe builders.

A *data-parallel task* is what :class:`repro.dist.DistributedTrainer`
drives on each rank: it owns the model/optimiser replica and knows how
to compute one micro-batch slot's gradients and how to apply a reduced
step.  The protocol (duck-typed, like ``SupervisedTask``):

* ``sampler`` — a :class:`~repro.dist.ShardedSampler`;
* ``iteration`` / ``total_iterations`` / ``eval_every`` attributes;
* ``parameters()``, ``slot_forward_backward(iteration, slot, indices)``
  (returns ``(loss, components)`` with gradients left on the
  parameters), ``set_reduced_gradients(flat, manifest, loss, components)``
  (alias the reduced bucket into ``param.grad`` views),
  ``apply_step(loss)`` / ``skip_step()``;
* the usual state surface: ``state_dict`` / ``load_state_dict`` /
  ``fingerprint_data`` / ``periodic_eval`` / ``finalize`` / ``result``.

Per-slot randomness is drawn from ``spawn_rng`` streams keyed by
``(iteration, slot)`` — never by rank — so a slot's loss and gradients
are identical no matter which worker computes it.  That is the property
the bit-exactness invariant rests on.

The module-level ``build_*`` functions are the worker entry builders:
they take only picklable primitives (a requirement of the ``spawn``
start method) and reconstruct dataset, model, and task inside the
worker process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.dist.flatten import TensorManifest, unflatten_tensors
from repro.dist.sampler import ShardedSampler
from repro.utils.seeding import spawn_rng


def _install_grad_views(parameters: List, flat: np.ndarray,
                        manifest: TensorManifest) -> None:
    """Point every ``param.grad`` at its slice of the reduced bucket."""
    views = unflatten_tensors(flat, manifest)
    for param, view in zip(parameters, views):
        param.grad = view


class YolloDistTask:
    """Adapt a :class:`repro.core.YolloTrainer` replica to the protocol.

    The wrapped trainer keeps doing what it does best (forward/backward,
    optimiser step, history and metrics bookkeeping); this adapter only
    redirects batch selection to the sharded sampler and swaps the
    trainer's RNG for the slot's stream while a slot is being computed.
    The trainer's own ``_rng`` is never consumed, so its state stays
    identical across ranks and checkpoints cleanly.
    """

    def __init__(self, trainer, grad_shards: int):
        from repro.core.losses import LossBreakdown

        self._LossBreakdown = LossBreakdown
        self.trainer = trainer
        self.sampler = ShardedSampler(
            num_samples=len(trainer._train_samples),
            batch_size=trainer.config.batch_size,
            grad_shards=grad_shards,
        )

    # -- iteration state delegates to the trainer ----------------------
    @property
    def iteration(self) -> int:
        return self.trainer.iteration

    @property
    def total_iterations(self) -> int:
        return self.trainer.total_iterations

    @property
    def eval_every(self) -> int:
        return self.trainer.eval_every

    def parameters(self) -> List:
        return self.trainer.optimizer.parameters

    # -- slot compute --------------------------------------------------
    def slot_forward_backward(
        self, iteration: int, slot_id: int, indices: np.ndarray
    ) -> Tuple[float, Dict[str, float]]:
        from repro.data.loader import encode_batch

        samples = [self.trainer._train_samples[i] for i in indices]
        batch = encode_batch(
            samples, self.trainer.dataset.vocab,
            self.trainer.config.max_query_length,
        )
        # The anchor sampler draws per sample from the trainer RNG; give
        # it the slot's own stream so the result is rank-independent.
        saved_rng = self.trainer._rng
        self.trainer._rng = spawn_rng(f"dist-loss-i{iteration}-s{slot_id}")
        try:
            loss = self.trainer._forward_backward_batch(batch)
        finally:
            self.trainer._rng = saved_rng
        breakdown = self.trainer._pending
        self.trainer._pending = None
        return loss, {
            "att": breakdown.att, "cls": breakdown.cls, "reg": breakdown.reg,
        }

    def set_reduced_gradients(self, flat: np.ndarray,
                              manifest: TensorManifest, loss: float,
                              components: Dict[str, float]) -> None:
        _install_grad_views(self.parameters(), flat, manifest)
        self.trainer._flat_grads = flat
        # apply_step only reads the detached component values from the
        # pending breakdown; the loss tensor itself is not needed.
        self.trainer._pending = self._LossBreakdown(
            total=Tensor(np.asarray(loss)),
            att=components.get("att", 0.0),
            cls=components.get("cls", 0.0),
            reg=components.get("reg", 0.0),
        )

    # -- lifecycle delegates -------------------------------------------
    def apply_step(self, loss: float) -> None:
        self.trainer.apply_step(loss)

    def skip_step(self) -> None:
        self.trainer.skip_step()

    def periodic_eval(self) -> None:
        self.trainer.periodic_eval()

    def finalize(self) -> None:
        self.trainer.finalize()

    def state_dict(self) -> Dict[str, Any]:
        return self.trainer.state_dict()

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.trainer.load_state_dict(state)

    def fingerprint_data(self) -> Dict[str, Any]:
        return self.trainer.fingerprint_data()

    def result(self) -> Any:
        return self.trainer.result()


class PretrainDistTask:
    """Data-parallel backbone pretraining (synthetic-ImageNet stand-in).

    The task is generative — there is no finite dataset to shard — so
    the sampler only decides slot *sizes*: each slot renders its share
    of the global batch from the slot's own RNG stream.
    """

    def __init__(self, backbone, steps: int, grad_shards: int,
                 batch_size: int = 16, lr: float = 1e-3,
                 image_height: int = 48, image_width: int = 72):
        from repro.backbone.pretrain import ClassificationHead
        from repro.data.scenes import SceneGenerator
        from repro.optim import Adam

        self.backbone = backbone
        self.head = ClassificationHead(
            backbone.out_channels, rng=spawn_rng("dist-pretrain-head")
        )
        self.optimizer = Adam(
            backbone.parameters() + self.head.parameters(), lr=lr
        )
        self.generator = SceneGenerator(
            height=image_height, width=image_width,
            rng=spawn_rng("dist-pretrain-generator"),
        )
        self.batch_size = batch_size
        self.image_size = (image_height, image_width)
        self.sampler = ShardedSampler(
            num_samples=batch_size, batch_size=batch_size,
            grad_shards=grad_shards, seed_tag="dist-pretrain-sampler",
        )
        self.iteration = 0
        self.total_iterations = steps
        self.eval_every = 0
        self.history: Dict[str, List[float]] = {
            "loss": [], "category_acc": [], "color_acc": [],
        }
        self._flat: Optional[np.ndarray] = None
        self._pending: Dict[str, float] = {}

    def parameters(self) -> List:
        return self.optimizer.parameters

    def slot_forward_backward(
        self, iteration: int, slot_id: int, indices: np.ndarray
    ) -> Tuple[float, Dict[str, float]]:
        from repro.backbone.pretrain import _sample_classification_batch
        from repro.nn import softmax_cross_entropy

        rng = spawn_rng(f"dist-pretrain-i{iteration}-s{slot_id}")
        images, categories, colors = _sample_classification_batch(
            self.generator, len(indices), rng
        )
        features = self.backbone(Tensor(images))
        cat_logits, color_logits = self.head(features)
        loss = (softmax_cross_entropy(cat_logits, categories)
                + softmax_cross_entropy(color_logits, colors))
        self.optimizer.zero_grad()
        loss.backward()
        components = {
            "category_acc": float(
                (cat_logits.data.argmax(axis=1) == categories).mean()
            ),
            "color_acc": float(
                (color_logits.data.argmax(axis=1) == colors).mean()
            ),
        }
        return float(loss.data), components

    def set_reduced_gradients(self, flat: np.ndarray,
                              manifest: TensorManifest, loss: float,
                              components: Dict[str, float]) -> None:
        _install_grad_views(self.parameters(), flat, manifest)
        self._flat = flat
        self._pending = dict(components)

    def apply_step(self, loss: float) -> None:
        self.optimizer.step()
        self._flat = None
        self.iteration += 1
        self.history["loss"].append(float(loss))
        self.history["category_acc"].append(
            self._pending.get("category_acc", 0.0)
        )
        self.history["color_acc"].append(self._pending.get("color_acc", 0.0))

    def skip_step(self) -> None:
        self.optimizer.zero_grad()
        self._flat = None
        self.iteration += 1

    def periodic_eval(self) -> None:
        pass

    def finalize(self) -> None:
        pass

    def state_dict(self) -> Dict[str, Any]:
        return {
            "iteration": self.iteration,
            "optimizer": self.optimizer.state_dict(),
            "backbone": self.backbone.state_dict(),
            "head": self.head.state_dict(),
            "history": {k: list(v) for k, v in self.history.items()},
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.iteration = int(state["iteration"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.backbone.load_state_dict(state["backbone"])
        self.head.load_state_dict(state["head"])
        self.history = {k: list(v) for k, v in state["history"].items()}

    def fingerprint_data(self) -> Dict[str, Any]:
        return {
            "task": "dist-backbone-pretrain",
            "steps": self.total_iterations,
            "batch_size": self.batch_size,
            "lr": self.optimizer.lr,
            "image": list(self.image_size),
        }

    def result(self) -> Dict[str, List[float]]:
        return self.history


# ----------------------------------------------------------------------
# Spawn-safe builders (module-level; only picklable kwargs)
# ----------------------------------------------------------------------

_DATASET_SPECS = None


def _dataset_spec(name: str):
    global _DATASET_SPECS
    if _DATASET_SPECS is None:
        from repro.data import REFCOCO, REFCOCO_PLUS, REFCOCOG

        _DATASET_SPECS = {
            "RefCOCO": REFCOCO, "RefCOCO+": REFCOCO_PLUS, "RefCOCOg": REFCOCOG,
        }
    return _DATASET_SPECS[name]


def warm_backbone(name: str = "tiny", pretrain_steps: int = 1,
                  image_height: int = 48, image_width: int = 72) -> None:
    """Populate the on-disk backbone cache before workers race for it.

    Run once in the launcher process; workers then hit the cache file
    instead of N of them pretraining (and writing) the same weights.
    """
    from repro.backbone import load_pretrained_backbone

    load_pretrained_backbone(name, steps=pretrain_steps,
                             image_height=image_height,
                             image_width=image_width)


def build_yollo_task(
    dataset_name: str = "RefCOCO",
    scale: float = 0.25,
    grad_shards: int = 4,
    epochs: Optional[int] = None,
    iterations: Optional[int] = None,
    eval_every: int = 0,
    backbone: str = "tiny",
    pretrain_steps: int = 1,
    config_overrides: Optional[Dict[str, Any]] = None,
) -> YolloDistTask:
    """Build a YOLLO training replica inside a worker process."""
    from repro.backbone import load_pretrained_backbone
    from repro.core import YolloConfig, YolloModel, YolloTrainer
    from repro.data import build_dataset

    dataset = build_dataset(_dataset_spec(dataset_name).scaled(scale))
    config = YolloConfig(
        backbone=backbone,
        max_query_length=max(8, dataset.max_query_length),
    )
    if config_overrides:
        config = config.with_overrides(**config_overrides)
    pretrained = load_pretrained_backbone(
        config.backbone, steps=pretrain_steps,
        image_height=config.image_height, image_width=config.image_width,
    )
    model = YolloModel(config, vocab_size=len(dataset.vocab),
                       backbone=pretrained)
    trainer = YolloTrainer(model, dataset, config)
    trainer.begin_run(epochs=epochs, iterations=iterations,
                      eval_every=eval_every)
    return YolloDistTask(trainer, grad_shards=grad_shards)


def build_pretrain_task(
    backbone: str = "tiny",
    steps: int = 4,
    grad_shards: int = 4,
    batch_size: int = 16,
    lr: float = 1e-3,
    image_height: int = 48,
    image_width: int = 72,
) -> PretrainDistTask:
    """Build a backbone-pretraining replica inside a worker process."""
    from repro.backbone.factory import build_backbone

    return PretrainDistTask(
        build_backbone(backbone), steps=steps, grad_shards=grad_shards,
        batch_size=batch_size, lr=lr,
        image_height=image_height, image_width=image_width,
    )
