"""Spawn-safe builders of the tasks a data-parallel run drives.

Each rank runs the same task object a single-process run steps: a
:class:`repro.core.YolloTrainer` or a
:class:`repro.backbone.pretrain.BackbonePretrainTask`.  The builders
take only picklable primitives (a requirement of the ``spawn`` start
method) and reconstruct dataset, model, and task inside the worker
process.  The micro-batch decomposition is not theirs to choose: the
:class:`~repro.dist.DistributedTrainer` derives it from
``DistConfig.grad_shards``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


def build_yollo_task(
    dataset_name: str = "RefCOCO",
    scale: float = 0.25,
    epochs: Optional[int] = None,
    iterations: Optional[int] = None,
    eval_every: int = 0,
    preset: str = "tiny",
    pretrain_steps: int = 1,
    config_overrides: Optional[Dict[str, Any]] = None,
):
    """Build a YOLLO trainer for a zoo preset inside a worker."""
    from repro.core import YolloTrainer
    from repro.data import DATASET_SPECS, build_dataset
    from repro.zoo import build_yollo_model

    dataset = build_dataset(DATASET_SPECS[dataset_name].scaled(scale))
    model = build_yollo_model(preset, dataset, pretrain_steps=pretrain_steps,
                              **(config_overrides or {}))
    trainer = YolloTrainer(model, dataset, model.config)
    return trainer.begin_run(epochs=epochs, iterations=iterations,
                             eval_every=eval_every)


def build_pretrain_task(
    backbone: str = "tiny",
    steps: int = 4,
    batch_size: int = 16,
    lr: float = 1e-3,
    image_height: int = 48,
    image_width: int = 72,
):
    """Build a backbone-pretraining task inside a worker process."""
    from repro.backbone import BackbonePretrainTask, build_backbone

    return BackbonePretrainTask(
        build_backbone(backbone), steps=steps, batch_size=batch_size, lr=lr,
        image_height=image_height, image_width=image_width,
    )
