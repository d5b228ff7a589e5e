"""repro — a full reproduction of "You Only Look & Listen Once" (YOLLO).

One-stage visual grounding with Relation-to-Attention modules, built on
a from-scratch numpy deep-learning substrate, with synthetic
RefCOCO-style datasets, two-stage baselines, and an experiment harness
that regenerates every table and figure of the paper.

Quickstart::

    from repro import quick_grounder
    grounder, dataset = quick_grounder()        # trains a small model
    sample = dataset["val"][0]
    prediction = grounder.ground(sample.image, sample.query)
    print(prediction.box, prediction.score)
"""

from repro.core import (
    Grounder,
    GroundingPrediction,
    YolloConfig,
    YolloModel,
    YolloTrainer,
)
from repro.data import (
    DatasetSpec,
    GroundingDataset,
    GroundingSample,
    REFCOCO,
    REFCOCO_PLUS,
    REFCOCOG,
    build_dataset,
)
from repro.eval import evaluate_grounder
from repro.serve import ServeEngine, ServerStats

__version__ = "1.0.0"

__all__ = [
    "YolloConfig",
    "YolloModel",
    "YolloTrainer",
    "Grounder",
    "GroundingPrediction",
    "DatasetSpec",
    "GroundingDataset",
    "GroundingSample",
    "REFCOCO",
    "REFCOCO_PLUS",
    "REFCOCOG",
    "build_dataset",
    "evaluate_grounder",
    "ServeEngine",
    "ServerStats",
    "quick_grounder",
    "__version__",
]


def quick_grounder(dataset_scale: float = 0.5, epochs: int = 10):
    """Train a small YOLLO model end-to-end and return ``(grounder, dataset)``.

    A convenience entry point for the README quickstart; takes a couple
    of minutes on one CPU core.  Accuracy keeps improving well past this
    budget — see ``examples/train_full_model.py`` for the full recipe.
    """
    from repro.zoo import build_yollo_model

    dataset = build_dataset(REFCOCO.scaled(dataset_scale))
    model = build_yollo_model("yollo", dataset, pretrain_steps=300)
    trainer = YolloTrainer(model, dataset, model.config)
    trainer.train(epochs=epochs)
    return trainer.grounder, dataset
