"""Synthetic grounding datasets standing in for RefCOCO / RefCOCO+ / RefCOCOg.

The generator preserves every property the paper's evaluation depends on:
scenes contain multiple same-category distractors so language is required
for disambiguation; the RefCOCO flavour uses short phrases with location
words, RefCOCO+ forbids location words (appearance only), RefCOCOg uses
long relational sentences; testA contains person images and testB
non-person images.
"""

from repro.data.scenes import (
    CATEGORIES,
    COLOR_VALUES,
    COLORS,
    PERSON_CATEGORY,
    Scene,
    SceneGenerator,
    SceneObject,
)
from repro.data.render import render_scene
from repro.data.expressions import ExpressionGenerator, describe_location
from repro.data.refcoco import (
    DATASET_SPECS,
    DatasetSpec,
    GroundingDataset,
    GroundingSample,
    REFCOCO,
    REFCOCO_PLUS,
    REFCOCOG,
    build_dataset,
    dataset_statistics,
    request_sample,
)
from repro.data.loader import encode_batch

__all__ = [
    "CATEGORIES",
    "COLORS",
    "COLOR_VALUES",
    "PERSON_CATEGORY",
    "Scene",
    "SceneObject",
    "SceneGenerator",
    "render_scene",
    "ExpressionGenerator",
    "describe_location",
    "DATASET_SPECS",
    "DatasetSpec",
    "GroundingSample",
    "GroundingDataset",
    "request_sample",
    "build_dataset",
    "dataset_statistics",
    "REFCOCO",
    "REFCOCO_PLUS",
    "REFCOCOG",
    "encode_batch",
]
