"""Model zoo registry: named presets lowered into ``YolloConfig``.

A *preset* is a named flat config dict — overrides over the
``YolloConfig`` defaults, in the spirit of detection-lab config files —
registered here at import time (importing :mod:`repro.zoo` pulls in the
built-in presets), so every harness that builds a model (the CLI, the
distributed trainer, the experiment context, the serving fleet, the zoo
benchmark) enumerates variants by name instead of hard-coding
constructor calls.
:func:`build_yollo_model` is the one constructor they share: preset and
dataset in, a model on its pretrained backbone out.

Lowering (:func:`lower_config`) normalises the flat dict (YAML-ish
lists become the tuples the dataclass expects) and validates it through
:meth:`YolloConfig.with_overrides`, so a typo'd key fails with the full
field list at *registration* time, not deep inside a fleet replica.
Each preset also has a stable :func:`preset_fingerprint` — the
checkpoint fingerprint of the lowered config plus the preset name —
used to key checkpoints and the fleet's shared response cache, so two
presets can never pass off weights or responses as each other's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.config import YolloConfig
from repro.runtime.checkpoint import (config_fingerprint, read_checkpoint,
                                     write_checkpoint)

#: Preset tiers: ``fast`` presets are small enough for tier-1 tests;
#: ``full`` presets are paper-scale and only run under ``-m slow``.
TIERS = ("fast", "full")


@dataclass(frozen=True)
class ModelPreset:
    """One registered model variant.

    ``config`` is a flat mapping of ``YolloConfig`` field overrides;
    everything not named keeps the dataclass default.  ``tier`` gates
    how expensive harnesses treat the preset (see :data:`TIERS`).
    """

    name: str
    description: str
    config: Mapping[str, object] = field(default_factory=dict)
    tier: str = "fast"


class UnknownPresetError(KeyError):
    """Lookup of a preset name that is not in the registry."""

    def __init__(self, name: str, available: Sequence[str]):
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown model preset {name!r}; available: "
            f"{', '.join(available) or '(none registered)'}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


_PRESETS: Dict[str, ModelPreset] = {}


def register_preset(preset: ModelPreset) -> ModelPreset:
    """Add a preset to the registry (idempotent per name).

    The config is lowered once here so a bad registration — unknown
    field, invalid tier — fails at import time with a full error.
    """
    if preset.tier not in TIERS:
        raise ValueError(
            f"unknown tier {preset.tier!r}; valid tiers: {', '.join(TIERS)}")
    lower_config(preset)  # fail fast on unknown fields
    _PRESETS[preset.name] = preset
    return preset


def available_presets(tier: Optional[str] = None) -> List[str]:
    if tier is None:
        return list(_PRESETS)
    return [name for name, preset in _PRESETS.items() if preset.tier == tier]


def get_preset(name: str) -> ModelPreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(name, available_presets()) from None


def _resolve(preset: Union[str, ModelPreset]) -> ModelPreset:
    if isinstance(preset, ModelPreset):
        return preset
    return get_preset(preset)


def _normalise(value: object) -> object:
    """Flat-dict values -> dataclass field types (lists become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(item) for item in value)
    return value


def lower_config(preset: Union[str, ModelPreset],
                 **extra_overrides: object) -> YolloConfig:
    """Lower a preset's flat dict into a validated ``YolloConfig``.

    ``extra_overrides`` are applied on top of the preset (harnesses use
    this for dataset-dependent fields like ``max_query_length``); both
    layers go through :meth:`YolloConfig.with_overrides`, so unknown
    keys raise :class:`~repro.core.UnknownConfigFieldError` listing the
    valid field names.
    """
    preset = _resolve(preset)
    normalised = {key: _normalise(value)
                  for key, value in dict(preset.config).items()}
    config = YolloConfig().with_overrides(**normalised)
    if extra_overrides:
        config = config.with_overrides(**extra_overrides)
    return config


def preset_fingerprint(preset: Union[str, ModelPreset],
                       **extra_overrides: object) -> str:
    """Config fingerprint for checkpoints/caches built from a preset.

    Hashes the preset *name* together with every lowered field, so two
    presets that happen to lower identically still fingerprint apart
    (their weights trained under different names must not be swapped),
    and any config drift within a preset changes the fingerprint.
    """
    preset = _resolve(preset)
    config = lower_config(preset, **extra_overrides)
    # Format 1 had no Rel2Att self-attention gate; its files are refused
    # here rather than at the strict ``load_state_dict``.
    return config_fingerprint({"preset": preset.name, "weights_format": 2,
                               **asdict(config)})


def build_model(preset: Union[str, ModelPreset], vocab_size: int,
                pretrained_embeddings: Optional[np.ndarray] = None,
                backbone=None, **extra_overrides: object):
    """Instantiate a :class:`~repro.core.YolloModel` from a preset.

    The architecture alone: ``backbone=None`` initialises a fresh trunk;
    :func:`build_yollo_model` passes the pretrained one.
    """
    from repro.core import YolloModel

    config = lower_config(preset, **extra_overrides)
    return YolloModel(config, vocab_size,
                      pretrained_embeddings=pretrained_embeddings,
                      backbone=backbone)


def build_yollo_model(preset: Union[str, ModelPreset], dataset,
                      pretrain_steps: int = 1,
                      model_path: Optional[str] = None,
                      **config_overrides: object):
    """Build a preset's model on its pretrained backbone for ``dataset``.

    The one constructor behind the CLI, the distributed trainer, the
    serving replicas and :func:`repro.quick_grounder`.  The query
    length defaults to the dataset's (at least 8); ``config_overrides``
    apply on top.  Random numbers are drawn backbone first, then model,
    so a caller that seeds and builds its dataset just before calling
    this gets the same weights in every process.  ``model_path`` loads
    a :func:`save_yollo_model` file over the fresh weights; one written
    under another preset or other ``config_overrides`` raises
    :class:`~repro.runtime.FingerprintMismatchError`.
    """
    from repro.backbone import load_pretrained_backbone
    from repro.core import YolloModel

    config = lower_config(preset, **{
        "max_query_length": max(8, dataset.max_query_length),
        **config_overrides})
    backbone = load_pretrained_backbone(
        config.backbone, steps=pretrain_steps,
        image_height=config.image_height, image_width=config.image_width)
    # Built from the lowered ``config``: handing the overrides to
    # :func:`build_model` again would collide with a ``backbone`` one.
    model = YolloModel(config, len(dataset.vocab), backbone=backbone)
    if model_path:
        fingerprint = preset_fingerprint(preset, **config_overrides)
        model.load_state_dict(
            read_checkpoint(model_path, fingerprint=fingerprint).payload)
    return model


def save_yollo_model(model, path: str,
                     preset: Union[str, ModelPreset]) -> str:
    """Write ``model``'s ``state_dict`` as a checkpoint stamped with its preset.

    The stamp leaves out the dataset-derived query length, so
    :func:`build_yollo_model` loads the file under the same preset at any
    scale and refuses it under any other; fleets reload it as is.
    """
    return write_checkpoint(path, model.state_dict(),
                            fingerprint=preset_fingerprint(preset))


def build_preset_grounder(preset: str = "tiny",
                          dataset_name: str = "RefCOCO", scale: float = 0.1,
                          pretrain_steps: int = 1,
                          model_path: Optional[str] = None,
                          compiled: bool = False, top_k: int = 5,
                          not_found_threshold: float = 0.0):
    """Reconstruct a preset's ranked grounder inside a replica process.

    Module-level and kwarg-picklable so it works as a ``ReplicaSpec``
    builder under ``spawn``.  Replicas are seeded before this runs, so
    every replica built from the *same preset and seed* initialises
    bit-identical weights — the property the fleet soak leans on when
    it compares fleet responses against a single-engine reference built
    the same way in the parent.
    """
    from repro.core import Grounder
    from repro.data import DATASET_SPECS, build_dataset

    dataset = build_dataset(DATASET_SPECS[dataset_name].scaled(scale))
    model = build_yollo_model(preset, dataset, pretrain_steps=pretrain_steps,
                              model_path=model_path)
    model.eval()
    grounder = Grounder(model, dataset.vocab)
    if compiled:
        grounder.compile()
    return grounder.ranked(top_k=top_k,
                           not_found_threshold=not_found_threshold)
