"""repro.zoo: config-driven model registry.

Named presets — flat ``YolloConfig`` override dicts spanning the
pluggable component axes (context encoder, fusion stack, anchor
matcher, classification loss) — validated and lowered into model
builders; :func:`build_yollo_model` is the one constructor every
harness builds a YOLLO model through.  See :mod:`repro.zoo.registry`
for the lookup API and :mod:`repro.zoo.presets` for the built-in
entries (imported here so the registry is populated on
``import repro.zoo``).
"""

from repro.zoo.registry import (
    ModelPreset,
    UnknownPresetError,
    available_presets,
    build_model,
    build_preset_grounder,
    build_yollo_model,
    get_preset,
    lower_config,
    preset_fingerprint,
    register_preset,
)
from repro.zoo import presets as _presets  # noqa: F401 (populates registry)

__all__ = [
    "ModelPreset",
    "UnknownPresetError",
    "available_presets",
    "build_model",
    "build_preset_grounder",
    "build_yollo_model",
    "get_preset",
    "lower_config",
    "preset_fingerprint",
    "register_preset",
]
