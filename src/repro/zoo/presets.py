"""Built-in model presets.

Two tiers share the same variant axes.  The ``fast`` tier runs the tiny
backbone at reduced widths — small enough that tier-1 tests can build,
train a step, and compile every one — and covers each new pluggable
component in isolation so a regression bisects to one axis.  The
``full`` tier runs the paper-scale configuration (ResNet-50 trunk,
default widths) plus the combinations the zoo benchmark compares.
"""

from __future__ import annotations

from repro.zoo.registry import ModelPreset, register_preset

#: Shared reduced widths for the fast tier.
_FAST = {
    "backbone": "tiny",
    "d_model": 16,
    "d_rel": 16,
    "num_rel2att": 2,
    "ffn_hidden": 16,
    "head_hidden": 16,
}


register_preset(ModelPreset(
    name="tiny",
    description="Fast-tier baseline: paper wiring at reduced widths "
                "(Rel2Att fusion, IoU matcher, softmax CE).",
    config=dict(_FAST),
))

register_preset(ModelPreset(
    name="tiny-dilated",
    description="Fast tier + YOLOF-style dilated context encoder "
                "between the trunk and the flatten.",
    config={**_FAST, "context_encoder": "dilated",
            "encoder_dilations": (1, 2)},
))

register_preset(ModelPreset(
    name="tiny-word2pix",
    description="Fast tier with Word2Pix word-to-pixel cross-attention "
                "fusion instead of the Rel2Att relation map.",
    config={**_FAST, "fusion": "word2pix"},
))

register_preset(ModelPreset(
    name="tiny-topk",
    description="Fast tier with YOLOF uniform top-k anchor matching "
                "instead of rho_high/rho_low IoU thresholds.",
    config={**_FAST, "matcher": "topk"},
))

register_preset(ModelPreset(
    name="tiny-focal",
    description="Fast tier with sigmoid focal classification loss "
                "instead of 2-way softmax cross-entropy.",
    config={**_FAST, "cls_loss": "focal"},
))

register_preset(ModelPreset(
    name="yollo",
    description="Paper configuration: ResNet-50 trunk, Rel2Att fusion, "
                "IoU matching, softmax CE (all defaults).",
    config={},
    tier="full",
))

register_preset(ModelPreset(
    name="yollo-dilated-focal",
    description="Paper scale + dilated context encoder + uniform top-k "
                "matching + focal loss (the YOLOF-flavoured variant).",
    config={"context_encoder": "dilated", "encoder_dilations": (1, 2, 3),
            "matcher": "topk", "cls_loss": "focal"},
    tier="full",
))

register_preset(ModelPreset(
    name="yollo-word2pix",
    description="Paper scale with Word2Pix word-to-pixel fusion.",
    config={"fusion": "word2pix"},
    tier="full",
))
