"""Per-proposal region features for the matching stage.

Two-stage methods embed each proposal independently: the region pixels
are cropped and resized to a fixed resolution, encoded by a small CNN,
and concatenated with the standard 5-d normalised spatial feature
(x1, y1, x2, y2, relative area).  This per-proposal work is exactly the
cost the paper eliminates.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.autograd import Tensor, concatenate
from repro.nn import Linear, Module

#: Side of the square each proposal crop is resized to.
CROP_SIZE = 32
#: Backbone preset every proposal crop is encoded with.
BACKBONE = "resnet50"


def crop_and_resize(image: np.ndarray, box: np.ndarray,
                    out_size: Tuple[int, int] = (16, 16)) -> np.ndarray:
    """Crop ``(3, H, W)`` image to ``box`` and nearest-neighbour resize."""
    _, height, width = image.shape
    x1 = float(np.clip(box[0], 0, width - 1))
    y1 = float(np.clip(box[1], 0, height - 1))
    x2 = float(np.clip(box[2], x1 + 1e-3, width))
    y2 = float(np.clip(box[3], y1 + 1e-3, height))
    out_h, out_w = out_size
    ys = np.clip((y1 + (np.arange(out_h) + 0.5) / out_h * (y2 - y1)).astype(int), 0, height - 1)
    xs = np.clip((x1 + (np.arange(out_w) + 0.5) / out_w * (x2 - x1)).astype(int), 0, width - 1)
    return image[:, ys[:, None], xs[None, :]]


def spatial_features(boxes: np.ndarray, image_height: int, image_width: int) -> np.ndarray:
    """Normalised 5-d spatial feature per box: corners + relative area."""
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scale = np.asarray([image_width, image_height, image_width, image_height])
    normalised = boxes / scale
    area = (
        (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        / (image_height * image_width)
    )
    return np.concatenate([normalised, area[:, None]], axis=1)


class RegionEncoder(Module):
    """Backbone + spatial-feature encoder for fixed-size region crops.

    As in the speaker-listener-reinforcer systems, every proposal crop
    is resized to the network's canonical input size and pushed through
    the full CNN — the per-proposal cost that dominates two-stage
    inference (Table 5).  Maps ``(3, crop, crop)`` crops plus 5-d
    spatial features to ``embed_dim`` vectors.
    """

    def __init__(self, embed_dim: int):
        super().__init__()
        from repro.backbone import build_backbone

        self.backbone = build_backbone(BACKBONE)
        self.fc = Linear(self.backbone.out_channels + 5, embed_dim)

    def encode_crops(self, crops: np.ndarray, spatial: np.ndarray) -> Tensor:
        """Crops ``(P, 3, c, c)`` + spatial ``(P, 5)`` -> ``(P, d)``."""
        hidden = self.backbone(Tensor(crops))
        pooled = hidden.max(axis=(2, 3))
        features = concatenate([pooled, Tensor(np.asarray(spatial))], axis=1)
        return self.fc(features)

    def forward(self, image: np.ndarray, boxes: np.ndarray) -> Tensor:
        """Encode every box of one image: ``(P, d)``."""
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        crops = np.stack(
            [crop_and_resize(image, box, (CROP_SIZE, CROP_SIZE)) for box in boxes]
        )
        spatial = spatial_features(boxes, image.shape[1], image.shape[2])
        return self.encode_crops(crops, spatial)
