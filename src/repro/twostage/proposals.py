"""Stage-i proposal generators (query-blind, as the paper criticises).

Two implementations:

* :class:`SegmentationProposer` — a deterministic selective-search-style
  proposer: foreground segmentation, connected components, plus jittered
  and merged variants.  Its :data:`QUALITY` controls box misalignment
  and target misses, modelling the detector pathologies of Section 1.
* :class:`RPNProposer` — a class-agnostic region proposal network (the
  Faster-R-CNN stand-in): backbone + objectness/offset heads over the
  shared anchor grid, decoded with top-k + NMS.  Table 5 times it
  untrained, since its cost does not depend on its weights.

Both are *query-blind*: nothing about the language query informs stage i,
which is precisely the structural weakness YOLLO removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy import ndimage

from repro.autograd import Tensor, no_grad, softmax
from repro.backbone import build_backbone
from repro.detection import AnchorGrid, clip_boxes, decode_offsets, nms
from repro.nn import Conv2d, Module
from repro.utils.seeding import spawn_rng

#: :class:`SegmentationProposer` quality in (0, 1]: scales both the box
#: jitter and the per-component miss rate (1 is the cleanest).
QUALITY = 0.7
#: Perturbed copies of each component box.
JITTER_COPIES = 10
#: Proposals kept per image by :class:`SegmentationProposer`.
SEGMENTATION_MAX_PROPOSALS = 100
#: :class:`RPNProposer` conv width, anchors, proposals kept, NMS IoU.
RPN_HIDDEN = 32
RPN_SCALES = (12.0, 18.0, 26.0)
RPN_RATIOS = (0.5, 1.0, 2.0)
RPN_MAX_PROPOSALS = 20
RPN_NMS_IOU = 0.7


@dataclass
class ProposalSet:
    """Stage-i output for one image."""

    boxes: np.ndarray  # (P, 4)
    scores: np.ndarray  # (P,) objectness

    def __len__(self) -> int:
        return len(self.boxes)


class SegmentationProposer:
    """Selective-search-style proposer over the synthetic renders.

    Foreground pixels (those deviating from the smooth background) are
    grouped into connected components; each component contributes its
    bounding box plus :data:`JITTER_COPIES` perturbed variants, and
    adjacent component pairs contribute merged boxes.  :data:`QUALITY`
    scales both the jitter magnitude and the per-component miss rate.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng if rng is not None else spawn_rng("seg-proposer")

    def propose(self, image: np.ndarray) -> ProposalSet:
        """Image ``(3, H, W)`` -> proposals."""
        rng = self._rng
        _, height, width = image.shape
        foreground = self._foreground_mask(image)
        labels, count = ndimage.label(foreground)
        jitter_scale = 2.5 * (1.0 - QUALITY) + 0.5

        boxes: List[np.ndarray] = []
        components: List[np.ndarray] = []
        for slice_y, slice_x in ndimage.find_objects(labels):
            box = np.asarray(
                [slice_x.start, slice_y.start, slice_x.stop, slice_y.stop], dtype=np.float64
            )
            if (box[2] - box[0]) * (box[3] - box[1]) < 9:
                continue
            components.append(box)
            if rng.random() > QUALITY * 0.3 + 0.7:  # occasional hard miss
                continue
            boxes.append(box)
            for _ in range(JITTER_COPIES):
                noise = rng.normal(0.0, jitter_scale, size=4)
                boxes.append(box + noise)
        for i in range(len(components)):
            for j in range(i + 1, len(components)):
                merged = np.concatenate([components[i], components[j]])
                boxes.append(
                    np.asarray(
                        [merged[0::4].min(), merged[1::4].min(),
                         merged[2::4].max(), merged[3::4].max()]
                    )
                )
        if not boxes:  # degenerate image: fall back to the full frame
            boxes = [np.asarray([0.0, 0.0, width, height])]

        stacked = clip_boxes(np.stack(boxes), height, width)[:SEGMENTATION_MAX_PROPOSALS]
        scores = np.linspace(1.0, 0.5, len(stacked))
        return ProposalSet(boxes=stacked, scores=scores)

    @staticmethod
    def _foreground_mask(image: np.ndarray) -> np.ndarray:
        """Pixels whose colour deviates from the smooth background."""
        channel_spread = image.max(axis=0) - image.min(axis=0)
        brightness = image.mean(axis=0)
        return (channel_spread > 0.12) | (brightness > 0.35)


class RPNProposer(Module):
    """Class-agnostic RPN (the Faster-R-CNN stage-i stand-in)."""

    def __init__(self, image_height: int = 48, image_width: int = 72,
                 backbone: str = "tiny"):
        super().__init__()
        self.backbone = build_backbone(backbone)
        self.image_height = image_height
        self.image_width = image_width
        grid_h = image_height // self.backbone.stride
        grid_w = image_width // self.backbone.stride
        self.anchor_grid = AnchorGrid(
            grid_h=grid_h, grid_w=grid_w, stride=self.backbone.stride,
            scales=RPN_SCALES, aspect_ratios=RPN_RATIOS,
        )
        k = self.anchor_grid.num_anchors_per_cell
        self.conv = Conv2d(self.backbone.out_channels, RPN_HIDDEN, 3, padding=1)
        self.cls_head = Conv2d(RPN_HIDDEN, 2 * k, 1)
        self.reg_head = Conv2d(RPN_HIDDEN, 4 * k, 1)

    def forward(self, images: Tensor):
        """Images -> per-anchor (cls logits (B,A,2), offsets (B,A,4))."""
        feature_map = self.backbone(images)
        hidden = self.conv(feature_map).relu()
        batch = feature_map.shape[0]
        grid = self.anchor_grid
        k = grid.num_anchors_per_cell
        cls = self.cls_head(hidden).reshape(batch, k, 2, grid.grid_h, grid.grid_w)
        cls = cls.transpose(0, 3, 4, 1, 2).reshape(batch, grid.num_anchors, 2)
        reg = self.reg_head(hidden).reshape(batch, k, 4, grid.grid_h, grid.grid_w)
        reg = reg.transpose(0, 3, 4, 1, 2).reshape(batch, grid.num_anchors, 4)
        return cls, reg

    def propose(self, image: np.ndarray) -> ProposalSet:
        """Run the RPN on one image and decode top proposals."""
        with self.evaluating(), no_grad():
            cls, reg = self.forward(Tensor(image[None]))
            probs = softmax(cls, axis=-1).data[0, :, 1]
            offsets = reg.data[0]
        anchors = self.anchor_grid.all_anchors()
        order = np.argsort(-probs, kind="stable")[: RPN_MAX_PROPOSALS * 4]
        decoded = decode_offsets(anchors[order], offsets[order])
        decoded = clip_boxes(decoded, self.image_height, self.image_width)
        keep = nms(decoded, probs[order], iou_threshold=RPN_NMS_IOU,
                   max_keep=RPN_MAX_PROPOSALS)
        return ProposalSet(boxes=decoded[keep], scores=probs[order][keep])
