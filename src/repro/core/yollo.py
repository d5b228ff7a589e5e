"""The full YOLLO model: encoder -> Rel2Att stack -> detection head."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.autograd import Tensor, no_grad, softmax
from repro.core.config import YolloConfig
from repro.core.detector import TargetDetectionNetwork
from repro.core.encoder import FeatureEncoder
from repro.core.response import GroundingResponse
from repro.core.word2pix import build_fusion_stack
from repro.detection import clip_boxes, nms
from repro.detection.boxes import decode_centered
from repro.nn import Module
from repro.obs import trace_span

#: IoU above which a lower-scored decoded box is suppressed when ranking.
NMS_IOU = 0.6

#: Anchors the ranked decode first decodes per box it must keep; the
#: score-ordered prefix doubles until enough boxes survive NMS.
PREFIX_PER_KEPT = 8


@dataclass
class YolloOutput:
    """Raw network outputs for a batch."""

    cls_logits: Tensor  # (B, A, 2)
    reg_offsets: Tensor  # (B, A, 4)
    attention_masks: List[Tensor]  # per-module (B, m) raw masks


@dataclass
class GroundingPrediction:
    """Decoded top-1 prediction for one image/query pair."""

    box: np.ndarray  # (4,) x1, y1, x2, y2
    score: float  # target probability of the winning anchor
    anchor_index: int
    attention_map: np.ndarray  # (grid_h, grid_w) softmax of the last mask


class YolloModel(Module):
    """One-stage visual grounding (Figure 2a).

    ``forward`` returns raw outputs for training; ``predict`` decodes the
    top-1 scored anchor into an image-space box (Section 3.3: no NMS, no
    ranking over proposals — the single best anchor is the answer).
    """

    def __init__(self, config: YolloConfig, vocab_size: int,
                 pretrained_embeddings: Optional[np.ndarray] = None,
                 backbone=None):
        super().__init__()
        self.config = config
        self.encoder = FeatureEncoder(config, vocab_size, pretrained_embeddings, backbone)
        # Attribute keeps its historical name whichever fusion stack is
        # installed, so state-dict keys stay stable across presets that
        # share a fusion choice.
        self.rel2att = build_fusion_stack(config)
        self.detector = TargetDetectionNetwork(
            config,
            grid_h=self.encoder.grid_h,
            grid_w=self.encoder.grid_w,
            stride=self.encoder.backbone.stride,
        )

    @property
    def anchor_grid(self):
        return self.detector.anchor_grid

    # ------------------------------------------------------------------
    # Compiled inference
    # ------------------------------------------------------------------
    def compile(self, max_plans: int = 32) -> "YolloModel":
        """Enable compiled inference: trace once per input shape, replay.

        ``predict`` keeps its exact eager semantics (plans are validated
        bit-exact against the trace at build time) but runs the forward
        pass through a :class:`repro.graph.ExecutionPlan` — constant
        folding, BatchNorm folding, epilogue fusion, and arena buffer
        reuse — compiled lazily per input signature (the shape and dtype
        of images, token ids, token mask and clause masks, ``None`` for
        an absent argument) and cached in a
        :class:`repro.graph.PlanCache`.  Clause masks are a traced
        input, so clause-conditioned batches replay the same plans.
        """
        from repro.graph import PlanCache

        self._plan_cache = PlanCache(max_plans=max_plans)
        return self

    def uncompile(self) -> "YolloModel":
        """Drop compiled plans and return to eager ``predict``."""
        self._plan_cache = None
        return self

    @property
    def plan_cache(self):
        """The active :class:`repro.graph.PlanCache`, or ``None``."""
        return getattr(self, "_plan_cache", None)

    @staticmethod
    def _plan_key(*arrays: Optional[np.ndarray]) -> tuple:
        """``(shape, dtype)`` of every array argument, ``None`` if absent."""
        return tuple(None if array is None
                     else (np.shape(array), np.asarray(array).dtype.str)
                     for array in arrays)

    def _compiled_forward(self, images: np.ndarray, token_ids: np.ndarray,
                          token_mask: Optional[np.ndarray],
                          clause_masks: Optional[np.ndarray]) -> YolloOutput:
        """Run ``forward`` through a cached execution plan (eval only).

        On a cache miss the forward pass is traced, optimised, and
        compiled in the cache's workspace.  Building the plan is its
        first run, on these very inputs, checked bitwise against the
        trace, so its outputs are this call's answer.  The compile time
        is recorded on the cache so callers (e.g. the serving engine)
        can attribute it separately from execution time.
        """
        import time as _time

        from repro.graph import ExecutionPlan, optimize_graph, trace

        cache = self._plan_cache
        args = (images, token_ids, token_mask, clause_masks)
        key = self._plan_key(*args)
        plan = cache.get(key)
        if plan is None:
            start = _time.perf_counter()
            traced = trace(self.forward, Tensor(images), *args[1:],
                           name="yollo.forward")
            optimize_graph(traced.graph)
            plan = ExecutionPlan(traced, cache.workspace)
            answer = plan.first_answer()
            cache.store(key, plan, (_time.perf_counter() - start) * 1e3)
            return answer
        # Keep the eager span name so model-time attribution (e.g.
        # eval.timing MODEL_SPANS) sees compiled runs as forward time.
        with trace_span("yollo.forward"):
            return plan.run(Tensor(images), *args[1:])

    def train(self, mode: bool = True) -> "YolloModel":
        # Plans bake eval-mode state (BN running stats fold to
        # constants), so any return to training invalidates them.
        if mode:
            cache = getattr(self, "_plan_cache", None)
            if cache is not None:
                cache.clear()
        super().train(mode)
        return self

    def load_state_dict(self, state) -> None:
        # New weights invalidate every compiled plan: constants hold the
        # traced arrays by reference and folded BN stats are snapshots.
        super().load_state_dict(state)
        cache = getattr(self, "_plan_cache", None)
        if cache is not None:
            cache.clear()

    def forward(self, images: Tensor, token_ids: np.ndarray,
                token_mask: Optional[np.ndarray] = None,
                clause_masks: Optional[np.ndarray] = None) -> YolloOutput:
        with trace_span("yollo.forward"):
            with trace_span("yollo.encoder"):
                image_seq, query_seq = self.encoder(images, token_ids)
            with trace_span("yollo.rel2att"):
                attended, attention_masks = self.rel2att(
                    image_seq, query_seq, token_mask, clause_masks)
            # Reconstruct the attended feature map M~ (B, d, gh, gw).
            batch = attended.shape[0]
            feature_map = attended.transpose(0, 2, 1).reshape(
                batch, self.config.d_model, self.encoder.grid_h, self.encoder.grid_w
            )
            with trace_span("yollo.detector"):
                cls_logits, reg_offsets = self.detector(feature_map)
        return YolloOutput(cls_logits, reg_offsets, attention_masks)

    def _predict_arrays(self, images: np.ndarray, token_ids: np.ndarray,
                        token_mask: Optional[np.ndarray],
                        clause_masks: Optional[np.ndarray] = None,
                        attention: bool = True):
        """Shared inference pass for :meth:`predict`/:meth:`predict_ranked`.

        Returns ``(probs, offsets, last_mask)`` as plain arrays, with
        cross-boundary anchors' probabilities forced to -1 (standard RPN
        practice): an anchor hanging off the image decodes to a clipped
        sliver, and its classification score is weakly supervised, so
        letting it win produces degenerate boxes.  ``last_mask``, the
        softmax of the last attention mask, is ``None`` unless
        ``attention``.
        """
        with self.evaluating(), no_grad():
            if getattr(self, "_plan_cache", None) is not None:
                output = self._compiled_forward(images, token_ids, token_mask,
                                                clause_masks)
            else:
                output = self.forward(Tensor(images), token_ids, token_mask,
                                      clause_masks)
            with trace_span("yollo.decode"):
                probs = softmax(output.cls_logits, axis=-1).data[..., 1]  # (B, A)
                offsets = output.reg_offsets.data
                last_mask = (softmax(output.attention_masks[-1], axis=-1).data
                             if attention else None)

        anchors = self.anchor_grid.all_anchors()
        margin = 0.25 * self.anchor_grid.stride
        inside = (
            (anchors[:, 0] >= -margin)
            & (anchors[:, 1] >= -margin)
            & (anchors[:, 2] <= self.config.image_width + margin)
            & (anchors[:, 3] <= self.config.image_height + margin)
        )
        if inside.any():
            probs = np.where(inside[None, :], probs, -1.0)
        return probs, offsets, last_mask

    def _rank_sample(self, probs: np.ndarray, offsets: np.ndarray, top_k: int):
        """NMS-ranked decode (at :data:`NMS_IOU`) of one sample's in-bounds anchors.

        Returns ``(boxes, scores, anchor_indices)`` best-first; the
        indices address the full anchor grid.  Greedy NMS keeps or drops
        a box by the boxes scored above it alone, so the in-bounds
        anchors are sorted by score once (stable, as :func:`nms` sorts)
        and only a score-ordered prefix is decoded and suppressed: first
        :data:`PREFIX_PER_KEPT` anchors per box to keep, doubling until
        ``top_k`` boxes survive or the list runs out.  The answer, bytes
        and dtypes included, is that of decoding every in-bounds anchor.
        """
        valid = probs >= 0.0  # cross-boundary anchors carry -1
        if not valid.any():
            valid = np.ones_like(probs, dtype=bool)
        indices = np.flatnonzero(valid)
        order = indices[np.argsort(-probs[indices], kind="stable")]
        centers = self.anchor_grid.anchor_centers()
        size = PREFIX_PER_KEPT * top_k
        while True:
            prefix = order[:size]
            boxes = clip_boxes(
                decode_centered(centers[prefix], offsets[prefix]),
                self.config.image_height, self.config.image_width,
            )
            scores = probs[prefix]
            keep = nms(boxes, scores, iou_threshold=NMS_IOU, max_keep=top_k)
            if len(keep) == top_k or len(prefix) == len(order):
                return boxes[keep], scores[keep], prefix[keep]
            size *= 2

    def predict(self, images: np.ndarray, token_ids: np.ndarray,
                token_mask: Optional[np.ndarray] = None,
                clause_masks: Optional[np.ndarray] = None,
                ) -> List[GroundingPrediction]:
        """Run inference and decode the top-1 box per sample.

        The top-1 answer is :meth:`predict_ranked`'s first entry: the
        best in-bounds anchor (see :meth:`_predict_arrays`), decoded by
        the same path.
        """
        probs, offsets, last_mask = self._predict_arrays(
            images, token_ids, token_mask, clause_masks)
        grid_h, grid_w = self.encoder.grid_h, self.encoder.grid_w
        predictions: List[GroundingPrediction] = []
        for b in range(probs.shape[0]):
            boxes, scores, indices = self._rank_sample(probs[b], offsets[b], top_k=1)
            predictions.append(
                GroundingPrediction(
                    box=boxes[0],
                    score=float(scores[0]),
                    anchor_index=int(indices[0]),
                    attention_map=last_mask[b].reshape(grid_h, grid_w),
                )
            )
        return predictions

    def predict_ranked(self, images: np.ndarray, token_ids: np.ndarray,
                       token_mask: Optional[np.ndarray] = None,
                       top_k: int = 5,
                       not_found_threshold: float = 0.0,
                       clause_masks: Optional[np.ndarray] = None,
                       ) -> List[GroundingResponse]:
        """Decode a ranked answer list per sample (the scenario protocol).

        The in-bounds anchors are ranked by score, greedily
        NMS-suppressed at :data:`NMS_IOU`, and the ``top_k`` survivors are
        returned best-first with their target probabilities.
        ``not_found`` is declared when no survivor clears
        ``not_found_threshold`` — the calibrated decision crowded-scene
        no-target queries require (a top-1 argmax box cannot say
        "absent").  Only the score-ordered prefix that NMS needs is
        decoded (see :meth:`_rank_sample`), with the same answer as
        decoding every anchor.
        """
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        probs, offsets, _ = self._predict_arrays(
            images, token_ids, token_mask, clause_masks, attention=False)
        responses: List[GroundingResponse] = []
        for b in range(probs.shape[0]):
            boxes, scores, _ = self._rank_sample(probs[b], offsets[b], top_k)
            responses.append(GroundingResponse(
                boxes=boxes,
                scores=scores,
                not_found=bool(len(scores) == 0
                               or scores[0] < not_found_threshold),
                threshold=not_found_threshold,
            ))
        return responses
