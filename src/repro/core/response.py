"""Structured grounding responses: ranked boxes + an explicit not-found.

:class:`GroundingResponse` is the one answer every grounder returns
(``grounder(samples) -> [GroundingResponse]``, one per sample) and every
consumer handles: evaluation and timing score its :attr:`top_box`, and
every serving tier (:class:`~repro.serve.ServeEngine`, both cache tiers,
the fleet and the soak harness) ships it whole.  It carries ranked
boxes with per-box confidences, plus an explicit ``not_found`` decision
taken against a calibrated ``threshold`` (see
:func:`repro.eval.metrics.calibrate_not_found_threshold`).  The paper's
single YOLLO answer is the ``top_k=1`` response: its :attr:`top_box` is
the argmax anchor box :meth:`repro.core.YolloModel.predict` decodes.
Crowded scenes (:mod:`repro.scenarios`) need the longer ranked list and
the "not found" answer an argmax box cannot give.  A ``version``
fingerprint of the serving weights rides along so reload harnesses can
verify a response's provenance end to end (0.0 when the grounder does
not track one).

Every serving tier stores and returns responses by value:

* :func:`freeze_response` — deep, read-only copy for cache insertion
  (mutating a served response must never corrupt later hits);
* :func:`thaw_response` — deep, writable copy handed to callers (the
  caller owns its response outright);
* :func:`responses_equal` — byte-identical comparison used by tests to
  assert cached responses replay exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class GroundingResponse:
    """Ranked answer to one grounding query.

    Attributes
    ----------
    boxes:
        ``(k, 4)`` float64 boxes, best first.  ``k == 0`` when nothing
        cleared the detector (a confident "not found").
    scores:
        ``(k,)`` confidences aligned with ``boxes``, non-increasing.
    not_found:
        The explicit decision that the described object is absent.  A
        response may still carry low-confidence candidate boxes for
        diagnostics; ``not_found`` is the answer.
    threshold:
        The calibrated score cut-off the decision was taken against.
    version:
        Fingerprint of the serving weights that produced the response
        (0.0 when the grounder does not track one).  Soak harnesses use
        it to verify no response outlives a weight reload.
    """

    boxes: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    scores: np.ndarray = field(default_factory=lambda: np.empty((0,)))
    not_found: bool = False
    threshold: float = 0.0
    version: float = 0.0

    def __post_init__(self):
        self.boxes = np.asarray(self.boxes, dtype=np.float64).reshape(-1, 4)
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if len(self.boxes) != len(self.scores):
            raise ValueError(
                f"boxes ({len(self.boxes)}) and scores ({len(self.scores)}) "
                f"must align")
        self.not_found = bool(self.not_found)
        self.threshold = float(self.threshold)
        self.version = float(self.version)

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def top_box(self) -> np.ndarray:
        """Best box, or a zero box when the response carries none.

        For a ``top_k=1`` response this is the paper's one answer box.
        """
        if len(self.boxes):
            return self.boxes[0]
        return np.zeros(4)

    @property
    def top_score(self) -> float:
        return float(self.scores[0]) if len(self.scores) else 0.0

    def copy(self, readonly: bool = False) -> "GroundingResponse":
        """Deep copy; ``readonly=True`` freezes the array buffers."""
        boxes = np.array(self.boxes, copy=True)
        scores = np.array(self.scores, copy=True)
        if readonly:
            boxes.setflags(write=False)
            scores.setflags(write=False)
        clone = GroundingResponse.__new__(GroundingResponse)
        clone.boxes = boxes
        clone.scores = scores
        clone.not_found = self.not_found
        clone.threshold = self.threshold
        clone.version = self.version
        return clone

    def __repr__(self) -> str:
        return (f"GroundingResponse(k={len(self)}, "
                f"top_score={self.top_score:.3f}, "
                f"not_found={self.not_found}, "
                f"threshold={self.threshold:.3f}, "
                f"version={self.version})")


def freeze_response(response: GroundingResponse) -> GroundingResponse:
    """Deep read-only copy for cache insertion."""
    return response.copy(readonly=True)


def thaw_response(response: GroundingResponse) -> GroundingResponse:
    """Deep writable copy handed to a caller."""
    return response.copy(readonly=False)


def responses_equal(a: GroundingResponse, b: GroundingResponse) -> bool:
    """Byte-identical equality of two responses.

    Arrays compare by dtype + shape + raw bytes (so NaNs and signed
    zeros are compared exactly, not numerically), and the decision
    fields must match too.
    """
    return (
        _arrays_identical(a.boxes, b.boxes)
        and _arrays_identical(a.scores, b.scores)
        and a.not_found == b.not_found
        and a.threshold == b.threshold
        and a.version == b.version
    )


def _arrays_identical(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())
