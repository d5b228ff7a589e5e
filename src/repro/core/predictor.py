"""High-level inference wrapper: ground free-form queries in images."""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence

import numpy as np

from repro.core.response import GroundingResponse
from repro.core.yollo import GroundingPrediction, YolloModel
from repro.data.loader import encode_batch
from repro.data.refcoco import GroundingSample
from repro.text.vocab import Vocabulary


class Grounder:
    """Bundle a trained YOLLO model with its vocabulary.

    Calling a grounder is the one batch protocol every consumer speaks:
    ``grounder(samples)`` returns one best-first
    :class:`~repro.core.GroundingResponse` per sample.  Evaluation and
    timing (:func:`repro.eval.evaluate_grounder`,
    :func:`repro.eval.time_grounder`) score each response's ``top_box``;
    :class:`~repro.serve.ServeEngine` serves the responses as they are.
    A plain ``Grounder(model, vocab)`` answers top-1 with threshold 0.0,
    the paper's single box; :meth:`ranked` gives longer lists.
    :meth:`ground` keeps the single-query attention-map path
    (:class:`~repro.core.GroundingPrediction`) for Figure 5 and the CLI.

    ``clause_conditioning=True`` parses each query with
    :func:`repro.lang.parse` and feeds the compiled per-clause token
    masks to the model's clause-conditioned Rel2Att path; every batch
    then carries a ``(B, C, L)`` mask array, so a compiled model runs
    clause and flat queries through the same plan.  Queries that compile
    to the flat fallback (trivial or single-clause trees) get all-zero
    rows and keep their flat attention, so turning the flag on never
    changes simple queries' answers.
    """

    #: Boxes per response and the score below which a response declares
    #: ``not_found``; :meth:`ranked` is the one way to change them.  The
    #: defaults answer the paper's single box.
    top_k = 1
    not_found_threshold = 0.0

    def __init__(self, model: YolloModel, vocab: Vocabulary,
                 clause_conditioning: bool = False):
        self.model = model
        self.vocab = vocab
        self.clause_conditioning = bool(clause_conditioning)

    def _clause_masks(
        self, queries: Sequence[str]
    ) -> Optional[np.ndarray]:
        """Compile ``queries`` to a ``(B, C, L)`` batch of clause masks,
        or ``None`` (the flat forward) when conditioning is off."""
        if not self.clause_conditioning:
            return None
        from repro.lang import clause_token_masks, pad_clause_masks, parse

        rows = [clause_token_masks(parse(query), self.max_query_length)
                for query in queries]
        return pad_clause_masks(rows, self.max_query_length)

    @property
    def name(self) -> str:
        return "yollo"

    @property
    def max_query_length(self) -> int:
        return self.model.config.max_query_length

    def compile(self, max_plans: int = 32) -> "Grounder":
        """Enable compiled inference on the wrapped model (see
        :meth:`repro.core.yollo.YolloModel.compile`)."""
        self.model.eval()
        self.model.compile(max_plans=max_plans)
        return self

    def uncompile(self) -> "Grounder":
        self.model.uncompile()
        return self

    @property
    def plan_cache(self):
        """The model's active plan cache, or ``None`` when eager."""
        return self.model.plan_cache

    def ground(self, image: np.ndarray, query: str) -> GroundingPrediction:
        """Locate the object a natural-language ``query`` refers to.

        ``image`` is a ``(3, H, W)`` float array matching the model's
        configured input size.
        """
        ids, mask = self.vocab.encode(query, self.max_query_length)
        return self.model.predict(
            image[None], ids[None], mask[None],
            clause_masks=self._clause_masks([query]),
        )[0]

    def __call__(
        self, samples: Sequence[GroundingSample]
    ) -> List[GroundingResponse]:
        """Grounder protocol: samples -> one best-first response each."""
        batch = encode_batch(samples, self.vocab, self.max_query_length)
        return self.model.predict_ranked(
            batch["images"], batch["token_ids"], batch["token_mask"],
            top_k=self.top_k, not_found_threshold=self.not_found_threshold,
            clause_masks=self._clause_masks([s.query for s in samples]),
        )

    def ranked(self, top_k: int = 5,
               not_found_threshold: float = 0.0) -> "Grounder":
        """A grounder over the same model, vocabulary and clause setting
        that answers up to ``top_k`` boxes, declaring ``not_found`` when
        the best score falls below ``not_found_threshold``.  The model,
        and so its compiled plan cache, is shared rather than copied."""
        grounder = copy.copy(self)
        grounder.top_k = int(top_k)
        grounder.not_found_threshold = float(not_found_threshold)
        return grounder
