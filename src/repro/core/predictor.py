"""High-level inference wrapper: ground free-form queries in images."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.response import GroundingResponse
from repro.core.yollo import GroundingPrediction, YolloModel
from repro.data.loader import encode_batch
from repro.data.refcoco import GroundingSample
from repro.text.vocab import Vocabulary


class Grounder:
    """Bundle a trained YOLLO model with its vocabulary.

    Exposes the single-query API used by the examples and implements the
    batch grounder protocol consumed by :func:`repro.eval.evaluate_grounder`
    (``samples -> (n, 4)`` boxes).  Serving takes the ranked protocol
    instead: ``ServeEngine(grounder.ranked(top_k=1))``.

    ``clause_conditioning=True`` parses each query with
    :func:`repro.lang.parse` and feeds the compiled per-clause token
    masks to the model's clause-conditioned Rel2Att path; every batch
    then carries a ``(B, C, L)`` mask array, so a compiled model runs
    clause and flat queries through the same plan.  Queries that compile
    to the flat fallback (trivial or single-clause trees) get all-zero
    rows and keep their flat attention, so turning the flag on never
    changes simple queries' answers.
    """

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

    def ground_batch(self, samples: Sequence[GroundingSample]) -> np.ndarray:
        """Grounder protocol: samples -> predicted boxes ``(n, 4)``."""
        batch = encode_batch(samples, self.vocab, self.max_query_length)
        predictions: List[GroundingPrediction] = self.model.predict(
            batch["images"], batch["token_ids"], batch["token_mask"],
            clause_masks=self._clause_masks([s.query for s in samples]),
        )
        return np.stack([p.box for p in predictions])

    __call__ = ground_batch

    # ------------------------------------------------------------------
    # Ranked (structured-response) protocol
    # ------------------------------------------------------------------
    def ground_ranked(self, image: np.ndarray, query: str, top_k: int = 5,
                      not_found_threshold: float = 0.0) -> GroundingResponse:
        """Ranked answer for one query: boxes + scores + ``not_found``."""
        ids, mask = self.vocab.encode(query, self.max_query_length)
        return self.model.predict_ranked(
            image[None], ids[None], mask[None],
            top_k=top_k, not_found_threshold=not_found_threshold,
            clause_masks=self._clause_masks([query]),
        )[0]

    def ground_batch_ranked(
        self, samples: Sequence[GroundingSample], top_k: int = 5,
        not_found_threshold: float = 0.0,
    ) -> List[GroundingResponse]:
        """Batched ranked protocol: samples -> response list."""
        batch = encode_batch(samples, self.vocab, self.max_query_length)
        return self.model.predict_ranked(
            batch["images"], batch["token_ids"], batch["token_mask"],
            top_k=top_k, not_found_threshold=not_found_threshold,
            clause_masks=self._clause_masks([s.query for s in samples]),
        )

    def ranked(self, top_k: int = 5,
               not_found_threshold: float = 0.0) -> "RankedGrounder":
        """Adapter that makes the ranked protocol this grounder's
        ``__call__`` — the protocol ``ServeEngine``/``FleetRouter``
        serve.  ``top_k=1`` serves the paper's single answer box."""
        return RankedGrounder(self, top_k=top_k,
                              not_found_threshold=not_found_threshold)


class RankedGrounder:
    """Batch-protocol adapter returning :class:`GroundingResponse` lists.

    Wraps a :class:`Grounder` so that ``__call__`` yields ranked
    responses — the one shape the serving stack caches and ships.
    Weight-reload plumbing (``.model``) and compiled-inference telemetry
    (``.plan_cache``) pass through to the wrapped grounder, so a
    ``RankedGrounder`` drops into a serving replica unchanged.
    """

    def __init__(self, grounder: Grounder, top_k: int = 5,
                 not_found_threshold: float = 0.0):
        self.grounder = grounder
        self.top_k = int(top_k)
        self.not_found_threshold = float(not_found_threshold)

    @property
    def name(self) -> str:
        return f"{self.grounder.name}-ranked"

    @property
    def model(self) -> YolloModel:
        return self.grounder.model

    @property
    def vocab(self) -> Vocabulary:
        return self.grounder.vocab

    @property
    def plan_cache(self):
        return self.grounder.plan_cache

    def __call__(
        self, samples: Sequence[GroundingSample]
    ) -> List[GroundingResponse]:
        return self.grounder.ground_batch_ranked(
            samples, top_k=self.top_k,
            not_found_threshold=self.not_found_threshold,
        )
