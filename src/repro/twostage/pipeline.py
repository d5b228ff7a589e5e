"""The assembled two-stage grounder (Figure 1, top path).

Stage i proposes boxes for the image; stage ii scores every proposal
against the query with one or more matchers (listener / speaker); the
top-scoring proposal is the answer.  Speaks the one grounder protocol
(``samples -> [GroundingResponse]``) of :class:`repro.core.Grounder`, so
one evaluation, timing and serving path covers both paradigms.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.core.response import GroundingResponse
from repro.data.refcoco import GroundingSample
from repro.obs import trace_span


class TwoStageGrounder:
    """Compose a proposal generator with matching model(s).

    Parameters
    ----------
    proposer:
        Object with ``propose(image) -> ProposalSet``.
    matchers:
        Mapping of name -> matcher; each matcher is called per proposal
        set and returns scores.  Multiple matchers form an ensemble
        (scores are z-normalised and summed), reproducing the
        "speaker+listener" rows of the paper's tables.
    """

    def __init__(self, proposer, matchers: Dict[str, object]):
        if not matchers:
            raise ValueError("at least one matcher is required")
        self.proposer = proposer
        self.matchers = dict(matchers)
        self.last_proposal_seconds = 0.0
        self.last_matching_seconds = 0.0

    @property
    def name(self) -> str:
        return "+".join(self.matchers)

    def ground_sample(self, sample: GroundingSample) -> GroundingResponse:
        """Ground one sample: the argmax proposal with its ensemble score.

        Records stage timings for Table 5.
        """
        start = time.perf_counter()
        with trace_span("twostage.propose"):
            proposals = self.proposer.propose(sample.image)
        self.last_proposal_seconds = time.perf_counter() - start

        start = time.perf_counter()
        with trace_span("twostage.match"), no_grad():
            combined = np.zeros(len(proposals))
            for matcher in self.matchers.values():
                token_ids, token_mask = matcher.vocab.encode(
                    sample.tokens, matcher.max_query_length
                )
                scores = matcher(sample.image, proposals, token_ids, token_mask)
                spread = scores.std() + 1e-8
                combined = combined + (scores - scores.mean()) / spread
        self.last_matching_seconds = time.perf_counter() - start
        best = int(combined.argmax())
        return GroundingResponse(boxes=proposals.boxes[best:best + 1],
                                 scores=combined[best:best + 1])

    def __call__(
        self, samples: Sequence[GroundingSample]
    ) -> List[GroundingResponse]:
        """Grounder protocol: samples -> one top-1 response each."""
        return [self.ground_sample(sample) for sample in samples]

    def proposal_time(self, sample: GroundingSample) -> float:
        """Stage-i wall-clock for one sample (Table 5's parenthesis)."""
        start = time.perf_counter()
        self.proposer.propose(sample.image)
        return time.perf_counter() - start
