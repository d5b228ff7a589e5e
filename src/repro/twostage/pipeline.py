"""The assembled two-stage grounder (Figure 1, top path).

Stage i proposes boxes for the image; stage ii scores every proposal
against the query with one or more matchers (listener / speaker); the
top-scoring proposal is the answer.  Implements the same batch-grounder
protocol as :class:`repro.core.Grounder` so a single evaluation and
timing path serves both paradigms.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import no_grad
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

    def __init__(self, proposer, matchers: Dict[str, object],
                 cache_proposals: bool = True):
        if not matchers:
            raise ValueError("at least one matcher is required")
        self.proposer = proposer
        self.matchers = dict(matchers)
        self.cache_proposals = cache_proposals
        self._proposal_cache: Dict[int, object] = {}
        self.last_proposal_seconds = 0.0
        self.last_matching_seconds = 0.0

    @property
    def name(self) -> str:
        return "+".join(self.matchers)

    def _proposals_for(self, sample: GroundingSample):
        key = id(sample.scene)
        if self.cache_proposals and key in self._proposal_cache:
            return self._proposal_cache[key]
        proposals = self.proposer.propose(sample.image)
        if self.cache_proposals:
            self._proposal_cache[key] = proposals
        return proposals

    def ground_sample(self, sample: GroundingSample) -> np.ndarray:
        """Ground one sample; records stage timings for Table 5."""
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
        return proposals.boxes[int(combined.argmax())]

    def ground_batch(self, samples: Sequence[GroundingSample]) -> np.ndarray:
        """Batch grounder protocol: samples -> boxes ``(n, 4)``."""
        return np.stack([self.ground_sample(sample) for sample in samples])

    __call__ = ground_batch

    def proposal_time(self, sample: GroundingSample) -> float:
        """Stage-i wall-clock for one sample (Table 5's parenthesis)."""
        start = time.perf_counter()
        self.proposer.propose(sample.image)
        return time.perf_counter() - start


def train_matchers(
    matchers: Dict[str, object],
    samples: Sequence[GroundingSample],
    proposer=None,
    *,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    logger=None,
    listener_kwargs: Optional[Dict] = None,
    speaker_kwargs: Optional[Dict] = None,
) -> Dict[str, List[float]]:
    """Fault-tolerantly train every matcher of a two-stage ensemble.

    Each matcher trains under its own checkpoint sub-directory, so a
    crash while training the speaker of a "speaker+listener" ensemble
    resumes the speaker mid-run instead of re-training the finished
    listener.  Returns per-matcher loss curves keyed like ``matchers``.
    """
    from repro.twostage.listener import ListenerMatcher, train_listener
    from repro.twostage.speaker import SpeakerScorer, train_speaker

    losses: Dict[str, List[float]] = {}
    for name, matcher in matchers.items():
        subdir = os.path.join(checkpoint_dir, name) if checkpoint_dir else None
        common = dict(checkpoint_dir=subdir, checkpoint_every=checkpoint_every,
                      resume=resume, logger=logger)
        if isinstance(matcher, ListenerMatcher):
            if proposer is None:
                raise ValueError("training a listener requires a proposer")
            losses[name] = train_listener(
                matcher, samples, proposer, **common, **(listener_kwargs or {})
            )
        elif isinstance(matcher, SpeakerScorer):
            losses[name] = train_speaker(
                matcher, samples, **common, **(speaker_kwargs or {})
            )
        else:
            raise TypeError(f"matcher {name!r} has unknown type {type(matcher)!r}")
    return losses
