"""Listener baseline: joint-embedding matching (Yu et al., 2017).

The listener embeds the query with an LSTM and each proposal with a
:class:`RegionEncoder`, and scores proposals by dot product with the
query embedding.  Training uses a margin ranking loss that pushes the
best-IoU proposal above the distractor proposals of the same image.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.data.refcoco import GroundingSample
from repro.detection import iou_matrix
from repro.nn import Embedding, Linear, LSTM, Module, margin_ranking_loss
from repro.optim import Adam
from repro.runtime import CallbackTask, TrainingSupervisor
from repro.text.vocab import Vocabulary
from repro.twostage.proposals import ProposalSet
from repro.twostage.regions import RegionEncoder
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import spawn_rng

#: Width of the query word embeddings and of the joint embedding space.
WORD_DIM = 24
EMBED_DIM = 32
#: :func:`train_listener`'s Adam learning rate, ranking margin, and
#: distractor proposals sampled per step.
LR = 2e-3
MARGIN = 0.2
NEGATIVES_PER_STEP = 8


class ListenerMatcher(Module):
    """Score (query, proposal) pairs by joint-embedding similarity."""

    def __init__(self, vocab: Vocabulary, max_query_length: int = 20):
        super().__init__()
        self.vocab = vocab
        self.max_query_length = max_query_length
        self.word_embedding = Embedding(len(vocab), WORD_DIM, padding_idx=vocab.pad_id)
        self.query_lstm = LSTM(WORD_DIM, EMBED_DIM)
        self.query_proj = Linear(EMBED_DIM, EMBED_DIM)
        self.region_encoder = RegionEncoder(EMBED_DIM)

    def encode_query(self, token_ids: np.ndarray, token_mask: np.ndarray) -> Tensor:
        """Token ids ``(B, L)`` -> query embeddings ``(B, d)``."""
        embedded = self.word_embedding(token_ids)
        _, (hidden, _) = self.query_lstm(embedded, mask=token_mask)
        return self.query_proj(hidden.tanh())

    def score_proposals(self, image: np.ndarray, boxes: np.ndarray,
                        token_ids: np.ndarray, token_mask: np.ndarray) -> Tensor:
        """Scores ``(P,)`` for one image's proposals against one query."""
        region_embed = self.region_encoder(image, boxes)  # (P, d)
        query_embed = self.encode_query(token_ids[None], token_mask[None])  # (1, d)
        return region_embed.matmul(query_embed.reshape(-1))

    def forward(self, image: np.ndarray, proposals: ProposalSet,
                token_ids: np.ndarray, token_mask: np.ndarray) -> np.ndarray:
        """Inference scores (plain array) for a proposal set."""
        with self.evaluating(), no_grad():
            scores = self.score_proposals(image, proposals.boxes, token_ids, token_mask)
        return scores.data.copy()


def train_listener(
    listener: ListenerMatcher,
    samples: Sequence[GroundingSample],
    proposer,
    steps: int = 400,
    rng: Optional[np.random.Generator] = None,
    logger: Optional[ProgressLogger] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> List[float]:
    """Train the listener over stage-i proposals with a ranking loss.

    For each sample the proposal with the best IoU against the target is
    the positive; up to :data:`NEGATIVES_PER_STEP` distractor proposals are
    sampled as negatives (scoring all ~100 proposals per step would be
    needlessly slow — inference still scores all of them).  Samples
    whose proposals all miss the target (IoU < 0.3) are skipped — the
    standard two-stage training-time consequence of stage-i misses.

    The loop runs under a :class:`repro.runtime.TrainingSupervisor`,
    which skips anomalous steps; ``checkpoint_dir`` adds checkpoints
    every ``checkpoint_every`` steps and ``resume=True`` (which needs
    ``checkpoint_dir``) continues a killed run.
    """
    rng = rng if rng is not None else spawn_rng("listener-train")
    logger = logger or ProgressLogger("listener", enabled=False)
    optimizer = Adam(listener.parameters(), lr=LR)
    proposal_cache = {}
    losses: List[float] = []

    def forward_backward(step: int) -> Optional[float]:
        sample = samples[int(rng.integers(0, len(samples)))]
        key = id(sample.scene)
        if key not in proposal_cache:
            proposal_cache[key] = proposer.propose(sample.image)
        proposals = proposal_cache[key]
        ious = iou_matrix(proposals.boxes, sample.target_box[None])[:, 0]
        positive = int(ious.argmax())
        if ious[positive] < 0.3 or len(proposals) < 2:
            return None

        negatives = np.flatnonzero(ious < 0.3)
        if not len(negatives):
            return None
        if len(negatives) > NEGATIVES_PER_STEP:
            negatives = rng.choice(negatives, size=NEGATIVES_PER_STEP, replace=False)
        picked = np.concatenate([[positive], negatives])

        token_ids, token_mask = listener.vocab.encode(
            sample.tokens, listener.max_query_length
        )
        scores = listener.score_proposals(
            sample.image, proposals.boxes[picked], token_ids, token_mask
        )
        loss = margin_ranking_loss(scores[0], scores[1:], margin=MARGIN)
        optimizer.zero_grad()
        loss.backward()
        return float(loss.data)

    def apply_update(step: int, loss_value: float) -> None:
        optimizer.step()
        losses.append(loss_value)
        logger.periodic(f"step {step}/{steps} loss={loss_value:.3f}")

    task = CallbackTask(
        total_iterations=steps,
        forward_backward=forward_backward,
        apply_update=apply_update,
        optimizer=optimizer,
        modules={"listener": listener},
        rng=rng,
        fingerprint_data={"task": "listener-train", "steps": steps, "lr": LR,
                          "margin": MARGIN, "negatives": NEGATIVES_PER_STEP},
        extra_state=lambda: {"losses": list(losses)},
        load_extra_state=lambda saved: losses.__setitem__(
            slice(None), saved["losses"]
        ),
        result=lambda: losses,
    )
    TrainingSupervisor(
        task,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every or max(1, steps // 4),
        resume=resume,
        logger=logger,
    ).run()
    return losses
