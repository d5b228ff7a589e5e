"""Speaker baseline: caption-likelihood scoring (Mao et al. / Yu et al.).

The speaker is an LSTM language model conditioned on a region embedding;
a proposal's score is the log-likelihood of generating the query as that
region's caption.  At inference the LSTM must be unrolled once *per
proposal*, which is why the speaker is the slowest row of Table 5.
The MMI variant adds a max-margin term contrasting the target region's
likelihood against distractor regions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import Tensor, concatenate, no_grad
from repro.data.refcoco import GroundingSample
from repro.nn import Embedding, Linear, LSTM, Module, softmax_cross_entropy
from repro.optim import Adam
from repro.runtime import CallbackTask, TrainingSupervisor
from repro.text.vocab import Vocabulary
from repro.twostage.proposals import ProposalSet
from repro.twostage.regions import RegionEncoder
from repro.utils.logging import ProgressLogger
from repro.utils.seeding import spawn_rng

#: Widths of the word embeddings, region embedding and LSTM state.
WORD_DIM = 24
EMBED_DIM = 32
HIDDEN_DIM = 48
#: :func:`train_speaker`'s Adam learning rate.
LR = 2e-3
#: Margin of the MMI term (0 trains plain captioning).
MMI_MARGIN = 0.1


class SpeakerScorer(Module):
    """Region-conditioned LSTM language model over queries.

    The region embedding is concatenated to every word input (a common
    show-and-tell conditioning variant that avoids state surgery).
    """

    def __init__(self, vocab: Vocabulary, max_query_length: int = 20):
        super().__init__()
        self.vocab = vocab
        self.max_query_length = max_query_length
        self.word_embedding = Embedding(len(vocab), WORD_DIM, padding_idx=vocab.pad_id)
        self.lstm = LSTM(WORD_DIM + EMBED_DIM, HIDDEN_DIM)
        self.output = Linear(HIDDEN_DIM, len(vocab))
        self.region_encoder = RegionEncoder(EMBED_DIM)

    def sequence_logits(self, region_embed: Tensor, token_ids: np.ndarray,
                        token_mask: np.ndarray) -> Tensor:
        """Teacher-forced next-token logits ``(P, L, V)``.

        ``region_embed`` is ``(P, d)``; the query is broadcast to all P
        regions.  Step ``t`` predicts token ``t`` from tokens ``< t``
        (BOS is the zero word embedding).
        """
        num_regions = region_embed.shape[0]
        length = token_ids.shape[-1]
        ids = np.broadcast_to(token_ids.reshape(1, -1), (num_regions, length))
        # Shift right: input at step t is token t-1 (PAD acts as BOS).
        shifted = np.zeros_like(ids)
        shifted[:, 1:] = ids[:, :-1]
        embedded = self.word_embedding(shifted)  # (P, L, w)
        region_seq = region_embed.expand_dims(1) * Tensor(np.ones((1, length, 1)))
        inputs = concatenate([embedded, region_seq], axis=2)
        mask = np.broadcast_to(token_mask.reshape(1, -1), (num_regions, length))
        outputs, _ = self.lstm(inputs, mask=mask)
        return self.output(outputs)

    def log_likelihoods(self, image: np.ndarray, boxes: np.ndarray,
                        token_ids: np.ndarray, token_mask: np.ndarray) -> Tensor:
        """Per-proposal mean log P(query | region): ``(P,)``."""
        from repro.autograd import log_softmax

        region_embed = self.region_encoder(image, boxes)
        logits = self.sequence_logits(region_embed, token_ids, token_mask)
        log_probs = log_softmax(logits, axis=-1)
        num_regions = logits.shape[0]
        length = token_ids.shape[-1]
        ids = np.broadcast_to(token_ids.reshape(1, -1), (num_regions, length))
        rows = np.arange(num_regions)[:, None]
        cols = np.arange(length)[None, :]
        picked = log_probs[rows, cols, ids]  # (P, L)
        mask = Tensor(np.broadcast_to(token_mask.reshape(1, -1), (num_regions, length)).copy())
        token_count = max(float(token_mask.sum()), 1.0)
        return (picked * mask).sum(axis=1) / token_count

    def forward(self, image: np.ndarray, proposals: ProposalSet,
                token_ids: np.ndarray, token_mask: np.ndarray) -> np.ndarray:
        """Inference scores for a proposal set (higher = better match)."""
        with self.evaluating(), no_grad():
            scores = self.log_likelihoods(
                image, proposals.boxes, token_ids, token_mask
            )
        return scores.data.copy()


def train_speaker(
    speaker: SpeakerScorer,
    samples: Sequence[GroundingSample],
    steps: int = 400,
    rng: Optional[np.random.Generator] = None,
    logger: Optional[ProgressLogger] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> List[float]:
    """Train the speaker to caption ground-truth regions.

    With the MMI objective (:data:`MMI_MARGIN` > 0), the target region's
    query likelihood must also beat a random distractor region's by the
    margin (Mao et al., 2016).

    The loop runs under a :class:`repro.runtime.TrainingSupervisor`,
    which skips anomalous steps; ``checkpoint_dir`` adds checkpoints
    every ``checkpoint_every`` steps and ``resume=True`` (which needs
    ``checkpoint_dir``) continues a killed run.
    """
    rng = rng if rng is not None else spawn_rng("speaker-train")
    logger = logger or ProgressLogger("speaker", enabled=False)
    optimizer = Adam(speaker.parameters(), lr=LR)
    losses: List[float] = []

    def forward_backward(step: int) -> float:
        sample = samples[int(rng.integers(0, len(samples)))]
        token_ids, token_mask = speaker.vocab.encode(
            sample.tokens, speaker.max_query_length
        )
        region_embed = speaker.region_encoder(sample.image, sample.target_box[None])
        logits = speaker.sequence_logits(region_embed, token_ids, token_mask)
        loss = softmax_cross_entropy(
            logits.reshape(-1, logits.shape[-1]),
            np.broadcast_to(token_ids, (1, len(token_ids))).reshape(-1),
            weights=token_mask.reshape(-1),
        )

        if MMI_MARGIN > 0 and len(sample.scene.objects) > 1:
            distractors = [
                o.box for i, o in enumerate(sample.scene.objects)
                if i != sample.target_index
            ]
            distractor = distractors[int(rng.integers(0, len(distractors)))]
            pair = np.stack([sample.target_box, distractor])
            likelihoods = speaker.log_likelihoods(
                sample.image, pair, token_ids, token_mask
            )
            margin_term = (likelihoods[1] - likelihoods[0] + MMI_MARGIN).maximum(0.0)
            loss = loss + margin_term

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
        modules={"speaker": speaker},
        rng=rng,
        fingerprint_data={"task": "speaker-train", "steps": steps, "lr": LR,
                          "mmi_margin": MMI_MARGIN},
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
