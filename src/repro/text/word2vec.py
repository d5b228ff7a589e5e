"""Skip-gram Word2Vec with negative sampling (Mikolov et al., 2013).

Stands in for the paper's LM-1B-pretrained 512-D embeddings: we
pre-train on the in-domain referring-expression corpus produced by
:func:`repro.text.corpus.build_corpus` and load the resulting vectors
into YOLLO's query embedding layer before joint fine-tuning.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.text.vocab import Vocabulary
from repro.utils.seeding import spawn_rng

#: Context half-window, negatives per positive pair and learning rate.
WINDOW = 2
NEGATIVES = 5
LR = 0.05


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


class SkipGramWord2Vec:
    """Skip-gram embedding trainer over a tokenised corpus.

    Parameters
    ----------
    vocab:
        Vocabulary covering the corpus; PAD keeps a zero vector.
    dim:
        Embedding dimensionality.
    """

    def __init__(self, vocab: Vocabulary, dim: int = 32,
                 rng: np.random.Generator = None):
        self.vocab = vocab
        self.dim = dim
        self._rng = rng or spawn_rng("word2vec")
        scale = 0.5 / dim
        self.input_vectors = self._rng.uniform(-scale, scale, size=(len(vocab), dim))
        self.output_vectors = np.zeros((len(vocab), dim))
        self.input_vectors[vocab.pad_id] = 0.0

    def _unigram_table(self, sentences: Sequence[Sequence[str]]) -> np.ndarray:
        """Negative-sampling distribution: unigram counts to the 3/4 power."""
        counts = np.ones(len(self.vocab))
        for sentence in sentences:
            for token in sentence:
                counts[self.vocab.token_to_id(token)] += 1
        counts[self.vocab.pad_id] = 0.0
        weights = counts**0.75
        return weights / weights.sum()

    def train(self, sentences: Sequence[Sequence[str]], epochs: int = 3) -> float:
        """Run SGD over all (center, context) pairs; returns final mean loss."""
        distribution = self._unigram_table(sentences)
        encoded = [
            np.asarray([self.vocab.token_to_id(t) for t in sentence], dtype=np.int64)
            for sentence in sentences
            if len(sentence) >= 2
        ]
        final_loss = 0.0
        for _ in range(epochs):
            order = self._rng.permutation(len(encoded))
            losses: List[float] = []
            for sent_idx in order:
                ids = encoded[sent_idx]
                for center_pos, center in enumerate(ids):
                    lo = max(0, center_pos - WINDOW)
                    hi = min(len(ids), center_pos + WINDOW + 1)
                    for ctx_pos in range(lo, hi):
                        if ctx_pos == center_pos:
                            continue
                        losses.append(self._update(center, ids[ctx_pos], distribution))
            final_loss = float(np.mean(losses)) if losses else 0.0
        return final_loss

    def _update(self, center: int, context: int, distribution: np.ndarray) -> float:
        """One negative-sampling SGD step; returns the pair loss."""
        negatives = self._rng.choice(len(self.vocab), size=NEGATIVES, p=distribution)
        targets = np.concatenate([[context], negatives])
        labels = np.zeros(len(targets))
        labels[0] = 1.0

        center_vec = self.input_vectors[center]
        target_vecs = self.output_vectors[targets]
        scores = _sigmoid(target_vecs @ center_vec)
        errors = scores - labels

        grad_center = errors @ target_vecs
        self.output_vectors[targets] -= LR * errors[:, None] * center_vec[None, :]
        self.input_vectors[center] -= LR * grad_center

        positive_loss = -np.log(max(scores[0], 1e-12))
        negative_loss = -np.log(np.maximum(1.0 - scores[1:], 1e-12)).sum()
        return float(positive_loss + negative_loss)

    def embedding_matrix(self) -> np.ndarray:
        """Return a copy of the trained input vectors (PAD row zeroed)."""
        matrix = self.input_vectors.copy()
        matrix[self.vocab.pad_id] = 0.0
        return matrix

    def most_similar(self, token: str, top_k: int = 5) -> List[str]:
        """Nearest neighbours by cosine similarity (diagnostics/tests)."""
        query = self.input_vectors[self.vocab.token_to_id(token)]
        norms = np.linalg.norm(self.input_vectors, axis=1) * (np.linalg.norm(query) + 1e-12)
        scores = self.input_vectors @ query / np.maximum(norms, 1e-12)
        scores[self.vocab.token_to_id(token)] = -np.inf
        scores[self.vocab.pad_id] = -np.inf
        best = np.argsort(-scores)[:top_k]
        return [self.vocab.id_to_token(int(i)) for i in best]
