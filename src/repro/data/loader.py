"""Batching utilities: encode samples into padded numpy minibatches."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.autograd import get_default_dtype
from repro.data.refcoco import GroundingSample
from repro.text.vocab import Vocabulary
from repro.utils.seeding import spawn_rng


def encode_batch(
    samples: Sequence[GroundingSample],
    vocab: Vocabulary,
    max_query_length: int,
) -> Dict[str, np.ndarray]:
    """Stack a list of samples into model-ready arrays.

    Returns a dict with ``images (B,3,H,W)``, ``token_ids (B,L)``,
    ``token_mask (B,L)`` and ``target_boxes (B,4)``.
    """
    images = np.stack([s.image for s in samples])
    ids = np.empty((len(samples), max_query_length), dtype=np.int64)
    mask = np.empty((len(samples), max_query_length), dtype=get_default_dtype())
    for row, sample in enumerate(samples):
        ids[row], mask[row] = vocab.encode(sample.tokens, max_query_length)
    boxes = np.stack([s.target_box for s in samples])
    return {
        "images": images,
        "token_ids": ids,
        "token_mask": mask,
        "target_boxes": boxes,
    }


class BatchIterator:
    """Iterate minibatches over a sample list, optionally shuffled.

    The iterator is re-usable: each ``__iter__`` call produces a fresh
    epoch (with a new permutation when ``shuffle`` is on).
    """

    def __init__(
        self,
        samples: Sequence[GroundingSample],
        vocab: Vocabulary,
        max_query_length: int,
        batch_size: int = 16,
        shuffle: bool = True,
        drop_last: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.samples = list(samples)
        self.vocab = vocab
        self.max_query_length = max_query_length
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = rng if rng is not None else spawn_rng("batch-iterator")

    def __len__(self) -> int:
        full, remainder = divmod(len(self.samples), self.batch_size)
        return full if (self.drop_last or remainder == 0) else full + 1

    def __iter__(self) -> Iterator[Dict[str, np.ndarray]]:
        order = np.arange(len(self.samples))
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, len(order), self.batch_size):
            chunk = order[start : start + self.batch_size]
            if self.drop_last and len(chunk) < self.batch_size:
                break
            batch_samples: List[GroundingSample] = [self.samples[i] for i in chunk]
            yield encode_batch(batch_samples, self.vocab, self.max_query_length)
