"""Batching utilities: encode samples into padded numpy minibatches."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.autograd import get_default_dtype
from repro.data.refcoco import GroundingSample
from repro.text.vocab import Vocabulary


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
