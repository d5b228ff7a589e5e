"""Word2Pix-style word-to-pixel cross-attention fusion.

Alternative to the Rel2Att stack (selected with ``config.fusion ==
"word2pix"``): instead of a dense joint relation map over the
concatenated image+query sequence, each block runs one-directional
cross-attention with the query *words* as attention queries and the
image regions as keys — every word independently scores every pixel
(word-to-pixel attention, after Word2Pix), the per-word score rows are
softmax-normalised over words to gather a language context vector per
region, and the region sequence is re-weighted by the word-averaged
scores.

The stack keeps the Rel2Att contract exactly: ``forward(image_seq,
query_seq, token_mask)`` returns ``(v, attention_masks)`` where each
mask is the raw per-region score ``(B, m)`` consumed by the attention
loss, so the rest of the model (detector head, loss, tracer) is
agnostic to which fusion is installed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, get_default_dtype, softmax
from repro.core.config import YolloConfig
from repro.nn import FeedForward, Linear, Module, Parameter, Sequential
from repro.obs import trace_span


def _word_mask_arrays(
    batch: int,
    num_tokens: int,
    token_mask: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PAD-handling arrays for one Word2Pix block.

    Returns ``(mask3, bias, norm)``: a ``(B, n, 1)`` 0/1 valid-word
    mask, a ``(B, n, 1)`` additive bias that sends PAD rows to -1e4 so
    their softmax weight underflows to zero, and a ``(B, 1)`` divisor
    holding each sample's valid-word count (floored at one).  Kept as a
    single plain numpy function so the graph tracer captures the
    mask-dependent arrays as one external node.
    """
    if token_mask is None:
        valid = np.ones((batch, num_tokens), dtype=get_default_dtype())
    else:
        valid = np.asarray(token_mask, dtype=get_default_dtype())
    mask3 = valid[:, :, None]
    bias = (mask3 - 1.0) * 1e4
    norm = np.maximum(valid.sum(axis=1, keepdims=True), 1.0)
    return mask3, bias, norm


class Word2PixModule(Module):
    """One word-to-pixel cross-attention block."""

    def __init__(self, config: YolloConfig):
        super().__init__()
        self.config = config
        d = config.d_model
        self.query_proj = Linear(d, d)
        self.key_proj = Linear(d, d)
        self.value_proj = Linear(d, d)
        self.out_ffn = FeedForward(d, config.ffn_hidden, d)
        # Same role as Rel2Att's gain: word-averaged scores are small,
        # and the mask softmax of Eq. (6) needs O(1) logits to sharpen.
        self.att_gain = Parameter(np.array(config.att_gain_init))

    def forward(
        self,
        image_seq: Tensor,
        query_seq: Tensor,
        token_mask: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Return ``(V_attended, att_v)`` for one block.

        ``att_v`` is the raw ``(B, m)`` per-region score (valid-word
        average of the word-to-pixel score matrix), used both for the
        attention loss and to gate the attended output.
        """
        batch, n = query_seq.shape[0], query_seq.shape[1]
        mask3, bias, norm = _word_mask_arrays(batch, n, token_mask)

        q = self.query_proj(query_seq)  # (B, n, d) — words attend...
        k = self.key_proj(image_seq)    # (B, m, d) — ...over regions
        v_words = self.value_proj(query_seq)
        scores = q.matmul(k.swapaxes(1, 2)) / np.sqrt(self.config.d_model)

        # Raw per-region mask: mean score over the valid words.
        att_v = (scores * Tensor(mask3)).sum(axis=1) / Tensor(norm)
        att_v = att_v * self.att_gain

        # Language context per region: softmax over words (PAD rows
        # biased out), transposed to (B, m, n), gathering word values.
        attn = softmax(scores + Tensor(bias), axis=1)
        context = attn.swapaxes(1, 2).matmul(v_words)  # (B, m, d)

        attended_v = self.out_ffn(context) * att_v.tanh().expand_dims(-1)
        return attended_v, att_v


class Word2PixStack(Module):
    """Stack of Word2Pix blocks with residual visual propagation.

    Mirrors :class:`repro.core.rel2att.Rel2AttStack`: each block's
    attended output is added back onto the region sequence; the query
    sequence stays fixed (words are pure conditioning, the Word2Pix
    one-way design).  Returns the final region sequence and the
    per-block raw attention masks.
    """

    def __init__(self, config: YolloConfig):
        super().__init__()
        self.config = config
        self.blocks = Sequential(*[Word2PixModule(config)
                                   for _ in range(config.num_rel2att)])
        self._span_names = [f"word2pix.block{i}"
                            for i in range(config.num_rel2att)]

    def forward(
        self,
        image_seq: Tensor,
        query_seq: Tensor,
        token_mask: Optional[np.ndarray] = None,
        clause_masks: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Tensor]]:
        # ``clause_masks`` is accepted for interface parity with
        # Rel2AttStack but ignored: Word2Pix attention is already
        # per-word, so clause grouping adds nothing to its averages.
        attention_masks: List[Tensor] = []
        v = image_seq
        for block, span_name in zip(self.blocks, self._span_names):
            with trace_span(span_name):
                attended_v, att_v = block(v, query_seq, token_mask)
                v = v + attended_v
            attention_masks.append(att_v)
        return v, attention_masks


def build_fusion_stack(config: YolloConfig) -> Module:
    """Fusion stack selected by ``config.fusion``."""
    if config.fusion == "rel2att":
        from repro.core.rel2att import Rel2AttStack

        return Rel2AttStack(config)
    if config.fusion == "word2pix":
        return Word2PixStack(config)
    raise ValueError(
        f"unknown fusion {config.fusion!r}; valid fusions: "
        f"rel2att, word2pix")
