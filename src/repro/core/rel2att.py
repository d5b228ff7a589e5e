"""Relation-to-Attention (Rel2Att) modules — the paper's key component.

Each module (Section 3.2, Figure 2b) projects the image sequence ``V``
and query sequence ``T`` through four two-layer FFNs, concatenates the
projections into fused matrices ``X1``/``X2``, forms the dense relation
map ``R = X1 X2^T / sqrt(d_rel)`` whose four blocks are the image/query
self-attentions (R_vv, R_tt) and co-attentions (R_vt, R_tv), averages
``R`` over each axis into two k-vectors, sums them into a joint
attention vector, and re-weights both input sequences element-wise.

Padding-aware masking excludes PAD query positions from the relation
averages.  The ablation switches of Table 4 wipe the self- or
co-attention blocks of ``R`` before the averages are taken.  A learnable
gate, initialised at 0, scales the self-attention blocks, so a fresh
module attends through the co-attention blocks alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor, concatenate, get_default_dtype
from repro.core.config import YolloConfig
from repro.nn import FeedForward, Module, Parameter, Sequential
from repro.obs import trace_span


def _relation_weight_mask(
    batch: int,
    num_regions: int,
    num_tokens: int,
    token_mask: Optional[np.ndarray],
    use_self_attention: bool,
    use_co_attention: bool,
) -> np.ndarray:
    """Build the ``(B, k, k)`` 0/1 weights applied to the relation map.

    Combines the Table-4 ablation wiping with PAD masking: a relation
    entry survives only if both of its endpoints are valid positions and
    its block is enabled.
    """
    k = num_regions + num_tokens
    valid = np.ones((batch, k), dtype=get_default_dtype())
    if token_mask is not None:
        valid[:, num_regions:] = token_mask
    weights = valid[:, :, None] * valid[:, None, :]

    self_blocks = _self_attention_blocks(num_regions, num_tokens)
    block = np.ones_like(self_blocks)
    if not use_self_attention:
        block -= self_blocks
    if not use_co_attention:
        block -= 1.0 - self_blocks
    return weights * block[None]


def _self_attention_blocks(num_regions: int, num_tokens: int) -> np.ndarray:
    """``(k, k)`` selector, 1 on the R_vv and R_tt blocks, 0 elsewhere.

    Depends on the sequence lengths alone, so a compiled plan freezes it.
    """
    k = num_regions + num_tokens
    blocks = np.zeros((k, k), dtype=get_default_dtype())
    blocks[:num_regions, :num_regions] = 1.0
    blocks[num_regions:, num_regions:] = 1.0
    return blocks


def _block_sums(matrix, rows, m: int, balanced: bool) -> list:
    """Sums of ``matrix`` ``(B, k, k)`` over its image rows and its
    query rows, then the same over its transpose's rows, as ``(B, C, k)``.

    ``rows`` ``(B, C, n)`` restricts the query rows to one subset per
    clause (a clause's weight mask is the flat one restricted to the
    outer product of its row, so all ``C`` clauses cost one matmul per
    side and share the image-row sums); ``None`` sums every query row
    (``C = 1``).  ``balanced`` keeps the two row blocks apart, else
    they are added.  Works on arrays and on Tensors.
    """
    sums = []
    for x in (matrix, matrix.swapaxes(1, 2)):
        image = x[:, :m, :].sum(axis=1, keepdims=True)
        text = (x[:, m:, :].sum(axis=1, keepdims=True) if rows is None
                else rows @ x[:, m:, :])
        sums += [image, text] if balanced else [image + text]
    return sums


def _attention_normalizers(
    weights: np.ndarray, rows: Optional[np.ndarray], num_regions: int,
    balanced: bool,
) -> Tuple[np.ndarray, ...]:
    """Divisors for the relation-map averages: the :func:`_block_sums`
    of the weight mask, floored at one.  Kept as one plain numpy
    function so the graph tracer captures the mask-dependent divisors
    as a single node."""
    return tuple(np.maximum(count, 1.0) for count in
                 _block_sums(weights, rows, num_regions, balanced))


def _clause_pooling_arrays(
    clause_masks: np.ndarray, token_mask: Optional[np.ndarray],
    num_regions: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask-derived arrays of the clause pooling: ``(rows, keep, pool)``.

    ``rows`` ``(B, C, n)`` are the clause rows on valid tokens; ``keep``
    ``(B, 1)`` is 1 where a sample has fewer than two non-empty rows (it
    keeps its flat attention); ``pool`` ``(B, C, k)`` weighs each clause
    by ``1/active`` on the image side and ``row/coverage`` on the text
    side, zero for kept samples.  Kept as one plain numpy function so
    the graph tracer records it as a single node.
    """
    dtype = get_default_dtype()
    rows = clause_masks * (1.0 if token_mask is None else token_mask[:, None])
    act = (rows.sum(axis=2) > 0).astype(dtype)  # (B, C)
    active = act.sum(axis=1, keepdims=True)
    conditioned = (active >= 2.0).astype(dtype)
    image = (act / np.maximum(active, 1.0))[:, :, None].repeat(num_regions, 2)
    text = rows / np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
    pool = np.concatenate([image, text], axis=2) * conditioned[:, :, None]
    return rows, 1.0 - conditioned, pool


class Rel2AttModule(Module):
    """One Rel2Att block: relation map -> attention masks -> re-weighting."""

    def __init__(self, config: YolloConfig):
        super().__init__()
        self.config = config
        d, d_rel, hidden = config.d_model, config.d_rel, config.ffn_hidden
        # The four FFNs of Eq. (1)-(2): theta_1..theta_4.
        self.ffn_v1 = FeedForward(d, hidden, d_rel)
        self.ffn_v2 = FeedForward(d, hidden, d_rel)
        self.ffn_t1 = FeedForward(d, hidden, d_rel)
        self.ffn_t2 = FeedForward(d, hidden, d_rel)
        # Learnable gain on the attention vector.  The relation-map
        # averages are O(1/k) in magnitude, so without a gain the
        # softmax of Eq. (6) starts pathologically flat; the gain is a
        # pure reparameterisation (the FFN output scale could learn the
        # same factor, far more slowly).
        self.att_gain = Parameter(np.array(config.att_gain_init))
        # Zero-init gate on the self-attention blocks.  R_vv and R_tt
        # never see the other modality; at init their random structure
        # (times att_gain) drowns the query's signal and decides whether
        # a run learns to ground, so a fresh block starts as the
        # w/o-self-attention arm and lets training open the gate.
        self.self_gate = Parameter(np.array(0.0))

    def relation_map(self, image_seq: Tensor, query_seq: Tensor) -> Tensor:
        """Compute the raw dense relation map ``R`` (Eq. 3)."""
        x1 = concatenate([self.ffn_v1(image_seq), self.ffn_t1(query_seq)], axis=1)
        x2 = concatenate([self.ffn_v2(image_seq), self.ffn_t2(query_seq)], axis=1)
        return x1.matmul(x2.swapaxes(1, 2)) / np.sqrt(self.config.d_rel)

    def _attention_scores(self, masked: Tensor, weights: np.ndarray,
                          m: int, rows: Optional[np.ndarray] = None
                          ) -> Tensor:
        """Joint attention vectors ``(B, C, k)`` from the masked relation
        map ``relation * weights``, one per clause row (``C = 1`` flat)."""
        balanced = self.config.block_balanced_attention
        parts = _block_sums(masked, None if rows is None else Tensor(rows),
                            m, balanced)
        scores = [part / Tensor(normalizer) for part, normalizer in zip(
            parts, _attention_normalizers(weights, rows, m, balanced))]
        if balanced:
            # Average each block of R separately before summing, so the
            # co-attention blocks (n entries) carry the same weight as
            # the much larger self-attention blocks (m entries).  With a
            # plain mean over all k entries the query's contribution to
            # att_v is diluted by m/n ~ 15x and grounding barely
            # conditions on the language.
            att_cols, att_rows = scores[0] + scores[1], scores[2] + scores[3]
        else:
            # Strict Eq. (3)-(4) reading: plain masked means over each axis.
            att_cols, att_rows = scores
        return (att_cols + att_rows) * self.att_gain

    def forward(
        self,
        image_seq: Tensor,
        query_seq: Tensor,
        token_mask: Optional[np.ndarray] = None,
        clause_masks: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Tensor, Tensor, Tensor]:
        """Return ``(V_attended, T_attended, att_v, att_t)``.

        ``att_v``/``att_t`` are the raw (pre-softmax) attention scores;
        the attended sequences are the element-wise products of Eq. (4)-(5).

        ``clause_masks`` — ``(B, C, n)`` 0/1 rows from
        :func:`repro.lang.pad_clause_masks` — switches the block into
        clause-conditioned mode: the relation map is computed once, the
        attention averages are re-taken per clause over that clause's
        token subset, and the per-clause vectors are pooled (mean over
        active clauses on the image side; per-token normalised sum on
        the text side).  Samples with fewer than two non-empty rows
        (all-zero rows included) keep the flat average, equal to
        ``clause_masks=None``.  No parameters are added, so the
        state-dict layout is unchanged.
        """
        batch, m = image_seq.shape[0], image_seq.shape[1]
        n = query_seq.shape[1]
        relation = self.relation_map(image_seq, query_seq)

        weights = _relation_weight_mask(
            batch, m, n, token_mask,
            self.config.use_self_attention, self.config.use_co_attention,
        )
        # The gate scales the self-attention entries only; the averages
        # keep the full mask's normalisers.
        self_blocks = _self_attention_blocks(m, n)
        gate = Tensor(self_blocks) * self.self_gate + Tensor(1.0 - self_blocks)
        masked = relation * Tensor(weights) * gate
        att = self._attention_scores(masked, weights, m)[:, 0]  # (B, k)
        if clause_masks is not None:
            # Every clause's averages at once, pooled over the clause
            # axis; no Python branch reads the masks, so a traced plan
            # replays any mask pattern.
            rows, keep, pool = _clause_pooling_arrays(
                clause_masks, token_mask, m)
            per_clause = self._attention_scores(masked, weights, m, rows)
            att = att * Tensor(keep) + (per_clause * Tensor(pool)).sum(axis=1)

        att_v = att[:, :m]
        att_t = att[:, m:]
        if token_mask is not None:
            att_t = att_t * Tensor(token_mask)

        # Re-weight with tanh-bounded attention: the raw logits are kept
        # for the mask loss, but unbounded multiplicative re-weighting
        # compounds exponentially through the stacked modules (features
        # scale by (1 + att) per module) and overflows float32.
        attended_v = image_seq * att_v.tanh().expand_dims(-1)
        attended_t = query_seq * att_t.tanh().expand_dims(-1)
        return attended_v, attended_t, att_v, att_t


class Rel2AttStack(Module):
    """Stack of Rel2Att modules with shortcut connections.

    Each module's attended outputs are added back to its inputs
    (residual propagation, Section 3.2) before feeding the next module.
    Returns the final image sequence plus the per-module raw attention
    masks used by the attention loss and visualisations.
    """

    def __init__(self, config: YolloConfig):
        super().__init__()
        self.config = config
        self.blocks = Sequential(*[Rel2AttModule(config) for _ in range(config.num_rel2att)])
        # Precomputed so the profiling-off path does no string formatting.
        self._span_names = [f"rel2att.block{i}" for i in range(config.num_rel2att)]

    def forward(
        self,
        image_seq: Tensor,
        query_seq: Tensor,
        token_mask: Optional[np.ndarray] = None,
        clause_masks: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Tensor]]:
        attention_masks: List[Tensor] = []
        v, t = image_seq, query_seq
        for block, span_name in zip(self.blocks, self._span_names):
            with trace_span(span_name):
                attended_v, attended_t, att_v, _ = block(
                    v, t, token_mask, clause_masks)
                v = v + attended_v
                t = t + attended_t
            attention_masks.append(att_v)
        return v, attention_masks
