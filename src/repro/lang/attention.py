"""Lower relation trees to per-clause attention targets.

Each *clause context* is the token span of one relational clause unioned
with its figure's head phrase (and its anchor's phrase), plus one
context per resolved cross-sentence antecedent — the pieces of the query
a clause-conditioned Rel2Att pass should attend to separately instead of
averaging over the whole flat token bag.

Fallback semantics: a query with fewer than two clause contexts (a bare
attribute reference, or a single-clause expression) compiles to ``None``
and is batched as all-zero rows, which the model treats as the flat
token path (equal to the unconditioned forward).  Truncation at
``max_length`` can also demote a query to the flat path when it leaves
fewer than two non-empty contexts.  Batches are padded to a fixed
clause count, so clause and flat queries share one compiled plan.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import get_default_dtype
from repro.lang.tree import RelationTree, Span

#: Clause rows every batch is padded to: the head context plus two
#: clause contexts, which is what a conditioned ``compositional``
#: query yields at ``max_length=20``.
CLAUSE_ROWS = 3


def clause_contexts(tree: RelationTree) -> List[List[Span]]:
    """Token-span groups, one per clause context (head context first).

    Returns an empty list for trivial trees.  The first context is the
    union of the target entities' head phrases; then one context per
    clause (clause span + figure span + anchor span); then one per
    resolved pronoun antecedent (antecedent span + pronoun span).
    """
    if tree.is_trivial:
        return []
    contexts: List[List[Span]] = []
    head_spans = [tree.entities[t].span for t in tree.targets]
    for clause in tree.clauses:
        spans = [clause.span, tree.entities[clause.target].span]
        if clause.anchor is not None:
            spans.append(tree.entities[clause.anchor].span)
        contexts.append(spans)
    for entity in tree.entities:
        if entity.pronoun is not None and entity.antecedent is not None:
            contexts.append([tree.entities[entity.antecedent].span,
                             entity.span])
    if not contexts:
        return []
    return [head_spans] + contexts


def _mask_from_spans(spans: Sequence[Span], max_length: int) -> np.ndarray:
    mask = np.zeros(max_length, dtype=get_default_dtype())
    for start, end in spans:
        start = max(0, min(start, max_length))
        end = max(0, min(end, max_length))
        if end > start:
            mask[start:end] = 1.0
    return mask


def clause_token_masks(tree: RelationTree,
                       max_length: int) -> Optional[np.ndarray]:
    """Compile a tree to ``(C, max_length)`` 0/1 clause masks.

    Returns ``None`` — the flat-token fallback — when the tree is
    trivial or yields fewer than two non-empty contexts beyond the head
    context (i.e. single-clause and attribute-only queries run the
    unconditioned, bit-exact flat path).
    """
    contexts = clause_contexts(tree)
    if not contexts:
        return None
    rows = [_mask_from_spans(spans, max_length) for spans in contexts]
    head, clause_rows = rows[0], [r for r in rows[1:] if r.any()]
    if len(clause_rows) < 2:
        return None
    if head.any():
        clause_rows = [head] + clause_rows
    return np.stack(clause_rows)


def pad_clause_masks(rows: Sequence[Optional[np.ndarray]],
                     max_length: int) -> np.ndarray:
    """Stack per-sample masks into one ``(B, C, L)`` batch array.

    Samples compiled to ``None`` get all-zero rows — the per-sample
    flat fallback inside the clause-conditioned forward.  ``C`` is
    :data:`CLAUSE_ROWS`, or the longest sample's row count when that is
    larger, so a compiled model keeps one plan per batch size whether a
    batch holds clause queries or none.
    """
    num_clauses = max([CLAUSE_ROWS] + [row.shape[0] for row in rows
                                       if row is not None])
    out = np.zeros((len(rows), num_clauses, max_length),
                   dtype=get_default_dtype())
    for index, row in enumerate(rows):
        if row is not None:
            out[index, :row.shape[0]] = row
    return out
