"""Structured query understanding: parse referring expressions to trees.

The subsystem has three layers:

* :mod:`repro.lang.parser` — a deterministic recursive-descent parser
  over the referring-expression grammar (base templates, driving/crowded
  scenario forms, conjunction, negation, nested relative clauses,
  cross-sentence anaphora) producing a typed
  :class:`~repro.lang.tree.RelationTree`;
* :mod:`repro.lang.attention` — lowers trees to per-clause attention
  masks consumed by the clause-conditioned Rel2Att forward (flat-token
  fallback for trivial/single-clause trees);
* :mod:`repro.lang.semantics` — interprets trees against synthetic
  scenes; the one interpreter every data generator verifies its ground
  truth with.
"""

from repro.lang.tree import (
    Attribute,
    EntityPhrase,
    RelationClause,
    RelationTree,
)
from repro.lang.parser import parse
from repro.lang.attention import (
    clause_contexts,
    clause_token_masks,
    pad_clause_masks,
)
from repro.lang.semantics import UnsupportedRelationError, resolve_tree

__all__ = [
    "Attribute",
    "EntityPhrase",
    "RelationClause",
    "RelationTree",
    "parse",
    "clause_contexts",
    "clause_token_masks",
    "pad_clause_masks",
    "UnsupportedRelationError",
    "resolve_tree",
]
