"""Typed relation trees — the parser's output schema.

A :class:`RelationTree` decomposes a referring expression into entity
phrases (head noun + attribute modifiers), relational clauses with
role-labelled arguments (``target`` is the figure, ``anchor`` the
ground), negation flags, and resolved cross-sentence antecedents for
pronouns.  Every consumed token is accounted for in ``segments`` — an
ordered, role-labelled tiling of the token range — so a tree can always
be lowered back to the exact token sequence it came from
(:meth:`RelationTree.token_sequence`), the invariant the property tests
pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

#: Half-open ``[start, end)`` range over ``tokenize(query)`` output.
Span = Tuple[int, int]


@dataclass(frozen=True)
class Attribute:
    """One modifier on an entity phrase."""

    kind: str  # "color" | "size" | "location" | "ordinal"
    value: str
    negated: bool = False


@dataclass
class EntityPhrase:
    """A noun phrase: head, modifiers, number, and anaphoric links."""

    #: Surface head noun ("pedestrian", "cars"), ``None`` for a bare
    #: pronoun.
    head: Optional[str]
    #: Canonical scene category ("person" for "pedestrian"), ``None``
    #: for open-class nouns outside the scene vocabulary.
    category: Optional[str]
    span: Span
    attributes: List[Attribute] = field(default_factory=list)
    plural: bool = False
    #: "all the red cars" — the query denotes every matching object.
    quantified_all: bool = False
    #: Surface pronoun ("it", "he") when the phrase is anaphoric.
    pronoun: Optional[str] = None
    #: Index of the resolved antecedent entity, if any.
    antecedent: Optional[int] = None
    #: 0-based sentence the phrase appears in.
    sentence: int = 0

    def attribute(self, kind: str) -> Optional[Attribute]:
        for attr in self.attributes:
            if attr.kind == kind:
                return attr
        return None


@dataclass
class RelationClause:
    """One relational clause with role-labelled arguments.

    ``target`` (the figure) is the entity being located; ``anchor``
    (the ground) is the reference entity, or ``None`` for ego-anchored
    relations ("to my left").  ``relation`` is the canonical relation
    name — a spatial predicate ("left of", "past", "side:left"), an
    attachment preposition ("in"), or an open-class verb ("wearing").
    """

    relation: str
    target: int
    anchor: Optional[int] = None
    negated: bool = False
    span: Span = (0, 0)


@dataclass
class RelationTree:
    """The full parse of one (possibly multi-sentence) query."""

    query: str
    tokens: List[str]
    entities: List[EntityPhrase] = field(default_factory=list)
    clauses: List[RelationClause] = field(default_factory=list)
    #: Indices of the referent entities — usually one; two or more for
    #: conjunctions ("the red car and the blue dog").
    targets: List[int] = field(default_factory=list)
    #: Role-labelled tiling of ``[0, len(tokens))`` in surface order.
    segments: List[Tuple[str, Span]] = field(default_factory=list)
    num_sentences: int = 1

    # ------------------------------------------------------------------
    def token_sequence(self) -> List[str]:
        """Lower the tree back to its token sequence via ``segments``.

        Round-trips to ``tokenize(query)`` exactly when the segments
        tile the token range — the invariant the parser maintains and
        the property tests assert.
        """
        out: List[str] = []
        for _, (start, end) in self.segments:
            out.extend(self.tokens[start:end])
        return out

    @property
    def is_trivial(self) -> bool:
        """True when parsing found no referent to condition on.

        A trivial tree has no target entity with either a head noun or
        a resolved antecedent; the attention lowering falls back to
        flat tokens for it.
        """
        for index in self.targets:
            entity = self.entities[index]
            if entity.head is not None or entity.antecedent is not None:
                return False
        return True

    # ------------------------------------------------------------------
    def clauses_of(self, entity: int) -> List[RelationClause]:
        """Clauses whose figure is ``entity``."""
        return [c for c in self.clauses if c.target == entity]

    def depth(self) -> int:
        """Maximum relational nesting depth under any target.

        Attribute-only references are depth 0, one relational clause is
        depth 1, a clause whose anchor itself carries a clause is depth
        2, and so on.  Anaphoric links forward to their antecedent's
        depth without adding a level.
        """
        return max((self._entity_depth(t, set()) for t in self.targets),
                   default=0)

    def _entity_depth(self, index: int, seen: Set[int]) -> int:
        if index is None or index in seen:
            return 0
        seen.add(index)
        best = 0
        for clause in self.clauses:
            if clause.target != index:
                continue
            anchor_depth = (self._entity_depth(clause.anchor, seen)
                            if clause.anchor is not None else 0)
            best = max(best, 1 + anchor_depth)
        entity = self.entities[index]
        if entity.antecedent is not None:
            best = max(best, self._entity_depth(entity.antecedent, seen))
        return best
