"""Compositional semantics: interpret relation trees against scenes.

``resolve_tree`` is the one interpreter that decides what a description
denotes.  It evaluates a parsed query on a
:class:`~repro.data.scenes.Scene`, driven by the *tree*, so nested
relative clauses, negated attributes, conjunctions and resolved anaphora
compose.  Each entity filters its category's objects in one fixed
order: colour (negated colour included), size superlative, absolute
location, relational clauses in tree order (directional, ego side,
past/before depth), and the ego-distance ordinal last.

Every data generator verifies its ground truth here.  The base grammar
(:mod:`repro.data.expressions`) and the driving grammar
(:mod:`repro.scenarios.driving`) lower each candidate description to a
tree directly and keep it only if this interpreter returns exactly its
target; the compositional scenario renders a candidate query, parses it
with the real parser, and checks the parse.  Ground truth is therefore
correct by construction under exactly the semantics the parser's trees
are given.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.data.expressions import (
    _SIZE_RATIO,
    describe_location,
    relation_between,
)
from repro.data.scenes import Scene, SceneObject
from repro.lang.tree import EntityPhrase, RelationTree

#: Directional relations with scene-level semantics.
_DIRECTIONAL = {"left of", "right of", "above", "below", "next to"}
#: Attribute kinds applied before the clauses, in this order.
_ATTRIBUTE_ORDER = ("color", "size", "location")

#: Pixel margin for the side decision (an object straddling the ego
#: column within this margin is neither clearly left nor right).
_SIDE_MARGIN = 3.0
#: Minimum ego-distance gap between consecutive ordinal ranks.
_ORDINAL_GAP = 3.0
#: Minimum ego-distance difference for a depth ("past"/"before") claim.
_DEPTH_MARGIN = 3.0


def ego_point(scene: Scene) -> Tuple[float, float]:
    """The camera position: bottom-centre of the canvas."""
    return (scene.width / 2.0, float(scene.height))


def ego_distance(obj: SceneObject, scene: Scene) -> float:
    """Euclidean distance from the ego point to the object centre."""
    ex, ey = ego_point(scene)
    cx, cy = obj.center
    return float(np.hypot(cx - ex, cy - ey))


def ego_side(obj: SceneObject, scene: Scene) -> Optional[str]:
    """``"left"`` / ``"right"`` of the ego column, or ``None`` if too close
    to call with the safety margin."""
    ex, _ = ego_point(scene)
    cx, _ = obj.center
    if cx < ex - _SIDE_MARGIN:
        return "left"
    if cx > ex + _SIDE_MARGIN:
        return "right"
    return None


class UnsupportedRelationError(ValueError):
    """The tree uses a relation with no scene-level semantics."""


def resolve_tree(tree: RelationTree, scene: Scene) -> List[SceneObject]:
    """Objects denoted by the tree's targets (empty = no referent).

    Raises :class:`UnsupportedRelationError` for relations the scene
    model cannot interpret (open-class verbs, attachments), so callers
    can reject rather than silently mis-ground.
    """
    resolved: List[SceneObject] = []
    for target in tree.targets:
        for obj in _resolve_entity(tree, scene, target, ()):
            if all(o is not obj for o in resolved):
                resolved.append(obj)
    return resolved


def _resolve_entity(tree: RelationTree, scene: Scene, index: int,
                    visiting: tuple) -> List[SceneObject]:
    if index in visiting:
        return []
    entity = tree.entities[index]
    if entity.pronoun is not None:
        if entity.antecedent is None:
            return []
        return _resolve_entity(tree, scene, entity.antecedent,
                               visiting + (index,))
    if entity.category is None:
        return []
    candidates = [o for o in scene.objects if o.category == entity.category]
    candidates = _apply_attributes(entity, candidates)
    for clause in tree.clauses_of(index):
        if not candidates:
            break
        candidates = _apply_clause(tree, scene, clause, candidates,
                                   visiting + (index,))
    ordinal = entity.attribute("ordinal")
    if ordinal is not None and candidates:
        candidates = _apply_ordinal(int(ordinal.value), candidates, scene)
    if not entity.plural and not entity.quantified_all:
        return candidates if len(candidates) == 1 else []
    # Plural reference: every match, ranked large-to-small (the crowded
    # scenario's deterministic answer order).
    if not candidates:
        return []
    areas = np.asarray([o.area for o in candidates])
    return [candidates[i] for i in np.argsort(-areas)]


def _apply_attributes(entity: EntityPhrase,
                      candidates: List[SceneObject]) -> List[SceneObject]:
    for kind in _ATTRIBUTE_ORDER:
        for attribute in entity.attributes:
            if attribute.kind != kind:
                continue
            if not candidates:
                return []
            if kind == "color":
                candidates = [o for o in candidates if (
                    o.color == attribute.value) != attribute.negated]
            elif kind == "size":
                candidates = _apply_size(attribute.value, candidates)
            else:
                candidates = [o for o in candidates
                              if describe_location(o, candidates)
                              == attribute.value]
    return candidates


def _apply_size(word: str, candidates: List[SceneObject],
                ) -> List[SceneObject]:
    """Area superlative: the clear extreme by ``_SIZE_RATIO``, or nothing."""
    if len(candidates) == 1:
        return candidates
    wants_big = word in ("big", "large")
    areas = np.asarray([o.area for o in candidates])
    ordered = np.sort(areas)
    if wants_big:
        if ordered[-1] < ordered[-2] * _SIZE_RATIO:
            return []
        return [candidates[int(areas.argmax())]]
    if ordered[0] * _SIZE_RATIO > ordered[1]:
        return []
    return [candidates[int(areas.argmin())]]


def _apply_ordinal(rank: int, candidates: List[SceneObject],
                   scene: Scene) -> List[SceneObject]:
    """1-based rank by ego distance; ranks must be ``_ORDINAL_GAP`` apart
    on both sides, so a pixel of jitter cannot swap "second" and "third"."""
    index = rank - 1
    if index < 0 or index >= len(candidates):
        return []
    distances = np.asarray([ego_distance(o, scene) for o in candidates])
    order = np.argsort(distances)
    ordered = distances[order]
    if index > 0 and ordered[index] - ordered[index - 1] < _ORDINAL_GAP:
        return []
    if index + 1 < len(ordered) \
            and ordered[index + 1] - ordered[index] < _ORDINAL_GAP:
        return []
    return [candidates[int(order[index])]]


def _apply_clause(tree: RelationTree, scene: Scene, clause,
                  candidates: List[SceneObject],
                  visiting: tuple) -> List[SceneObject]:
    if clause.relation.startswith("side:"):
        side = clause.relation.split(":", 1)[1]
        kept = [o for o in candidates if ego_side(o, scene) == side]
        if clause.negated:
            kept = [o for o in candidates
                    if all(o is not k for k in kept)]
        return kept

    if clause.anchor is None:
        raise UnsupportedRelationError(
            f"relation {clause.relation!r} needs an anchor")
    anchors = _resolve_entity(tree, scene, clause.anchor, visiting)
    if len(anchors) != 1:
        return []
    anchor = anchors[0]

    if clause.relation in ("past", "before"):
        return _apply_depth(clause.relation, candidates, anchor, scene)
    if clause.relation not in _DIRECTIONAL:
        raise UnsupportedRelationError(
            f"no scene semantics for relation {clause.relation!r}")

    canonical = clause.relation
    satisfying = [o for o in candidates if o is not anchor
                  and relation_between(o, anchor) == canonical]
    if clause.negated:
        return [o for o in candidates if o is not anchor
                and all(o is not s for s in satisfying)]
    if not satisfying:
        return []
    # Nearest satisfier wins — the base grammar's disambiguation rule.
    distances = [np.hypot(o.center[0] - anchor.center[0],
                          o.center[1] - anchor.center[1])
                 for o in satisfying]
    return [satisfying[int(np.argmin(distances))]]


def _apply_depth(relation: str, candidates: List[SceneObject],
                 anchor: SceneObject, scene: Scene) -> List[SceneObject]:
    """``past`` (farther from the ego than the anchor) / ``before``
    (nearer); the satisfier nearest the anchor's depth must win by
    ``_DEPTH_MARGIN``."""
    anchor_dist = ego_distance(anchor, scene)
    if relation == "past":
        kept = [o for o in candidates if o is not anchor
                and ego_distance(o, scene) > anchor_dist + _DEPTH_MARGIN]
    else:
        kept = [o for o in candidates if o is not anchor
                and ego_distance(o, scene) < anchor_dist - _DEPTH_MARGIN]
    if not kept:
        return []
    gaps = [abs(ego_distance(o, scene) - anchor_dist) for o in kept]
    order = np.argsort(gaps)
    if len(kept) > 1 and gaps[order[1]] - gaps[order[0]] < _DEPTH_MARGIN:
        return []
    return [kept[int(order[0])]]
