"""Referring-expression grammar with verified uniqueness.

The generator composes attribute constraints (category, colour, relative
size, absolute location, spatial relation to another object) and renders
them through flavour-specific templates:

* ``refcoco``  — short phrases, location words allowed (avg ~3.6 tokens);
* ``refcoco+`` — short phrases, **no** location words (appearance only);
* ``refcocog`` — long sentences with relational clauses (avg ~8.4 tokens).

Every candidate is lowered to the relation tree its rendering parses to
(:meth:`Constraints.tree`, no parsing) and kept only when
:func:`repro.lang.resolve_tree`, the one interpreter of the grammar,
returns exactly its target, so ground truth is unambiguous by
construction — mirroring the human verification step of the ReferItGame
annotation protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.data.scenes import Scene, SceneObject
from repro.utils.seeding import spawn_rng

if TYPE_CHECKING:
    from repro.lang.tree import RelationTree

LOCATION_WORDS = ("left", "right", "top", "bottom", "middle")
SIZE_WORDS = {"big": ("big", "large"), "small": ("small", "little")}
RELATIONS = ("left of", "right of", "above", "below", "next to")

#: Minimum pixel margin for an absolute-location extreme to count.
_LOCATION_MARGIN = 2.0
#: Minimum area ratio for a size superlative to count.
_SIZE_RATIO = 1.25
#: Center-offset threshold (px) for directional relations.
_RELATION_THRESHOLD = 4.0


def describe_location(obj: SceneObject, group: Sequence[SceneObject]) -> Optional[str]:
    """Return the absolute-location word that uniquely picks ``obj`` from ``group``.

    ``obj`` must be a member of ``group``.  Returns ``None`` when no
    location word applies with a safe margin.
    """
    others = [o for o in group if o is not obj]
    if not others:
        return None
    cx, cy = obj.center
    other_x = [o.center[0] for o in others]
    other_y = [o.center[1] for o in others]
    if cx < min(other_x) - _LOCATION_MARGIN:
        return "left"
    if cx > max(other_x) + _LOCATION_MARGIN:
        return "right"
    if cy < min(other_y) - _LOCATION_MARGIN:
        return "top"
    if cy > max(other_y) + _LOCATION_MARGIN:
        return "bottom"
    if len(group) % 2 == 1:
        xs = sorted(o.center[0] for o in group)
        median = xs[len(xs) // 2]
        if abs(cx - median) < 1e-9 and _is_strict_median(cx, xs):
            return "middle"
    return None


def _is_strict_median(value: float, sorted_xs: Sequence[float]) -> bool:
    mid = len(sorted_xs) // 2
    left_ok = mid == 0 or sorted_xs[mid - 1] < value - _LOCATION_MARGIN
    right_ok = mid == len(sorted_xs) - 1 or sorted_xs[mid + 1] > value + _LOCATION_MARGIN
    return left_ok and right_ok


def describe_size(obj: SceneObject, group: Sequence[SceneObject]) -> Optional[str]:
    """Return ``"big"``/``"small"`` if ``obj`` is the clear area extreme."""
    others = [o for o in group if o is not obj]
    if not others:
        return None
    areas = [o.area for o in others]
    if obj.area >= max(areas) * _SIZE_RATIO:
        return "big"
    if obj.area * _SIZE_RATIO <= min(areas):
        return "small"
    return None


def relation_between(target: SceneObject, anchor: SceneObject) -> str:
    """Directional relation of ``target`` with respect to ``anchor``."""
    tx, ty = target.center
    ax, ay = anchor.center
    dx, dy = tx - ax, ty - ay
    if abs(dx) >= abs(dy):
        if dx < -_RELATION_THRESHOLD:
            return "left of"
        if dx > _RELATION_THRESHOLD:
            return "right of"
    else:
        if dy < -_RELATION_THRESHOLD:
            return "above"
        if dy > _RELATION_THRESHOLD:
            return "below"
    return "next to"


def reference_tree(category: str,
                   attributes: Sequence[Tuple[str, Optional[str]]],
                   relations: Sequence[Optional[str]] = (),
                   anchor: Tuple[Optional[str], Optional[str]] = (None, None),
                   ) -> "RelationTree":
    """Lower a description straight to the tree its rendering parses to.

    ``attributes`` are ``(kind, value)`` pairs on the target and
    ``relations`` its clauses; ``None`` values are skipped.  Ego sides
    (``"side:left"``) take no anchor; every other relation binds to
    ``anchor``, a ``(category, colour)`` pair.
    """
    # Lazy import: repro.lang's lexicon and semantics import this module.
    from repro.lang.tree import (
        Attribute, EntityPhrase, RelationClause, RelationTree)

    def entity(noun, pairs):
        return EntityPhrase(head=noun, category=noun, span=(0, 0),
                            attributes=[Attribute(kind, value)
                                        for kind, value in pairs
                                        if value is not None])

    tree = RelationTree(query="", tokens=[], targets=[0],
                        entities=[entity(category, attributes)])
    for relation in relations:
        if relation is None:
            continue
        anchor_index = None
        if not relation.startswith("side:"):
            tree.entities.append(entity(anchor[0], [("color", anchor[1])]))
            anchor_index = len(tree.entities) - 1
        tree.clauses.append(RelationClause(relation, target=0,
                                           anchor=anchor_index))
    return tree


_Reference = TypeVar("_Reference")


def choose_reference(scene: Scene, target: SceneObject,
                     candidates: Sequence[_Reference],
                     rng: np.random.Generator) -> Optional[_Reference]:
    """Pick among the two simplest candidates that denote exactly ``target``.

    A candidate denotes ``target`` when ``resolve_tree`` of its
    ``tree()`` returns ``[target]``; its complexity is the number of
    attributes and clauses on the target.  Preferring simpler references
    while sampling among the two simplest levels present keeps variety;
    the choice is one ``rng.integers`` draw.
    """
    from repro.lang.semantics import resolve_tree

    unique: List[Tuple[int, _Reference]] = []
    for candidate in candidates:
        tree = candidate.tree()
        resolved = resolve_tree(tree, scene)
        if len(resolved) == 1 and resolved[0] is target:
            unique.append((len(tree.entities[0].attributes)
                           + len(tree.clauses_of(0)), candidate))
    if not unique:
        return None
    unique.sort(key=lambda pair: pair[0])
    pool = [c for level, c in unique if level <= unique[0][0] + 1]
    return pool[int(rng.integers(0, len(pool)))]


@dataclass(frozen=True)
class Constraints:
    """A compositional reference: category, colour, relative size,
    absolute location, and a directional relation to an anchor object
    unique by category and colour."""

    category: str
    color: Optional[str] = None
    size: Optional[str] = None
    location: Optional[str] = None
    relation: Optional[str] = None
    anchor_category: Optional[str] = None
    anchor_color: Optional[str] = None

    def tree(self) -> "RelationTree":
        return reference_tree(
            self.category,
            [("color", self.color), ("size", self.size),
             ("location", self.location)],
            [self.relation], (self.anchor_category, self.anchor_color))


class ExpressionGenerator:
    """Produce verified referring expressions in a dataset flavour.

    Parameters
    ----------
    flavor:
        ``"refcoco"``, ``"refcoco+"`` or ``"refcocog"``.
    """

    def __init__(self, flavor: str, rng: Optional[np.random.Generator] = None):
        if flavor not in ("refcoco", "refcoco+", "refcocog"):
            raise ValueError(f"unknown dataset flavor: {flavor}")
        self.flavor = flavor
        self._rng = rng if rng is not None else spawn_rng(f"expr-{flavor}")

    # ------------------------------------------------------------------
    def generate(self, scene: Scene, target: SceneObject,
                 rng: Optional[np.random.Generator] = None) -> Optional[str]:
        """Return a query uniquely denoting ``target``, or ``None``."""
        rng = rng if rng is not None else self._rng
        constraints = choose_reference(
            scene, target, self._candidate_constraints(scene, target, rng), rng)
        if constraints is None:
            return None
        return self._render(constraints, rng)

    # ------------------------------------------------------------------
    def _candidate_constraints(self, scene: Scene, target: SceneObject,
                               rng: np.random.Generator) -> List[Constraints]:
        group = scene.same_category(target)
        base = Constraints(category=target.category)
        options: List[Constraints] = [base]

        color = replace(base, color=target.color)
        size_word = describe_size(target, group)
        size_color_group = [o for o in group if o.color == target.color]
        size_in_color = describe_size(target, size_color_group)

        if self.flavor in ("refcoco", "refcocog"):
            location = describe_location(target, group)
            if location:
                options.append(replace(base, location=location))
            options.append(color)
            loc_in_color = describe_location(target, size_color_group)
            if loc_in_color:
                options.append(replace(color, location=loc_in_color))
            if size_word:
                options.append(replace(base, size=size_word))
            if size_in_color:
                options.append(replace(color, size=size_in_color))
        else:  # refcoco+: appearance only
            options.append(color)
            if size_word:
                options.append(replace(base, size=size_word))
            if size_in_color:
                options.append(replace(color, size=size_in_color))

        if self.flavor == "refcocog":
            options.extend(self._relation_constraints(scene, target, rng))
        return options

    def _relation_constraints(self, scene: Scene, target: SceneObject,
                              rng: np.random.Generator) -> List[Constraints]:
        """Relational references against unambiguous anchor objects."""
        results: List[Constraints] = []
        anchors = [o for o in scene.objects if o is not target]
        rng.shuffle(anchors)
        for anchor in anchors:
            anchor_matches = [
                o
                for o in scene.objects
                if o.category == anchor.category and o.color == anchor.color
            ]
            if len(anchor_matches) != 1:
                continue
            relation = relation_between(target, anchor)
            results.append(
                Constraints(
                    category=target.category,
                    relation=relation,
                    anchor_category=anchor.category,
                    anchor_color=anchor.color,
                )
            )
            results.append(
                Constraints(
                    category=target.category,
                    color=target.color,
                    relation=relation,
                    anchor_category=anchor.category,
                    anchor_color=anchor.color,
                )
            )
        return results

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _render(self, c: Constraints, rng: np.random.Generator) -> str:
        if self.flavor == "refcocog":
            return self._render_long(c, rng)
        return self._render_short(c, rng)

    def _render_short(self, c: Constraints, rng: np.random.Generator) -> str:
        words: List[str] = []
        if c.size:
            words.append(str(rng.choice(SIZE_WORDS[c.size])))
        if c.color:
            words.append(c.color)
        noun = c.category
        if c.location:
            if rng.random() < 0.5:
                return " ".join([c.location] + words + [noun])
            return " ".join(words + [noun, "on", "the", c.location])
        return " ".join(words + [noun])

    def _render_long(self, c: Constraints, rng: np.random.Generator) -> str:
        head_words: List[str] = ["the"]
        if c.size:
            head_words.append(str(rng.choice(SIZE_WORDS[c.size])))
        if c.color:
            head_words.append(c.color)
        head_words.append(c.category)
        head = " ".join(head_words)

        if c.relation is not None:
            anchor = f"the {c.anchor_color} {c.anchor_category}"
            relation_phrase = {
                "left of": "to the left of",
                "right of": "to the right of",
                "above": "above",
                "below": "below",
                "next to": "next to",
            }[c.relation]
            templates = (
                f"{head} that is {relation_phrase} {anchor}",
                f"{head} standing {relation_phrase} {anchor} in the picture",
                f"{head} which is {relation_phrase} {anchor}",
            )
            return str(rng.choice(templates))

        if c.location is not None:
            templates = (
                f"{head} on the {c.location} side of the picture",
                f"{head} that is on the {c.location} of the image",
            )
            return str(rng.choice(templates))

        templates = (
            f"{head} in the picture",
            f"{head} that is shown in the image",
            f"there is {head} in the scene",
        )
        return str(rng.choice(templates))
