"""Compositional scenario: multi-sentence and multi-clause queries.

Every query is generated *through the parser*: a candidate expression
is rendered from the scene, parsed with :func:`repro.lang.parse`, and
interpreted against the scene with :func:`repro.lang.resolve_tree`; the
sample is emitted only when the interpreter confirms the intended
referent set.  Ground truth is therefore correct by construction under
exactly the semantics the structured-query subsystem implements — a
parser bug cannot silently ship mislabelled samples, it shows up as a
generation stall.

Five query families are mixed:

* ``anaphora_single`` — two sentences linked by a pronoun ("there is a
  red car . the dog next to it"), resolving to one object;
* ``nested`` — a depth-2 relative-clause chain ("the dog next to the
  car that is to the left of the red lamp");
* ``negation`` — a negated attribute in a relative clause ("the car
  that is not red") with a unique referent;
* ``conjunction_multi`` — a two-NP conjunction ("the red car and the
  blue dog") whose structured answer ranks both boxes;
* ``anaphora_no_target`` — an anaphoric reference to a category absent
  from the scene; the only correct answer is ``not_found``.

``query_type`` maps onto the registry's standard vocabulary (``single``
/ ``multi`` / ``no_target``); the finer family name is recoverable from
the parse tree (depth, negation flags, anaphora), which is how the
Table 2b depth breakdown groups its rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.render import render_scene
from repro.data.scenes import CATEGORIES, Scene, SceneGenerator, SceneObject
from repro.lang import UnsupportedRelationError, parse, resolve_tree
from repro.lang.tree import RelationTree
from repro.scenarios.registry import (
    Scenario,
    ScenarioSample,
    TraceMix,
    register_scenario,
    register_trace_mix,
)
from repro.text.tokenizer import tokenize

#: Surface forms of the directional relations the interpreter supports.
_RELATION_TEXT: Tuple[str, ...] = (
    "next to", "to the left of", "to the right of", "above", "below",
)

#: Fractions of each query family in the eval split.
QUERY_FAMILY_MIX: Dict[str, float] = {
    "anaphora_single": 0.3,
    "nested": 0.2,
    "negation": 0.15,
    "conjunction_multi": 0.15,
    "anaphora_no_target": 0.2,
}

#: Family -> registry query_type.
_FAMILY_TYPE: Dict[str, str] = {
    "anaphora_single": "single",
    "nested": "single",
    "negation": "single",
    "conjunction_multi": "multi",
    "anaphora_no_target": "no_target",
}


def generate_compositional_scene(rng: np.random.Generator) -> Scene:
    """A mid-density scene with room for relational chains."""
    gen = SceneGenerator(same_type_density=3.5, max_overlap_iou=0.15,
                         min_size=8, max_size=20, rng=rng)
    scene = gen.generate(rng=rng)
    want = int(rng.integers(6, 10))
    attempts = 0
    while len(scene.objects) < want and attempts < 4 * want:
        attempts += 1
        placed = gen._place_object(scene, str(rng.choice(CATEGORIES)), rng)
        if placed is not None:
            scene.objects.append(placed)
    return scene


def _unique_objects(scene: Scene) -> List[SceneObject]:
    """Objects uniquely described by their (category, colour) pair."""
    counts: Dict[Tuple[str, str], int] = {}
    for obj in scene.objects:
        key = (obj.category, obj.color)
        counts[key] = counts.get(key, 0) + 1
    return [o for o in scene.objects if counts[(o.category, o.color)] == 1]


def _pronoun_for(obj: SceneObject) -> str:
    return "him" if obj.category == "person" else "it"


def _verified(query: str, scene: Scene,
              expect: int) -> Optional[Tuple[RelationTree,
                                             List[SceneObject]]]:
    """Parse ``query`` and confirm it denotes exactly ``expect`` objects."""
    tree = parse(query)
    if tree.is_trivial:
        return None
    try:
        resolved = resolve_tree(tree, scene)
    except UnsupportedRelationError:
        return None
    if len(resolved) != expect:
        return None
    return tree, resolved


def _anaphora_query(scene: Scene, rng: np.random.Generator,
                    no_target: bool) -> Optional[Tuple[str,
                                                       List[SceneObject]]]:
    """Two sentences linked by a pronoun; optionally verified-absent."""
    anchors = _unique_objects(scene)
    if not anchors:
        return None
    rng.shuffle(anchors)
    # Scene-ordered, never set-ordered: set iteration follows the
    # per-process string hash, and the shuffles below must not.
    present = list(dict.fromkeys(o.category for o in scene.objects))
    for anchor in anchors[:4]:
        if no_target:
            absent = [c for c in CATEGORIES if c not in present]
            if not absent:
                return None
            categories = [str(absent[int(rng.integers(len(absent)))])]
        else:
            categories = [c for c in present if c != anchor.category]
            rng.shuffle(categories)
        relations = list(_RELATION_TEXT)
        rng.shuffle(relations)
        for category in categories[:3]:
            for relation in relations:
                query = (f"there is a {anchor.color} {anchor.category} . "
                         f"the {category} {relation} "
                         f"{_pronoun_for(anchor)}")
                verified = _verified(query, scene,
                                     0 if no_target else 1)
                if verified is None:
                    continue
                tree, resolved = verified
                # The pronoun must actually have resolved — a no-target
                # answer reached without anaphora is not this family.
                if not any(e.pronoun is not None and e.antecedent is not None
                           for e in tree.entities):
                    continue
                return query, resolved
    return None


def _nested_query(scene: Scene, rng: np.random.Generator,
                  ) -> Optional[Tuple[str, List[SceneObject]]]:
    """A depth-2 chain: target -> middle NP -> unique inner anchor."""
    inner_anchors = _unique_objects(scene)
    if not inner_anchors:
        return None
    rng.shuffle(inner_anchors)
    categories = list(dict.fromkeys(o.category for o in scene.objects))
    for inner in inner_anchors[:4]:
        rng.shuffle(categories)
        for mid_category in categories[:3]:
            for outer_category in categories[:3]:
                relations = list(_RELATION_TEXT)
                rng.shuffle(relations)
                for rel1 in relations[:3]:
                    for rel2 in relations[:3]:
                        query = (
                            f"the {outer_category} {rel1} the "
                            f"{mid_category} that is {rel2} the "
                            f"{inner.color} {inner.category}")
                        verified = _verified(query, scene, 1)
                        if verified is None:
                            continue
                        tree, resolved = verified
                        if tree.depth() < 2:
                            continue
                        return query, resolved
    return None


def _negation_query(scene: Scene, rng: np.random.Generator,
                    ) -> Optional[Tuple[str, List[SceneObject]]]:
    """``the CAT that is not COLOR`` with a verified-unique referent."""
    categories = list(dict.fromkeys(o.category for o in scene.objects))
    rng.shuffle(categories)
    for category in categories:
        group = [o for o in scene.objects if o.category == category]
        if len(group) < 2:
            continue
        colors = list(dict.fromkeys(o.color for o in group))
        rng.shuffle(colors)
        for color in colors:
            query = f"the {category} that is not {color}"
            verified = _verified(query, scene, 1)
            if verified is not None:
                return query, verified[1]
    return None


def _conjunction_query(scene: Scene, rng: np.random.Generator,
                       ) -> Optional[Tuple[str, List[SceneObject]]]:
    """Two unique NPs joined by ``and``; the answer ranks both boxes."""
    uniques = _unique_objects(scene)
    if len(uniques) < 2:
        return None
    rng.shuffle(uniques)
    for first in uniques[:4]:
        for second in uniques[:4]:
            if second is first:
                continue
            query = (f"the {first.color} {first.category} and "
                     f"the {second.color} {second.category}")
            verified = _verified(query, scene, 2)
            if verified is not None:
                return query, verified[1]
    return None


_FAMILY_BUILDERS = {
    "anaphora_single": lambda scene, rng: _anaphora_query(scene, rng, False),
    "nested": _nested_query,
    "negation": _negation_query,
    "conjunction_multi": _conjunction_query,
    "anaphora_no_target": lambda scene, rng: _anaphora_query(scene, rng,
                                                             True),
}


def _make_sample(scene: Scene, image: np.ndarray, family: str, query: str,
                 resolved: List[SceneObject]) -> ScenarioSample:
    query_type = _FAMILY_TYPE[family]
    if query_type == "no_target":
        target_box = np.zeros(4)
        all_boxes = np.empty((0, 4))
        target_index = -1
    else:
        all_boxes = np.stack([o.box.copy() for o in resolved])
        target_box = all_boxes[0].copy()
        target_index = (-1 if query_type == "multi" else next(
            i for i, o in enumerate(scene.objects) if o is resolved[0]))
    return ScenarioSample(
        image=image, query=query, tokens=tokenize(query),
        target_box=target_box, target_index=target_index,
        scene=scene, split="eval", query_type=query_type,
        all_target_boxes=all_boxes, scenario="compositional")


def build_compositional(num_scenes: int,
                        rng: np.random.Generator,
                        ) -> Dict[str, List[ScenarioSample]]:
    """Generate the compositional scenario's eval split."""
    families = list(QUERY_FAMILY_MIX)
    weights = np.asarray([QUERY_FAMILY_MIX[f] for f in families])
    weights = weights / weights.sum()
    samples: List[ScenarioSample] = []
    want = num_scenes * 2
    guard = 0
    while len(samples) < want:
        guard += 1
        if guard > max(50, num_scenes * 50):
            raise RuntimeError("compositional scenario generation stalled")
        scene = generate_compositional_scene(rng)
        image = render_scene(scene, rng=rng)
        produced = 0
        order = list(rng.permutation(len(families)))
        start = int(rng.choice(len(families), p=weights))
        order.remove(start)
        for family_index in [start] + order:
            if produced >= 2:
                break
            family = families[family_index]
            result = _FAMILY_BUILDERS[family](scene, rng)
            if result is None:
                continue
            query, resolved = result
            samples.append(_make_sample(scene, image, family, query,
                                        resolved))
            produced += 1
    return {"eval": samples[:want]}


register_scenario(Scenario(
    name="compositional",
    description=("multi-sentence and multi-clause queries — anaphora, "
                 "nested relatives, negation, conjunction — verified "
                 "through the relation-tree parser"),
    build=build_compositional,
))

register_trace_mix(TraceMix(
    name="compositional",
    weights={"compositional": 1.0},
))
