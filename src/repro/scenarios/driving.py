"""Driving scenario: road scenes with ego-perspective expressions.

Scenes place vehicles, pedestrians and traffic cones on a road canvas
viewed from an ego camera at the bottom-centre of the image — the
viewpoint every expression is anchored to.  The grammar composes four
ego-relative selectors on top of the category/colour attributes the
base grammar uses:

* **side** — "to my left" / "to my right" / "ahead of me", decided by
  the object centre against the ego column with a safety margin;
* **ordinal distance** — "the nearest car", "the second car", ordered
  by Euclidean distance from the ego point with a minimum gap between
  consecutive ranks so ties can never flip the referent;
* **depth relation** — "past the blue truck" (farther from the ego
  than the anchor) / "before the blue truck" (nearer), against an
  anchor that is itself unique by category+colour;
* **colour** — as in the base grammar.

Like :mod:`repro.data.expressions`, every candidate is lowered to its
relation tree (:meth:`DrivingConstraints.tree`) and rendered only when
:func:`repro.lang.resolve_tree`, which also owns the ego geometry
(:func:`~repro.lang.semantics.ego_side`,
:func:`~repro.lang.semantics.ego_distance`) and its margins, returns
exactly the target, so ground truth stays unambiguous by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.expressions import choose_reference, reference_tree
from repro.data.render import render_scene
from repro.data.scenes import COLORS, Scene, SceneObject
from repro.detection.boxes import iou_matrix
from repro.lang.semantics import _DEPTH_MARGIN, ego_distance, ego_side
from repro.lang.tree import RelationTree
from repro.scenarios.registry import (
    Scenario,
    ScenarioSample,
    register_scenario,
)
from repro.text.tokenizer import tokenize

#: Categories that appear in road scenes (truck/cone glyphs live in
#: :data:`repro.data.render.GLYPHS` alongside the base categories).
DRIVING_CATEGORIES: Tuple[str, ...] = ("car", "truck", "person", "cone")

#: How each category is spoken from the driver's seat.
NOUNS: Dict[str, str] = {
    "car": "car",
    "truck": "truck",
    "person": "pedestrian",
    "cone": "cone",
}

ORDINAL_WORDS = ("nearest", "second", "third", "fourth")

#: Road canvas size, objects per scene and object size range (pixels).
SCENE_HEIGHT, SCENE_WIDTH = 48, 72
MIN_OBJECTS, MAX_OBJECTS = 5, 8
MIN_SIZE, MAX_SIZE = 8, 20
#: Largest IoU a new object may have with one already placed, and the
#: rejection-sampling budget for placing it.
MAX_OVERLAP_IOU = 0.08
MAX_PLACE_ATTEMPTS = 60

@dataclass(frozen=True)
class DrivingConstraints:
    """An ego-anchored compositional reference: category, colour, side,
    depth relation against an anchor, and ordinal rank by ego distance."""

    category: str
    color: Optional[str] = None
    side: Optional[str] = None           # "left" | "right"
    #: 1-based rank by ego distance ("nearest" = 1) among candidates.
    ordinal: Optional[int] = None
    relation: Optional[str] = None       # "past" | "before"
    anchor_category: Optional[str] = None
    anchor_color: Optional[str] = None

    def tree(self) -> RelationTree:
        side = None if self.side is None else f"side:{self.side}"
        ordinal = None if self.ordinal is None else str(self.ordinal)
        return reference_tree(
            self.category, [("color", self.color), ("ordinal", ordinal)],
            [side, self.relation], (self.anchor_category, self.anchor_color))


class DrivingSceneGenerator:
    """Sample road scenes: rejection-placed driving-category objects."""

    def generate(self, rng: np.random.Generator) -> Scene:
        scene = Scene(SCENE_HEIGHT, SCENE_WIDTH)
        count = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
        # At least two of one vehicle category, so ordinal and depth
        # references have something to rank.
        main = str(rng.choice(("car", "truck")))
        layout = [main, main]
        layout += [str(rng.choice(DRIVING_CATEGORIES))
                   for _ in range(max(0, count - 2))]
        for category in layout:
            placed = self._place(scene, category, rng)
            if placed is not None:
                scene.objects.append(placed)
        if len(scene.objects) < 3:
            return self.generate(rng)
        return scene

    def _place(self, scene: Scene, category: str,
               rng: np.random.Generator) -> Optional[SceneObject]:
        existing = scene.boxes()
        for _ in range(MAX_PLACE_ATTEMPTS):
            size = float(rng.integers(MIN_SIZE, MAX_SIZE + 1))
            aspect = {"car": 1.6, "truck": 1.4, "person": 0.5,
                      "cone": 0.7}[category]
            width = max(4.0, size * aspect)
            height = size
            if width >= SCENE_WIDTH - 2 or height >= SCENE_HEIGHT - 2:
                continue
            x1 = float(rng.uniform(1.0, SCENE_WIDTH - width - 1.0))
            y1 = float(rng.uniform(1.0, SCENE_HEIGHT - height - 1.0))
            box = np.asarray([x1, y1, x1 + width, y1 + height])
            if len(existing) \
                    and iou_matrix(box[None], existing).max() \
                    > MAX_OVERLAP_IOU:
                continue
            return SceneObject(category=category,
                               color=str(rng.choice(COLORS)), box=box)
        return None


class DrivingExpressionGenerator:
    """Verified-unique ego-perspective expressions."""

    def generate(self, scene: Scene, target: SceneObject,
                 rng: np.random.Generator) -> Optional[str]:
        constraints = choose_reference(
            scene, target, self._candidates(scene, target, rng), rng)
        if constraints is None:
            return None
        return self._render(constraints, rng)

    # ------------------------------------------------------------------
    def _candidates(self, scene: Scene, target: SceneObject,
                    rng: np.random.Generator) -> List[DrivingConstraints]:
        base = DrivingConstraints(category=target.category)
        color = replace(base, color=target.color)
        options = [base, color]

        side = ego_side(target, scene)
        if side is not None:
            options.append(replace(base, side=side))
            options.append(replace(color, side=side))

        group = [o for o in scene.objects if o.category == target.category]
        distances = sorted(ego_distance(o, scene) for o in group)
        target_rank = distances.index(ego_distance(target, scene)) + 1
        if target_rank <= len(ORDINAL_WORDS):
            options.append(replace(base, ordinal=target_rank))
            if side is not None:
                side_group = [o for o in group
                              if ego_side(o, scene) == side]
                side_distances = sorted(
                    ego_distance(o, scene) for o in side_group)
                side_rank = side_distances.index(
                    ego_distance(target, scene)) + 1
                if side_rank <= len(ORDINAL_WORDS):
                    options.append(
                        replace(base, side=side, ordinal=side_rank))

        options.extend(self._depth_candidates(scene, target, rng))
        return options

    def _depth_candidates(self, scene: Scene, target: SceneObject,
                          rng: np.random.Generator,
                          ) -> List[DrivingConstraints]:
        results: List[DrivingConstraints] = []
        target_dist = ego_distance(target, scene)
        anchors = [o for o in scene.objects if o is not target]
        rng.shuffle(anchors)
        for anchor in anchors[:4]:
            unique = [o for o in scene.objects
                      if o.category == anchor.category
                      and o.color == anchor.color]
            if len(unique) != 1:
                continue
            gap = target_dist - ego_distance(anchor, scene)
            if gap > _DEPTH_MARGIN:
                relation = "past"
            elif gap < -_DEPTH_MARGIN:
                relation = "before"
            else:
                continue
            results.append(DrivingConstraints(
                category=target.category, relation=relation,
                anchor_category=anchor.category, anchor_color=anchor.color))
            results.append(DrivingConstraints(
                category=target.category, color=target.color,
                relation=relation, anchor_category=anchor.category,
                anchor_color=anchor.color))
        return results

    # ------------------------------------------------------------------
    def _render(self, c: DrivingConstraints,
                rng: np.random.Generator) -> str:
        words = ["the"]
        if c.ordinal is not None:
            words.append(ORDINAL_WORDS[c.ordinal - 1])
        if c.color is not None:
            words.append(c.color)
        words.append(NOUNS[c.category])
        phrase = " ".join(words)
        if c.side is not None:
            phrase = f"{phrase} {self._side_phrase(c.side, rng)}"
        if c.relation is not None:
            anchor = f"the {c.anchor_color} {NOUNS[c.anchor_category]}"
            joiner = "past" if c.relation == "past" else "before"
            phrase = f"{phrase} {joiner} {anchor}"
        return phrase

    @staticmethod
    def _side_phrase(side: str, rng: np.random.Generator) -> str:
        variants = {
            "left": ("to my left", "on my left"),
            "right": ("to my right", "on my right"),
        }[side]
        return str(rng.choice(variants))


def build_driving(num_scenes: int,
                  rng: np.random.Generator,
                  ) -> Dict[str, List[ScenarioSample]]:
    """Generate the driving scenario's eval split."""
    scene_gen = DrivingSceneGenerator()
    expr_gen = DrivingExpressionGenerator()
    samples: List[ScenarioSample] = []
    guard = 0
    while len(samples) < num_scenes * 2:
        guard += 1
        if guard > max(50, num_scenes * 50):
            raise RuntimeError(
                "driving scenario generation stalled; the ego grammar "
                "cannot uniquely describe enough targets")
        scene = scene_gen.generate(rng)
        image = render_scene(scene, rng=rng)
        indices = list(range(len(scene.objects)))
        rng.shuffle(indices)
        produced = 0
        for index in indices:
            if produced >= 2:
                break
            target = scene.objects[index]
            query = expr_gen.generate(scene, target, rng)
            if query is None:
                continue
            samples.append(ScenarioSample(
                image=image, query=query, tokens=tokenize(query),
                target_box=target.box.copy(), target_index=index,
                scene=scene, split="eval", query_type="single",
                all_target_boxes=target.box.copy().reshape(1, 4),
                scenario="driving"))
            produced += 1
    return {"eval": samples[: num_scenes * 2]}


register_scenario(Scenario(
    name="driving",
    description=("road scenes with ego-perspective expressions: side, "
                 "ordinal distance and past/before depth relations"),
    build=build_driving,
))
