"""Synthetic multi-object scene model and generator.

A scene is a set of coloured, categorised objects with bounding boxes on
a small canvas.  The generator controls the same-category distractor
density that differentiates RefCOCO(+) (~3.9 objects of the target's
type per image) from RefCOCOg (~1.6), and guarantees that distractors
remain distinguishable by the attribute classes the expression grammar
uses (colour, relative size, location).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.detection.boxes import iou_matrix
from repro.utils.seeding import spawn_rng

PERSON_CATEGORY = "person"
#: Rejection-sampling budget for placing one object without overlap.
MAX_PLACE_ATTEMPTS = 60

#: Object categories; each maps to a distinct rendered glyph.
CATEGORIES: Tuple[str, ...] = (
    PERSON_CATEGORY,
    "car",
    "dog",
    "ball",
    "cup",
    "chair",
    "plant",
    "lamp",
)

#: Colour names available to the grammar.
COLORS: Tuple[str, ...] = (
    "red",
    "green",
    "blue",
    "yellow",
    "purple",
    "orange",
    "white",
    "brown",
)

#: RGB values (0-1 floats) for each colour name.
COLOR_VALUES: Dict[str, Tuple[float, float, float]] = {
    "red": (0.85, 0.15, 0.15),
    "green": (0.15, 0.75, 0.2),
    "blue": (0.2, 0.35, 0.9),
    "yellow": (0.9, 0.85, 0.15),
    "purple": (0.6, 0.2, 0.75),
    "orange": (0.95, 0.55, 0.1),
    "white": (0.95, 0.95, 0.95),
    "brown": (0.55, 0.35, 0.15),
}


@dataclass
class SceneObject:
    """One object instance: category, colour and box in pixel coordinates."""

    category: str
    color: str
    box: np.ndarray  # (4,) x1, y1, x2, y2

    @property
    def width(self) -> float:
        return float(self.box[2] - self.box[0])

    @property
    def height(self) -> float:
        return float(self.box[3] - self.box[1])

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        return (
            float(self.box[0] + self.box[2]) / 2.0,
            float(self.box[1] + self.box[3]) / 2.0,
        )


@dataclass
class Scene:
    """A canvas plus its object instances."""

    height: int
    width: int
    objects: List[SceneObject] = field(default_factory=list)

    def same_category(self, obj: SceneObject) -> List[SceneObject]:
        """All objects sharing ``obj``'s category, including ``obj``."""
        return [other for other in self.objects if other.category == obj.category]

    def category_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for obj in self.objects:
            counts[obj.category] = counts.get(obj.category, 0) + 1
        return counts

    def contains_person(self) -> bool:
        return any(obj.category == PERSON_CATEGORY for obj in self.objects)

    def boxes(self) -> np.ndarray:
        """Stack all object boxes into an ``(n, 4)`` array."""
        return np.stack([obj.box for obj in self.objects]) if self.objects else np.empty((0, 4))


class SceneGenerator:
    """Sample scenes with controllable distractor density.

    Parameters
    ----------
    height, width:
        Canvas size in pixels.
    same_type_density:
        Target number of same-category instances per scene; ~3.9 for
        RefCOCO(+) style scenes, ~1.6 for RefCOCOg style scenes.
    distinct_colors:
        When True (required for the RefCOCO+ flavour) same-category
        instances always receive pairwise distinct colours so appearance
        alone can disambiguate.

    Placement tries at most :data:`MAX_PLACE_ATTEMPTS` boxes per object.
    """

    def __init__(
        self,
        height: int = 48,
        width: int = 72,
        same_type_density: float = 3.9,
        distinct_colors: bool = False,
        min_size: int = 10,
        max_size: int = 26,
        max_overlap_iou: float = 0.08,
        rng: Optional[np.random.Generator] = None,
    ):
        if height < 4 * min_size // 2 or width < 4 * min_size // 2:
            raise ValueError("canvas too small for the configured object sizes")
        self.height = height
        self.width = width
        self.same_type_density = same_type_density
        self.distinct_colors = distinct_colors
        self.min_size = min_size
        self.max_size = max_size
        self.max_overlap_iou = max_overlap_iou
        self._rng = rng if rng is not None else spawn_rng("scene-generator")

    # ------------------------------------------------------------------
    def generate(
        self,
        require_person: Optional[bool] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Scene:
        """Sample one scene.

        ``require_person=True`` forces a multi-person scene (testA
        composition); ``require_person=False`` excludes persons (testB).
        """
        rng = rng if rng is not None else self._rng
        scene = Scene(self.height, self.width)

        main_category = self._pick_main_category(require_person, rng)
        main_count = self._sample_group_size(rng)
        extra_count = int(rng.integers(0, 3))

        layout: List[str] = [main_category] * main_count
        forbidden = {PERSON_CATEGORY} if require_person is False else set()
        side_pool = [c for c in CATEGORIES if c != main_category and c not in forbidden]
        for _ in range(extra_count):
            layout.append(str(rng.choice(side_pool)))

        for category in layout:
            placed = self._place_object(scene, category, rng)
            if placed is not None:
                scene.objects.append(placed)

        # Placement can fail under rejection sampling; guarantee the
        # split-defining composition survives.
        if require_person and sum(1 for o in scene.objects if o.category == PERSON_CATEGORY) < 2:
            return self.generate(require_person=require_person, rng=rng)
        if len(scene.objects) < 2:
            return self.generate(require_person=require_person, rng=rng)
        return scene

    # ------------------------------------------------------------------
    def _pick_main_category(self, require_person: Optional[bool],
                            rng: np.random.Generator) -> str:
        if require_person:
            return PERSON_CATEGORY
        pool = [c for c in CATEGORIES if not (require_person is False and c == PERSON_CATEGORY)]
        return str(rng.choice(pool))

    def _sample_group_size(self, rng: np.random.Generator) -> int:
        """Sample the main-category group size around ``same_type_density``."""
        low = max(2, int(np.floor(self.same_type_density - 1)))
        high = max(low + 1, int(np.ceil(self.same_type_density + 1)))
        return int(rng.integers(low, high + 1))

    def _sample_box(self, rng: np.random.Generator) -> np.ndarray:
        width = float(rng.integers(self.min_size, self.max_size + 1))
        height = float(rng.integers(self.min_size, self.max_size + 1))
        x1 = float(rng.uniform(1.0, self.width - width - 1.0))
        y1 = float(rng.uniform(1.0, self.height - height - 1.0))
        return np.asarray([x1, y1, x1 + width, y1 + height])

    def _place_object(self, scene: Scene, category: str,
                      rng: np.random.Generator) -> Optional[SceneObject]:
        existing = scene.boxes()
        for _ in range(MAX_PLACE_ATTEMPTS):
            box = self._sample_box(rng)
            if len(existing) and iou_matrix(box[None], existing).max() > self.max_overlap_iou:
                continue
            color = self._pick_color(scene, category, rng)
            if color is None:
                return None
            return SceneObject(category=category, color=color, box=box)
        return None

    def _pick_color(self, scene: Scene, category: str,
                    rng: np.random.Generator) -> Optional[str]:
        if not self.distinct_colors:
            return str(rng.choice(COLORS))
        used = {obj.color for obj in scene.objects if obj.category == category}
        available = [c for c in COLORS if c not in used]
        if not available:
            return None
        return str(rng.choice(available))
