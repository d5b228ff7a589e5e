"""Dataset assembly: synthetic RefCOCO / RefCOCO+ / RefCOCOg.

Each dataset is a collection of :class:`GroundingSample` records split
into ``train`` / ``val`` / ``testA`` / ``testB`` (RefCOCOg has only
``train`` / ``val``, as in the paper).  testA scenes contain multiple
persons with person targets; testB scenes contain no persons — matching
the split construction of Yu et al. (2016).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.expressions import ExpressionGenerator
from repro.data.render import render_scene
from repro.data.scenes import PERSON_CATEGORY, Scene, SceneGenerator
from repro.text.tokenizer import tokenize
from repro.text.vocab import Vocabulary
from repro.utils.seeding import spawn_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Configuration of one synthetic grounding dataset.

    ``scenes_per_split`` maps split names to scene counts; the number of
    samples is roughly ``queries_per_scene`` times larger.
    """

    name: str
    flavor: str  # "refcoco" | "refcoco+" | "refcocog"
    image_height: int = 48
    image_width: int = 72
    same_type_density: float = 3.9
    distinct_colors: bool = False
    queries_per_scene: int = 2
    scenes_per_split: Dict[str, int] = field(
        default_factory=lambda: {"train": 120, "val": 25, "testA": 25, "testB": 25}
    )
    seed_tag: str = ""

    def scaled(self, factor: float) -> "DatasetSpec":
        """Return a copy with every split's scene count scaled by ``factor``."""
        splits = {k: max(2, int(round(v * factor))) for k, v in self.scenes_per_split.items()}
        return DatasetSpec(
            name=self.name,
            flavor=self.flavor,
            image_height=self.image_height,
            image_width=self.image_width,
            same_type_density=self.same_type_density,
            distinct_colors=self.distinct_colors,
            queries_per_scene=self.queries_per_scene,
            scenes_per_split=splits,
            seed_tag=self.seed_tag,
        )


#: Default specs mirroring the three benchmark datasets.
REFCOCO = DatasetSpec(name="RefCOCO", flavor="refcoco", same_type_density=3.9)
REFCOCO_PLUS = DatasetSpec(
    name="RefCOCO+", flavor="refcoco+", same_type_density=3.9, distinct_colors=True
)
REFCOCOG = DatasetSpec(
    name="RefCOCOg",
    flavor="refcocog",
    same_type_density=1.6,
    scenes_per_split={"train": 120, "val": 25},
)
#: Dataset name -> spec; the one name lookup every harness uses.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    spec.name: spec for spec in (REFCOCO, REFCOCO_PLUS, REFCOCOG)}


@dataclass
class GroundingSample:
    """One (image, query, target box) triple."""

    image: np.ndarray  # (3, H, W) float
    query: str
    tokens: List[str]
    target_box: np.ndarray  # (4,) x1, y1, x2, y2
    target_index: int
    scene: Scene
    split: str


def request_sample(image: np.ndarray, query: str) -> GroundingSample:
    """A sample carrying only a request (no scene or target box)."""
    return GroundingSample(
        image=image,
        query=query,
        tokens=tokenize(query),
        target_box=np.zeros(4),
        target_index=-1,
        scene=None,
        split="serve",
    )


class GroundingDataset:
    """A built dataset: samples per split plus a shared vocabulary."""

    def __init__(self, spec: DatasetSpec, splits: Dict[str, List[GroundingSample]],
                 vocab: Vocabulary, max_query_length: int):
        self.spec = spec
        self.splits = splits
        self.vocab = vocab
        self.max_query_length = max_query_length

    @property
    def name(self) -> str:
        return self.spec.name

    def __getitem__(self, split: str) -> List[GroundingSample]:
        return self.splits[split]

    def split_names(self) -> List[str]:
        return list(self.splits)

    def num_samples(self) -> int:
        return sum(len(samples) for samples in self.splits.values())

    def all_samples(self) -> List[GroundingSample]:
        result: List[GroundingSample] = []
        for samples in self.splits.values():
            result.extend(samples)
        return result


def _split_person_policy(spec: DatasetSpec, split: str) -> Optional[bool]:
    """testA forces multi-person scenes, testB excludes persons."""
    if split == "testA":
        return True
    if split == "testB":
        return False
    return None


def build_dataset(spec: DatasetSpec, vocab: Optional[Vocabulary] = None) -> GroundingDataset:
    """Generate a complete dataset from a spec.

    When ``vocab`` is None a fresh vocabulary is built from all generated
    queries; pass a shared vocabulary for cross-dataset experiments so
    token ids line up (Table 2's generalisation rows).
    """
    rng = spawn_rng(f"dataset-{spec.name}-{spec.seed_tag}")
    scene_gen = SceneGenerator(
        height=spec.image_height,
        width=spec.image_width,
        same_type_density=spec.same_type_density,
        distinct_colors=spec.distinct_colors,
        rng=rng,
    )
    expr_gen = ExpressionGenerator(spec.flavor, rng=rng)

    splits: Dict[str, List[GroundingSample]] = {}
    for split, num_scenes in spec.scenes_per_split.items():
        samples: List[GroundingSample] = []
        person_policy = _split_person_policy(spec, split)
        guard = 0
        while len(samples) < num_scenes * spec.queries_per_scene:
            guard += 1
            if guard > num_scenes * 50:
                raise RuntimeError(
                    f"dataset generation stalled for {spec.name}/{split}; "
                    "the grammar cannot uniquely describe enough targets"
                )
            scene = scene_gen.generate(require_person=person_policy, rng=rng)
            image = render_scene(scene, rng=rng)
            produced = _samples_from_scene(
                scene, image, expr_gen, spec, split, person_policy, rng
            )
            samples.extend(produced)
        splits[split] = samples[: num_scenes * spec.queries_per_scene]

    if vocab is None:
        vocab = Vocabulary.from_corpus(
            sample.tokens for samples in splits.values() for sample in samples
        )
    max_len = max(
        len(sample.tokens) for samples in splits.values() for sample in samples
    )
    return GroundingDataset(spec, splits, vocab, max_query_length=max_len)


def _samples_from_scene(
    scene: Scene,
    image: np.ndarray,
    expr_gen: ExpressionGenerator,
    spec: DatasetSpec,
    split: str,
    person_policy: Optional[bool],
    rng: np.random.Generator,
) -> List[GroundingSample]:
    """Draw up to ``queries_per_scene`` uniquely-describable targets."""
    candidates = list(range(len(scene.objects)))
    if person_policy is True:
        candidates = [
            i for i in candidates if scene.objects[i].category == PERSON_CATEGORY
        ]
    rng.shuffle(candidates)
    samples: List[GroundingSample] = []
    for index in candidates:
        if len(samples) >= spec.queries_per_scene:
            break
        target = scene.objects[index]
        query = expr_gen.generate(scene, target, rng=rng)
        if query is None:
            continue
        samples.append(
            GroundingSample(
                image=image,
                query=query,
                tokens=tokenize(query),
                target_box=target.box.copy(),
                target_index=index,
                scene=scene,
                split=split,
            )
        )
    return samples


def dataset_statistics(dataset: GroundingDataset) -> Dict[str, object]:
    """Table-1-style statistics for a built dataset.

    Besides the aggregate counts, reports the query-type mix (scenario
    datasets emit ``multi`` / ``no_target`` / ``weak_pair`` samples in
    addition to the classic ``single``; plain datasets are 100%
    ``single``) and, per split, the expression-length histogram and
    that split's own query-type mix — nested under ``"splits"``.
    """
    samples = dataset.all_samples()
    scenes = {id(s.scene): s.scene for s in samples}
    query_lengths = [len(s.tokens) for s in samples]
    same_type_counts = []
    for sample in samples:
        # Scenario samples without a unique referent (multi/no-target/
        # weak pairs) have no target object to count distractors for.
        if sample.scene is None or sample.target_index < 0:
            continue
        same_type_counts.append(len(sample.scene.same_category(sample.scene.objects[sample.target_index])))
    stats: Dict[str, float] = {
        "images": len(scenes),
        "queries": len(samples),
        "targets": len({(id(s.scene), s.target_index) for s in samples
                        if s.target_index >= 0}),
        "avg_query_length": float(np.mean(query_lengths)),
        "avg_same_type": (float(np.mean(same_type_counts))
                          if same_type_counts else 0.0),
        "vocab_size": len(dataset.vocab),
    }
    stats["query_type_mix"] = _query_type_mix(samples)
    stats["splits"] = {
        split: {
            "queries": len(split_samples),
            "query_type_mix": _query_type_mix(split_samples),
            "query_length_histogram": _length_histogram(split_samples),
            "clause_depth_histogram": _clause_depth_histogram(split_samples),
        }
        for split, split_samples in dataset.splits.items()
    }
    return stats


def _query_type_mix(samples: Sequence[GroundingSample]) -> Dict[str, float]:
    """Fraction of each query type (plain samples count as ``single``)."""
    if not samples:
        return {}
    counts: Dict[str, int] = {}
    for sample in samples:
        kind = getattr(sample, "query_type", "single")
        counts[kind] = counts.get(kind, 0) + 1
    return {kind: count / len(samples)
            for kind, count in sorted(counts.items())}


def _length_histogram(samples: Sequence[GroundingSample]) -> Dict[int, int]:
    """Token-count histogram: expression length -> number of queries."""
    if not samples:
        return {}
    lengths, counts = np.unique(
        [len(s.tokens) for s in samples], return_counts=True)
    return {int(length): int(count)
            for length, count in zip(lengths, counts)}


def _clause_depth_histogram(
    samples: Sequence[GroundingSample],
) -> Dict[int, int]:
    """Parse-depth histogram: relation-chain depth -> number of queries.

    Depth 0 covers bare attribute references (and unparseable queries,
    whose trivial trees have no clauses); depth 1 a single relational
    clause; 2+ nested chains.  Lazy import keeps :mod:`repro.data`
    importable without pulling the parser in for plain datasets.
    """
    if not samples:
        return {}
    from repro.lang import parse

    depths, counts = np.unique(
        [parse(s.query).depth() for s in samples], return_counts=True)
    return {int(depth): int(count)
            for depth, count in zip(depths, counts)}
