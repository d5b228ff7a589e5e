"""Referring-expression grammar: semantics and verified uniqueness."""

import numpy as np
import pytest

from repro.data import ExpressionGenerator, Scene, SceneObject
from repro.data.expressions import (
    Constraints,
    LOCATION_WORDS,
    choose_reference,
    describe_location,
    describe_size,
    relation_between,
)
from repro.data.scenes import SceneGenerator
from repro.lang import resolve_tree
from repro.text import tokenize


def obj(category, color, box):
    return SceneObject(category=category, color=color, box=np.asarray(box, dtype=float))


@pytest.fixture
def two_dogs():
    return Scene(48, 72, [
        obj("dog", "red", (2, 20, 14, 30)),    # left
        obj("dog", "blue", (50, 20, 62, 30)),  # right
    ])


class TestDescriptors:
    def test_location_extremes(self, two_dogs):
        group = two_dogs.objects
        assert describe_location(group[0], group) == "left"
        assert describe_location(group[1], group) == "right"

    def test_location_none_for_singleton(self, two_dogs):
        assert describe_location(two_dogs.objects[0], [two_dogs.objects[0]]) is None

    def test_size_extremes(self):
        big = obj("dog", "red", (0, 0, 20, 20))
        small = obj("dog", "red", (30, 30, 36, 36))
        assert describe_size(big, [big, small]) == "big"
        assert describe_size(small, [big, small]) == "small"

    def test_size_none_when_similar(self):
        a = obj("dog", "red", (0, 0, 10, 10))
        b = obj("dog", "red", (20, 20, 30, 30))
        assert describe_size(a, [a, b]) is None

    def test_relation_directions(self):
        anchor = obj("car", "red", (30, 20, 40, 30))
        left = obj("dog", "red", (2, 20, 12, 30))
        above = obj("dog", "red", (30, 0, 40, 8))
        assert relation_between(left, anchor) == "left of"
        assert relation_between(above, anchor) == "above"

    def test_relation_next_to(self):
        anchor = obj("car", "red", (30, 20, 40, 30))
        close = obj("dog", "red", (32, 22, 42, 32))
        assert relation_between(close, anchor) == "next to"


def resolve(constraints, scene, plural=False):
    """``resolve_tree`` over the lowered candidate (optionally plural)."""
    tree = constraints.tree()
    tree.entities[0].plural = plural
    return resolve_tree(tree, scene)


class TestConstraints:
    def test_category_filter(self, two_dogs):
        assert len(resolve(Constraints(category="dog"), two_dogs,
                           plural=True)) == 2
        # Singular "the dog" among two dogs is ambiguous.
        assert resolve(Constraints(category="dog"), two_dogs) == []
        assert resolve(Constraints(category="car"), two_dogs) == []

    def test_color_filter(self, two_dogs):
        out = resolve(Constraints(category="dog", color="red"), two_dogs)
        assert len(out) == 1 and out[0].color == "red"

    def test_location_selector(self, two_dogs):
        out = resolve(Constraints(category="dog", location="left"), two_dogs)
        assert out == [two_dogs.objects[0]]

    def test_size_selector(self):
        scene = Scene(48, 72, [
            obj("dog", "red", (0, 0, 20, 20)),
            obj("dog", "blue", (30, 30, 36, 36)),
        ])
        out = resolve(Constraints(category="dog", size="big"), scene)
        assert out == [scene.objects[0]]

    def test_ambiguous_size_resolves_empty(self):
        scene = Scene(48, 72, [
            obj("dog", "red", (0, 0, 10, 10)),
            obj("dog", "blue", (20, 20, 30, 30)),
        ])
        assert resolve(Constraints(category="dog", size="big"), scene) == []

    def test_relation_requires_unique_anchor(self):
        scene = Scene(48, 72, [
            obj("dog", "red", (2, 20, 12, 30)),
            obj("car", "red", (30, 20, 40, 30)),
            obj("car", "red", (50, 20, 60, 30)),
        ])
        c = Constraints(category="dog", relation="left of",
                        anchor_category="car", anchor_color="red")
        assert resolve(c, scene) == []

    def test_colour_applies_before_size(self):
        # "big blue dog": the biggest blue dog, not the biggest dog.
        from repro.lang import parse

        scene = Scene(48, 72, [
            obj("dog", "red", (0, 0, 30, 30)),
            obj("dog", "blue", (40, 0, 56, 16)),
            obj("dog", "blue", (40, 30, 46, 36)),
        ])
        assert resolve_tree(parse("big blue dog"), scene) == [scene.objects[1]]

    def test_lowered_tree_matches_parse(self):
        from repro.lang import parse

        c = Constraints(category="dog", color="red", relation="left of",
                        anchor_category="car", anchor_color="blue")
        lowered, parsed = c.tree(), parse("the red dog to the left of the blue car")
        assert [(e.category, e.attributes) for e in lowered.entities] == \
            [(e.category, e.attributes) for e in parsed.entities]
        assert [(k.relation, k.target, k.anchor) for k in lowered.clauses] == \
            [(k.relation, k.target, k.anchor) for k in parsed.clauses]
        assert lowered.targets == parsed.targets


class TestGenerators:
    def test_flavor_validation(self):
        with pytest.raises(ValueError):
            ExpressionGenerator("bogus")

    @pytest.mark.parametrize("flavor", ["refcoco", "refcoco+", "refcocog"])
    def test_generated_expressions_are_unique_references(self, flavor):
        rng = np.random.default_rng(0)
        gen = SceneGenerator(distinct_colors=True, rng=rng)
        expr = ExpressionGenerator(flavor, rng=rng)
        checked = 0
        for _ in range(12):
            scene = gen.generate(rng=rng)
            for target in scene.objects:
                query = expr.generate(scene, target, rng=rng)
                if query is None:
                    continue
                checked += 1
                constraints = choose_reference(
                    scene, target,
                    expr._candidate_constraints(scene, target, rng), rng)
                resolved = resolve_tree(constraints.tree(), scene)
                assert len(resolved) == 1 and resolved[0] is target
        assert checked > 10

    def test_refcoco_plus_never_uses_location_words(self):
        rng = np.random.default_rng(1)
        gen = SceneGenerator(distinct_colors=True, rng=rng)
        expr = ExpressionGenerator("refcoco+", rng=rng)
        for _ in range(15):
            scene = gen.generate(rng=rng)
            for target in scene.objects:
                query = expr.generate(scene, target, rng=rng)
                if query:
                    assert not set(tokenize(query)) & set(LOCATION_WORDS), query

    def test_refcocog_sentences_are_long(self):
        rng = np.random.default_rng(2)
        gen = SceneGenerator(same_type_density=1.6, rng=rng)
        expr = ExpressionGenerator("refcocog", rng=rng)
        lengths = []
        for _ in range(10):
            scene = gen.generate(rng=rng)
            for target in scene.objects:
                query = expr.generate(scene, target, rng=rng)
                if query:
                    lengths.append(len(tokenize(query)))
        assert np.mean(lengths) > 4.0

    def test_query_mentions_target_category(self):
        rng = np.random.default_rng(3)
        gen = SceneGenerator(rng=rng)
        expr = ExpressionGenerator("refcoco", rng=rng)
        scene = gen.generate(rng=rng)
        target = scene.objects[0]
        query = expr.generate(scene, target, rng=rng)
        if query is not None:
            assert target.category in tokenize(query)
