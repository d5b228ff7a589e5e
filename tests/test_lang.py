"""Structured query understanding: parser, trees, semantics, lowering."""

import numpy as np
import pytest

from repro.data.scenes import Scene, SceneObject
from repro.lang import (
    UnsupportedRelationError,
    clause_contexts,
    clause_token_masks,
    pad_clause_masks,
    parse,
    resolve_tree,
)
from repro.lang.attention import CLAUSE_ROWS
from repro.scenarios import available_scenarios, get_scenario
from repro.text import tokenize


def _scene(objects):
    scene = Scene(48, 72)
    scene.objects.extend(objects)
    return scene


def _obj(category, color, x1, y1, x2, y2):
    return SceneObject(category=category, color=color,
                       box=np.asarray([x1, y1, x2, y2], dtype=np.float64))


# ----------------------------------------------------------------------
# Parser: grammar families
# ----------------------------------------------------------------------
class TestParserFamilies:
    def test_bare_attribute_reference(self):
        tree = parse("the big red car")
        assert not tree.is_trivial
        entity = tree.entities[tree.targets[0]]
        assert entity.category == "car"
        kinds = {(a.kind, a.value) for a in entity.attributes}
        assert ("size", "big") in kinds and ("color", "red") in kinds
        assert tree.depth() == 0

    def test_relational_clause(self):
        tree = parse("the dog to the left of the red car")
        assert tree.depth() == 1
        clause = tree.clauses[0]
        assert clause.relation == "left of"
        assert tree.entities[clause.target].category == "dog"
        assert tree.entities[clause.anchor].category == "car"

    def test_driving_ego_forms(self):
        tree = parse("the nearest red car to my left past the blue truck")
        assert not tree.is_trivial
        target = tree.entities[tree.targets[0]]
        assert target.category == "car"
        assert target.attribute("ordinal") is not None
        relations = {c.relation for c in tree.clauses_of(tree.targets[0])}
        assert "side:left" in relations and "past" in relations

    def test_crowded_quantified_plural(self):
        tree = parse("all the blue balls")
        entity = tree.entities[tree.targets[0]]
        assert entity.quantified_all and entity.plural
        assert entity.category == "ball"

    def test_nested_relative_clause_depth(self):
        tree = parse(
            "the dog next to the car that is to the left of the lamp")
        assert tree.depth() == 2

    def test_negated_attribute(self):
        tree = parse("the car that is not red")
        entity = tree.entities[tree.targets[0]]
        negated = [a for a in entity.attributes if a.negated]
        assert negated and negated[0].kind == "color"
        assert negated[0].value == "red"

    def test_conjunction_two_targets(self):
        tree = parse("the red car and the blue dog")
        assert len(tree.targets) == 2
        cats = [tree.entities[t].category for t in tree.targets]
        assert cats == ["car", "dog"]

    def test_cross_sentence_anaphora(self):
        tree = parse("there is a red car . the dog next to it")
        assert tree.num_sentences == 2
        pronouns = [e for e in tree.entities if e.pronoun is not None]
        assert pronouns and pronouns[0].antecedent is not None
        antecedent = tree.entities[pronouns[0].antecedent]
        assert antecedent.category == "car"
        # Targets come from the final sentence only.
        assert [tree.entities[t].category for t in tree.targets] == ["dog"]

    def test_person_pronoun_agreement(self):
        tree = parse("a man in a red shirt . the hat he is wearing")
        pronouns = [e for e in tree.entities if e.pronoun == "he"]
        assert pronouns and pronouns[0].antecedent is not None
        assert tree.entities[pronouns[0].antecedent].head == "man"

    def test_possessive_query(self):
        tree = parse("the man's hat")
        assert tree.token_sequence() == ["the", "man", "hat"]

    def test_degenerate_inputs_are_trivial(self):
        assert parse("").is_trivial
        assert parse("???").is_trivial
        assert parse("of of of").is_trivial


# ----------------------------------------------------------------------
# Tree schema invariants
# ----------------------------------------------------------------------
class TestTreeInvariants:
    QUERIES = [
        "the red car",
        "the dog to the left of the red car",
        "the nearest red car to my left past the blue truck",
        "all the blue balls",
        "the dog next to the car that is to the left of the lamp",
        "the car that is not red",
        "the red car and the blue dog",
        "there is a red car . the dog next to it",
        "a man in a red shirt . the hat he is wearing",
        "the man's hat",
        "the second pedestrian on my right",
        "the purple dog",
        "left-most dog",
        "",
    ]

    def test_round_trip(self):
        for query in self.QUERIES:
            tree = parse(query)
            assert tree.token_sequence() == tokenize(query), query

    def test_segments_tile_token_range(self):
        for query in self.QUERIES:
            tree = parse(query)
            position = 0
            for _, (start, end) in tree.segments:
                assert start == position
                assert end >= start
                position = end
            assert position == len(tree.tokens), query

    def test_spans_within_range(self):
        for query in self.QUERIES:
            tree = parse(query)
            for entity in tree.entities:
                start, end = entity.span
                assert 0 <= start <= end <= len(tree.tokens)
            for clause in tree.clauses:
                assert 0 <= clause.target < len(tree.entities)
                if clause.anchor is not None:
                    assert 0 <= clause.anchor < len(tree.entities)

    def test_depth_cycle_guard(self):
        # Self-referential antecedent links must not hang depth().
        tree = parse("there is a red car . the dog next to it")
        assert tree.depth() >= 1


# ----------------------------------------------------------------------
# Clause-mask lowering
# ----------------------------------------------------------------------
class TestClauseMasks:
    def test_single_clause_falls_back(self):
        assert clause_token_masks(parse("the red car"), 24) is None
        assert clause_token_masks(
            parse("the dog to the left of the car"), 24) is None

    def test_trivial_falls_back(self):
        assert clause_token_masks(parse(""), 24) is None
        assert clause_contexts(parse("???")) == []

    def test_multi_clause_produces_rows(self):
        masks = clause_token_masks(
            parse("the nearest red car to my left past the blue truck"), 24)
        assert masks is not None
        assert masks.shape[1] == 24
        assert masks.shape[0] >= 2
        assert set(np.unique(masks)) <= {0.0, 1.0}

    def test_anaphora_contexts(self):
        tree = parse("there is a red car . the dog next to it")
        contexts = clause_contexts(tree)
        assert len(contexts) >= 3  # head + clause + antecedent link
        masks = clause_token_masks(tree, 24)
        assert masks is not None

    def test_truncation_demotes_to_flat(self):
        tree = parse(
            "the dog next to the car that is to the left of the lamp")
        assert clause_token_masks(tree, 24) is not None
        # A 2-token budget empties the nested clause's rows, leaving a
        # single non-empty context: the query falls back to flat tokens.
        assert clause_token_masks(tree, 2) is None

    def test_pad_clause_masks(self):
        rows = [None, np.ones((3, 8)), np.ones((2, 8))]
        batch = pad_clause_masks(rows, 8)
        assert batch.shape == (3, 3, 8)
        assert not batch[0].any()
        assert batch[2, 2].sum() == 0  # short sample zero-padded
        # an all-flat batch keeps the fixed clause count (one plan per
        # batch size), and a longer query widens its batch
        flat = pad_clause_masks([None, None], 8)
        assert flat.shape == (2, CLAUSE_ROWS, 8) and not flat.any()
        wide = pad_clause_masks([None, np.ones((CLAUSE_ROWS + 2, 8))], 8)
        assert wide.shape == (2, CLAUSE_ROWS + 2, 8)
        assert not wide[0].any() and wide[1].all()


# ----------------------------------------------------------------------
# Scene semantics
# ----------------------------------------------------------------------
class TestSemantics:
    def test_attribute_filter(self):
        scene = _scene([_obj("car", "red", 5, 5, 15, 15),
                        _obj("car", "blue", 30, 5, 40, 15),
                        _obj("dog", "red", 50, 30, 60, 40)])
        resolved = resolve_tree(parse("the red car"), scene)
        assert len(resolved) == 1 and resolved[0] is scene.objects[0]

    def test_negated_color(self):
        scene = _scene([_obj("car", "red", 5, 5, 15, 15),
                        _obj("car", "blue", 30, 5, 40, 15)])
        resolved = resolve_tree(parse("the car that is not red"), scene)
        assert len(resolved) == 1 and resolved[0].color == "blue"

    def test_directional_relation(self):
        scene = _scene([_obj("dog", "red", 5, 5, 15, 15),
                        _obj("car", "blue", 40, 5, 50, 15)])
        resolved = resolve_tree(
            parse("the dog to the left of the blue car"), scene)
        assert len(resolved) == 1 and resolved[0].category == "dog"

    def test_anaphora_resolution(self):
        scene = _scene([_obj("car", "red", 40, 5, 50, 15),
                        _obj("dog", "blue", 5, 5, 15, 15)])
        resolved = resolve_tree(
            parse("there is a red car . the dog to the left of it"), scene)
        assert len(resolved) == 1 and resolved[0].category == "dog"

    def test_no_target_resolves_empty(self):
        scene = _scene([_obj("car", "red", 40, 5, 50, 15)])
        resolved = resolve_tree(
            parse("there is a red car . the dog next to it"), scene)
        assert resolved == []

    def test_conjunction_resolves_both(self):
        scene = _scene([_obj("car", "red", 5, 5, 15, 15),
                        _obj("dog", "blue", 40, 5, 50, 15)])
        resolved = resolve_tree(
            parse("the red car and the blue dog"), scene)
        assert len(resolved) == 2

    def test_quantified_plural_ranked_by_area(self):
        scene = _scene([_obj("ball", "blue", 5, 5, 10, 10),
                        _obj("ball", "blue", 20, 5, 40, 25),
                        _obj("ball", "red", 50, 5, 55, 10)])
        resolved = resolve_tree(parse("all the blue balls"), scene)
        assert len(resolved) == 2
        areas = [o.area for o in resolved]
        assert areas == sorted(areas, reverse=True)

    def test_ambiguous_singular_resolves_empty(self):
        scene = _scene([_obj("car", "red", 5, 5, 15, 15),
                        _obj("car", "red", 40, 5, 50, 15)])
        assert resolve_tree(parse("the red car"), scene) == []

    def test_unsupported_relation_raises(self):
        scene = _scene([_obj("person", "red", 5, 5, 15, 15),
                        _obj("chair", "blue", 40, 5, 50, 15)])
        tree = parse("the person holding the blue chair")
        if not tree.is_trivial and tree.clauses:
            with pytest.raises(UnsupportedRelationError):
                resolve_tree(tree, scene)


# ----------------------------------------------------------------------
# Property: every registered scenario parses non-trivially & round-trips
# ----------------------------------------------------------------------
class TestScenarioCoverage:
    @pytest.mark.parametrize("name", ["driving", "crowded", "weak",
                                      "compositional"])
    def test_registered_scenarios_parse(self, name):
        assert name in available_scenarios()
        samples = get_scenario(name).eval_samples(4)
        assert samples
        for sample in samples:
            tree = parse(sample.query)
            assert not tree.is_trivial, sample.query
            assert tree.token_sequence() == tokenize(sample.query), \
                sample.query
