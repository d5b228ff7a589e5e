"""Scenario registry, workload generators, oracle serving, trace mixes."""

import dataclasses
import faulthandler

import numpy as np
import pytest

from repro.core import GroundingResponse, YolloConfig, YolloModel
from repro.core.response import responses_equal
from repro.data.scenes import Scene, SceneObject
from repro.lang import resolve_tree
from repro.runtime import CheckpointManager
from repro.scenarios import (
    DrivingConstraints,
    OracleRankedGrounder,
    UnknownScenarioError,
    answer_table,
    available_scenarios,
    available_trace_mixes,
    build_oracle_grounder,
    build_trace_mix,
    ego_distance,
    ego_side,
    get_scenario,
    get_trace_mix,
    ranked_answer,
    train_weak_model,
)
from repro.serve import FleetConfig, FleetRouter, ReplicaSpec, ServeEngine, run_soak
from repro.serve.cache import image_digest
from repro.text.vocab import Vocabulary
from repro.utils.seeding import spawn_rng


@pytest.fixture(scope="module")
def driving_samples():
    return get_scenario("driving").eval_samples(6)


@pytest.fixture(scope="module")
def crowded_samples():
    return get_scenario("crowded").eval_samples(10)


@pytest.fixture(scope="module")
def weak_splits():
    return get_scenario("weak").build_splits(6)


@pytest.fixture(scope="module")
def compositional_samples():
    return get_scenario("compositional").eval_samples(8)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_three_scenarios_registered(self):
        assert set(available_scenarios()) >= {
            "driving", "crowded", "weak", "compositional"}

    def test_trace_mixes_registered(self):
        assert set(available_trace_mixes()) >= {
            "driving", "crowded", "weak", "mixed", "compositional"}
        # Compositional is its own mix; "mixed" keeps its original blend.
        assert set(get_trace_mix("mixed").weights) == {
            "driving", "crowded", "weak"}
        assert set(get_trace_mix("compositional").weights) == {
            "compositional"}

    def test_unknown_scenario_lists_registry(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_scenario("nope")
        message = str(excinfo.value)
        assert "'nope'" in message
        for name in available_scenarios():
            assert name in message

    def test_unknown_trace_mix_lists_registry(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_trace_mix("nope")
        assert "mixed" in str(excinfo.value)

    def test_unknown_error_is_a_key_error(self):
        # Callers that catch KeyError (dict-style lookups) keep working.
        with pytest.raises(KeyError):
            get_scenario("nope")


# ----------------------------------------------------------------------
# Determinism: same seed -> bit-identical workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["driving", "crowded", "weak",
                                  "compositional"])
def test_scenario_builds_are_bit_identical(name):
    scenario = get_scenario(name)
    first = scenario.build_splits(3)
    second = scenario.build_splits(3)
    assert set(first) == set(second)
    for split in first:
        assert len(first[split]) == len(second[split])
        for a, b in zip(first[split], second[split]):
            assert a.query == b.query
            assert a.query_type == b.query_type
            assert a.scenario == name
            assert a.image.tobytes() == b.image.tobytes()
            assert np.asarray(a.all_target_boxes).tobytes() == \
                np.asarray(b.all_target_boxes).tobytes()
            assert a.target_index == b.target_index


# ----------------------------------------------------------------------
# Driving scenario
# ----------------------------------------------------------------------
class TestDriving:
    def test_ego_geometry(self):
        scene = Scene(height=64, width=64, objects=[
            SceneObject("car", "red", np.array([2.0, 2.0, 12.0, 8.0])),
            SceneObject("car", "blue", np.array([50.0, 50.0, 60.0, 56.0])),
        ])
        left, right = scene.objects
        assert ego_side(left, scene) == "left"
        assert ego_side(right, scene) == "right"
        assert ego_distance(right, scene) < ego_distance(left, scene)
        centred = SceneObject("cone", "red", np.array([30.0, 0.0, 34.0, 4.0]))
        assert ego_side(centred, scene) is None

    def test_resolve_ordinal_by_ego_distance(self):
        # Three cars stacked in depth on the right; "second" must pick
        # the middle one, and an out-of-range ordinal resolves to [].
        scene = Scene(height=64, width=64, objects=[
            SceneObject("car", "red", np.array([40.0, 50.0, 50.0, 58.0])),
            SceneObject("car", "blue", np.array([40.0, 30.0, 50.0, 38.0])),
            SceneObject("car", "green", np.array([40.0, 6.0, 50.0, 14.0])),
        ])
        second = resolve_tree(
            DrivingConstraints(category="car", ordinal=2).tree(), scene)
        assert [o.color for o in second] == ["blue"]
        assert resolve_tree(
            DrivingConstraints(category="car", ordinal=4).tree(), scene) == []

    def test_resolve_relation_needs_unique_anchor(self):
        scene = Scene(height=64, width=64, objects=[
            SceneObject("car", "red", np.array([10.0, 40.0, 20.0, 48.0])),
            SceneObject("truck", "blue", np.array([40.0, 30.0, 54.0, 40.0])),
            SceneObject("car", "green", np.array([10.0, 6.0, 20.0, 14.0])),
        ])
        past_truck = DrivingConstraints(
            category="car", relation="past", anchor_category="truck").tree()
        past = resolve_tree(past_truck, scene)
        assert [o.color for o in past] == ["green"]
        # Two trucks -> ambiguous anchor -> no referent.
        scene.objects.append(
            SceneObject("truck", "blue", np.array([2.0, 2.0, 16.0, 12.0])))
        assert resolve_tree(past_truck, scene) == []

    def test_ordinal_applies_after_side(self):
        # "the nearest car to my right": nearest among the right-side
        # cars, even though a left-side car is nearer overall.
        scene = Scene(height=64, width=64, objects=[
            SceneObject("car", "red", np.array([10.0, 50.0, 20.0, 58.0])),
            SceneObject("car", "blue", np.array([44.0, 30.0, 54.0, 38.0])),
            SceneObject("car", "green", np.array([44.0, 6.0, 54.0, 14.0])),
        ])
        nearest_right = DrivingConstraints(
            category="car", side="right", ordinal=1).tree()
        assert [o.color for o in resolve_tree(nearest_right, scene)] == \
            ["blue"]

    def test_eval_samples_are_verified_single_referents(self, driving_samples):
        assert len(driving_samples) == 12  # two per scene
        for sample in driving_samples:
            assert sample.query_type == "single"
            assert sample.scenario == "driving"
            assert sample.all_target_boxes.shape == (1, 4)
            assert np.array_equal(sample.all_target_boxes[0],
                                  sample.target_box)
            target = sample.scene.objects[sample.target_index]
            assert np.array_equal(target.box, sample.target_box)
            assert sample.query.startswith("the ")

    def test_driving_categories_render(self, driving_samples):
        # Scenes contain the new driving glyphs and render non-blank.
        categories = {o.category for s in driving_samples
                      for o in s.scene.objects}
        assert categories <= {"car", "truck", "person", "cone"}
        assert any(s.image.std() > 0 for s in driving_samples)


# ----------------------------------------------------------------------
# Crowded scenario
# ----------------------------------------------------------------------
class TestCrowded:
    def test_emits_all_three_query_types(self, crowded_samples):
        kinds = {s.query_type for s in crowded_samples}
        assert kinds == {"single", "multi", "no_target"}

    def test_scenes_are_dense(self, crowded_samples):
        for sample in crowded_samples:
            assert len(sample.scene.objects) >= 8

    def test_no_target_queries_are_verified_absent(self, crowded_samples):
        absent = [s for s in crowded_samples if s.is_no_target]
        assert absent
        for sample in absent:
            assert sample.all_target_boxes.shape == (0, 4)
            assert sample.target_index == -1
            # The queried (color, category) pair must truly be absent.
            words = sample.query.split()
            color, category = words[-2], words[-1]
            assert not any(o.category == category and o.color == color
                           for o in sample.scene.objects)

    def test_multi_queries_rank_all_referents_by_area(self, crowded_samples):
        multi = [s for s in crowded_samples if s.query_type == "multi"]
        assert multi
        for sample in multi:
            boxes = sample.all_target_boxes
            assert len(boxes) >= 2
            areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
            assert np.all(np.diff(areas) <= 1e-9)  # non-increasing
            assert np.array_equal(sample.target_box, boxes[0])


# ----------------------------------------------------------------------
# Compositional scenario
# ----------------------------------------------------------------------
class TestCompositional:
    def test_emits_all_three_query_types(self, compositional_samples):
        kinds = {s.query_type for s in compositional_samples}
        assert kinds == {"single", "multi", "no_target"}
        assert all(s.scenario == "compositional"
                   for s in compositional_samples)

    def test_every_query_parses_non_trivially(self, compositional_samples):
        from repro.lang import parse

        for sample in compositional_samples:
            tree = parse(sample.query)
            assert not tree.is_trivial, sample.query

    def test_resolution_matches_oracle_boxes(self, compositional_samples):
        from repro.lang import parse, resolve_tree

        for sample in compositional_samples:
            resolved = resolve_tree(parse(sample.query), sample.scene)
            assert len(resolved) == len(sample.all_target_boxes), \
                sample.query
            for obj, box in zip(resolved, sample.all_target_boxes):
                assert np.allclose(obj.box, box)

    def test_interpreter_errors_propagate(self, monkeypatch):
        # Only UnsupportedRelationError rejects a candidate; any other
        # interpreter failure must stop generation, not drop queries.
        from repro.scenarios import compositional

        def broken(tree, scene):
            raise RuntimeError("interpreter bug")

        monkeypatch.setattr(compositional, "resolve_tree", broken)
        scene = Scene(48, 72, [
            SceneObject("car", "red", np.array([2.0, 2.0, 12.0, 8.0]))])
        with pytest.raises(RuntimeError, match="interpreter bug"):
            compositional._verified("the red car", scene, 1)

    def test_unsupported_relations_are_rejected(self):
        from repro.scenarios import compositional

        scene = Scene(48, 72, [
            SceneObject("person", "red", np.array([2.0, 2.0, 12.0, 20.0])),
            SceneObject("car", "red", np.array([30.0, 2.0, 42.0, 10.0]))])
        # "behind" parses, but the scene model has no depth for it.
        assert compositional._verified(
            "the person behind the red car", scene, 1) is None

    def test_no_target_queries_use_anaphora(self, compositional_samples):
        from repro.lang import parse

        absent = [s for s in compositional_samples if s.is_no_target]
        assert absent
        for sample in absent:
            tree = parse(sample.query)
            assert tree.num_sentences >= 2
            assert any(e.pronoun is not None and e.antecedent is not None
                       for e in tree.entities), sample.query
            assert sample.all_target_boxes.shape == (0, 4)
            assert sample.target_index == -1

    def test_nesting_reaches_depth_two(self, compositional_samples):
        from repro.lang import parse

        depths = {parse(s.query).depth() for s in compositional_samples}
        assert max(depths) >= 2

    def test_single_targets_are_consistent(self, compositional_samples):
        singles = [s for s in compositional_samples
                   if s.query_type == "single"]
        assert singles
        for sample in singles:
            target = sample.scene.objects[sample.target_index]
            assert np.array_equal(target.box, sample.target_box)


# ----------------------------------------------------------------------
# Oracle answers and the ranked-response protocol
# ----------------------------------------------------------------------
class TestOracle:
    def test_ranked_answer_shapes(self, crowded_samples):
        for sample in crowded_samples:
            boxes, scores, not_found = ranked_answer(sample)
            assert len(boxes) == len(scores)
            assert not_found == sample.is_no_target
            if len(scores):
                assert scores[0] == 1.0
                assert np.all(np.diff(scores) <= 0)

    def test_oracle_serves_answer_table(self, crowded_samples):
        grounder = OracleRankedGrounder(
            answer_table(crowded_samples), latency=0.0, version=3.0)
        responses = grounder(crowded_samples[:4])
        for sample, response in zip(crowded_samples[:4], responses):
            assert isinstance(response, GroundingResponse)
            assert response.not_found == sample.is_no_target
            assert response.version == 3.0
            if not response.not_found:
                assert np.allclose(response.boxes,
                                   sample.all_target_boxes)

    def test_oracle_unknown_query_answers_not_found(self):
        grounder = OracleRankedGrounder({}, latency=0.0)
        sample = type("S", (), {"image": np.zeros((3, 4, 4)),
                                "query": "the missing thing"})()
        (response,) = grounder([sample])
        assert response.not_found and len(response) == 0

    def test_oracle_reload_roundtrip(self):
        grounder = build_oracle_grounder({}, latency=0.0, version=1.0)
        state = grounder.state_dict()
        state["version"] = np.array([2.0])
        grounder.load_state_dict(state)
        assert grounder.version == 2.0
        sample = type("S", (), {"image": np.zeros((3, 4, 4)),
                                "query": "q"})()
        (response,) = grounder([sample])
        assert response.version == 2.0


class TestEngineRankedProtocol:
    """The serving engine must cache ranked responses by value."""

    def test_cache_hit_replays_byte_identical_response(self, crowded_samples):
        sample = next(s for s in crowded_samples if not s.is_no_target)
        grounder = OracleRankedGrounder(
            answer_table(crowded_samples), latency=0.0)
        with ServeEngine(grounder, max_batch=2) as engine:
            first = engine.ground(sample.image, sample.query)
            second = engine.ground(sample.image, sample.query)
            assert isinstance(first, GroundingResponse)
            assert responses_equal(first, second)
            # Mutating a served response must not corrupt the cache.
            first.boxes[:] = -1.0
            first.scores[:] = 0.0
            third = engine.ground(sample.image, sample.query)
            assert responses_equal(second, third)
            assert engine.stats().cache_hits >= 2

    def test_no_target_decision_survives_the_cache(self, crowded_samples):
        sample = next(s for s in crowded_samples if s.is_no_target)
        grounder = OracleRankedGrounder(
            answer_table(crowded_samples), latency=0.0)
        with ServeEngine(grounder, max_batch=2) as engine:
            for _ in range(2):
                response = engine.ground(sample.image, sample.query)
                assert response.not_found and len(response) == 0


class TestPredictRanked:
    def test_model_emits_ranked_responses(self):
        from repro.utils import seed_everything

        seed_everything(23)
        vocab = Vocabulary.from_corpus([["the", "red", "car"]])
        cfg = YolloConfig(
            backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16,
            head_hidden=16, num_rel2att=2, max_query_length=4,
        )
        model = YolloModel(cfg, vocab_size=len(vocab)).eval()
        rng = spawn_rng("predict-ranked-test")
        images = rng.random(
            (2, 3, cfg.image_height, cfg.image_width))
        ids, mask = vocab.encode(["the", "red", "car"], 4)
        token_ids = np.stack([ids, ids])
        token_mask = np.stack([mask, mask])

        responses = model.predict_ranked(
            images, token_ids, token_mask, top_k=3)
        assert len(responses) == 2
        for response in responses:
            assert isinstance(response, GroundingResponse)
            assert 1 <= len(response) <= 3
            assert np.all(np.diff(response.scores) <= 1e-12)
            assert np.all(response.boxes[:, 0] <= response.boxes[:, 2])
            assert np.all(response.boxes[:, [0, 2]] <= cfg.image_width)
            assert np.all(response.boxes[:, [1, 3]] <= cfg.image_height)
            assert not response.not_found

        # An unclearable threshold forces the explicit absent decision.
        strict = model.predict_ranked(
            images, token_ids, token_mask, top_k=3,
            not_found_threshold=1.1)
        assert all(r.not_found for r in strict)

        with pytest.raises(ValueError):
            model.predict_ranked(images, token_ids, token_mask, top_k=0)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_top1_response_is_the_predict_box(self, compiled):
        """The ``top_k=1`` response serving ships is the paper's answer:
        byte for byte the argmax box ``predict`` decodes."""
        from repro.data import REFCOCO, build_dataset, encode_batch
        from repro.utils import seed_everything

        seed_everything(31)
        dataset = build_dataset(REFCOCO.scaled(0.05))
        cfg = YolloConfig(
            backbone="tiny", d_model=12, d_rel=16, ffn_hidden=16,
            head_hidden=16, num_rel2att=2,
            max_query_length=max(6, dataset.max_query_length),
        )
        model = YolloModel(cfg, vocab_size=len(dataset.vocab)).eval()
        if compiled:
            model.compile()
        batch = encode_batch(dataset["val"], dataset.vocab,
                             cfg.max_query_length)
        arrays = (batch["images"], batch["token_ids"], batch["token_mask"])
        predictions = model.predict(*arrays)
        responses = model.predict_ranked(*arrays, top_k=1)
        assert len(responses) == len(predictions) > 1
        for prediction, response in zip(predictions, responses):
            assert len(response) == 1
            assert response.top_box.tobytes() == prediction.box.tobytes()


# ----------------------------------------------------------------------
# Weak scenario
# ----------------------------------------------------------------------
class TestWeak:
    def test_train_split_carries_no_box_supervision(self, weak_splits):
        assert len(weak_splits["train"]) == 12
        for sample in weak_splits["train"]:
            assert sample.query_type == "weak_pair"
            assert sample.target_index == -1
            assert np.array_equal(sample.target_box, np.zeros(4))
            assert sample.all_target_boxes.shape == (0, 4)

    def test_training_rejects_box_supervised_samples(
            self, weak_splits, driving_samples):
        vocab = Vocabulary.from_corpus(
            [s.tokens for s in weak_splits["train"]])
        with pytest.raises(ValueError, match="image-level pairs only"):
            train_weak_model(list(driving_samples[:4]), vocab, steps=1)

    def test_contrastive_training_reduces_loss(self, weak_splits):
        train = weak_splits["train"]
        vocab = Vocabulary.from_corpus([s.tokens for s in train])
        result = train_weak_model(
            train, vocab, steps=15, rng=spawn_rng("weak-test-train"))
        losses = result["losses"]
        assert len(losses) == 15
        assert losses[-1] < losses[0]

    def test_pointing_accuracy_bounds(self, weak_splits):
        from repro.scenarios import pointing_accuracy

        train, eval_split = weak_splits["train"], weak_splits["eval"]
        vocab = Vocabulary.from_corpus(
            [s.tokens for s in train + eval_split])
        result = train_weak_model(
            train, vocab, steps=5, rng=spawn_rng("weak-test-point"))
        accuracy = pointing_accuracy(
            result["model"], eval_split, vocab, result["max_length"])
        assert 0.0 <= accuracy <= 1.0


# ----------------------------------------------------------------------
# Trace mixes
# ----------------------------------------------------------------------
class TestTraceMix:
    def test_mixed_trace_tags_and_answers(self):
        trace, answers = build_trace_mix(
            "mixed", num_requests=60, rate_qps=500.0,
            scenes_per_scenario=3, rng=spawn_rng("trace-test"))
        assert len(trace) == 60
        arrivals = [t.arrival for t in trace]
        assert arrivals == sorted(arrivals)
        assert {t.scenario for t in trace} <= {"driving", "crowded", "weak"}
        absent = [t for t in trace if t.expect_not_found]
        for request in trace:
            key = (image_digest(request.image), request.query)
            assert key in answers
            _, _, not_found = answers[key]
            assert not_found == request.expect_not_found
        assert absent, "a 60-request mixed trace should include no-target"

    def test_trace_is_deterministic(self):
        first, _ = build_trace_mix("crowded", num_requests=20, rate_qps=100.0,
                                   scenes_per_scenario=2)
        second, _ = build_trace_mix("crowded", num_requests=20, rate_qps=100.0,
                                    scenes_per_scenario=2)
        for a, b in zip(first, second):
            assert a.query == b.query and a.arrival == b.arrival
            assert a.scenario == b.scenario
            assert a.expect_not_found == b.expect_not_found

    def test_invalid_arguments_rejected(self):
        with pytest.raises(UnknownScenarioError):
            build_trace_mix("nope", num_requests=5, rate_qps=10.0)
        with pytest.raises(ValueError):
            build_trace_mix("mixed", num_requests=5, rate_qps=0.0)
        with pytest.raises(ValueError):
            build_trace_mix("mixed", num_requests=5, rate_qps=10.0,
                            repeat_fraction=1.5)


# ----------------------------------------------------------------------
# Fleet soak over a mixed trace (multi-process)
# ----------------------------------------------------------------------
@pytest.mark.dist
class TestFleetMixedSoak:
    @pytest.fixture(autouse=True)
    def _watchdog(self):
        faulthandler.dump_traceback_later(120.0, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    def test_soak_with_reload_keeps_no_target_correctness(self, tmp_path):
        trace, answers = build_trace_mix(
            "mixed", num_requests=40, rate_qps=200.0,
            scenes_per_scenario=3)
        spec = ReplicaSpec(
            builder=build_oracle_grounder,
            builder_kwargs={"answers": answers, "latency": 0.001},
            max_batch=8, cache_size=32)
        config = FleetConfig(replicas=2, max_queue=128,
                             default_deadline=30.0, router_cache=128)
        checkpoint = CheckpointManager(str(tmp_path)).save(
            {"version": np.array([2.0]), "bias": np.array([1.0])}, 1)

        with FleetRouter(spec, config) as router:
            assert router.wait_healthy(60.0)
            report = run_soak(
                router, trace, reload_at=20,
                reload_checkpoint=checkpoint,
                post_reload_check=lambda r: r.version == 2.0)
            router.wait_healthy(15.0)
            report = dataclasses.replace(report, stats=router.stats())

        assert report.lost == 0
        assert report.false_found == 0
        assert report.stale_served == 0
        assert report.no_target_requests == \
            sum(t.expect_not_found for t in trace)
        assert set(report.scenario_latency) <= {"driving", "crowded", "weak"}
        assert report.check(expected_replicas=2) == []
        rendered = report.render()
        assert "no-target" in rendered
