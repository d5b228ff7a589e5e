"""Dataset assembly and batching."""

import numpy as np
import pytest

from repro.data import (
    REFCOCO,
    REFCOCOG,
    build_dataset,
    dataset_statistics,
    encode_batch,
    PERSON_CATEGORY,
)
from repro.text import Vocabulary


@pytest.fixture(scope="module")
def small_refcoco():
    return build_dataset(REFCOCO.scaled(0.06))


class TestBuildDataset:
    def test_split_sizes(self, small_refcoco):
        spec = small_refcoco.spec
        for split, scenes in spec.scenes_per_split.items():
            assert len(small_refcoco[split]) == scenes * spec.queries_per_scene

    def test_refcocog_has_no_test_splits(self):
        ds = build_dataset(REFCOCOG.scaled(0.04))
        assert set(ds.split_names()) == {"train", "val"}

    def test_testA_targets_are_persons(self, small_refcoco):
        for sample in small_refcoco["testA"]:
            target = sample.scene.objects[sample.target_index]
            assert target.category == PERSON_CATEGORY

    def test_testB_has_no_persons(self, small_refcoco):
        for sample in small_refcoco["testB"]:
            assert not sample.scene.contains_person()

    def test_target_box_matches_scene_object(self, small_refcoco):
        for sample in small_refcoco["val"]:
            expected = sample.scene.objects[sample.target_index].box
            assert np.allclose(sample.target_box, expected)

    def test_images_match_spec_size(self, small_refcoco):
        sample = small_refcoco["train"][0]
        spec = small_refcoco.spec
        assert sample.image.shape == (3, spec.image_height, spec.image_width)

    def test_deterministic_given_seed(self):
        a = build_dataset(REFCOCO.scaled(0.03))
        b = build_dataset(REFCOCO.scaled(0.03))
        assert a["val"][0].query == b["val"][0].query
        assert np.allclose(a["val"][0].target_box, b["val"][0].target_box)

    def test_external_vocab_used(self):
        vocab = Vocabulary(["external"])
        ds = build_dataset(REFCOCO.scaled(0.03), vocab=vocab)
        assert ds.vocab is vocab

    def test_statistics_fields(self, small_refcoco):
        stats = dataset_statistics(small_refcoco)
        assert stats["queries"] == small_refcoco.num_samples()
        assert stats["avg_query_length"] > 1.0
        assert stats["avg_same_type"] >= 1.0

    def test_statistics_query_type_mix_plain_dataset(self, small_refcoco):
        stats = dataset_statistics(small_refcoco)
        # A classic dataset is 100% single-referent queries.
        assert stats["query_type_mix"] == {"single": 1.0}
        for split, info in stats["splits"].items():
            assert info["queries"] == len(small_refcoco[split])
            assert info["query_type_mix"] == {"single": 1.0}

    def test_statistics_length_histogram(self, small_refcoco):
        stats = dataset_statistics(small_refcoco)
        for split, info in stats["splits"].items():
            histogram = info["query_length_histogram"]
            assert sum(histogram.values()) == len(small_refcoco[split])
            lengths = sorted({len(s.tokens) for s in small_refcoco[split]})
            assert sorted(histogram) == lengths
            assert all(count > 0 for count in histogram.values())

    def test_statistics_scenario_mix_sums_to_one(self):
        from repro.experiments import ExperimentContext, get_preset

        context = ExperimentContext(preset=get_preset("smoke"))
        stats = dataset_statistics(context.scenario_dataset("crowded"))
        mix = stats["query_type_mix"]
        assert set(mix) <= {"single", "multi", "no_target"}
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix.get("no_target", 0.0) > 0.0
        # Multi/no-target samples carry no unique referent, so the
        # same-type density falls back to the single-referent subset.
        assert stats["targets"] <= stats["queries"]

    def test_statistics_clause_depth_histogram(self, small_refcoco):
        stats = dataset_statistics(small_refcoco)
        for split, info in stats["splits"].items():
            histogram = info["clause_depth_histogram"]
            assert sum(histogram.values()) == len(small_refcoco[split])
            assert all(depth >= 0 for depth in histogram)

    def test_statistics_compositional_depths_spread(self):
        from repro.experiments import ExperimentContext, get_preset

        context = ExperimentContext(preset=get_preset("smoke"))
        stats = dataset_statistics(
            context.scenario_dataset("compositional"))
        histogram = stats["splits"]["eval"]["clause_depth_histogram"]
        # Nested relative clauses must show up beyond depth one.
        assert max(histogram) >= 2

    def test_scaled_keeps_minimum(self):
        spec = REFCOCO.scaled(0.0001)
        assert min(spec.scenes_per_split.values()) >= 2


class TestBatching:
    def test_encode_batch_shapes(self, small_refcoco):
        samples = small_refcoco["train"][:4]
        batch = encode_batch(samples, small_refcoco.vocab, max_query_length=7)
        assert batch["images"].shape[0] == 4
        assert batch["token_ids"].shape == (4, 7)
        assert batch["token_mask"].shape == (4, 7)
        assert batch["target_boxes"].shape == (4, 4)

    def test_encode_batch_keeps_sample_order(self, small_refcoco):
        samples = small_refcoco["train"][:5]
        batch = encode_batch(samples, small_refcoco.vocab, max_query_length=7)
        assert np.array_equal(batch["images"], np.stack([s.image for s in samples]))
        assert np.array_equal(batch["target_boxes"],
                              np.stack([s.target_box for s in samples]))
