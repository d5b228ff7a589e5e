"""Experiment harness: presets, context caching, utils (smoke scale)."""

import os

import numpy as np
import pytest

from repro.experiments import ExperimentContext, PRESETS, get_preset
from repro.experiments.context import DATASET_NAMES


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"smoke", "bench", "full"}

    def test_get_preset_by_name(self):
        assert get_preset("smoke").name == "smoke"

    def test_get_preset_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRESET", "full")
        assert get_preset().name == "full"

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            get_preset("gigantic")

    def test_budgets_ordered(self):
        assert PRESETS["smoke"].train_scenes < PRESETS["bench"].train_scenes
        assert PRESETS["bench"].train_scenes < PRESETS["full"].train_scenes


@pytest.fixture(scope="module")
def context(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("exp-cache"))
    return ExperimentContext(preset=get_preset("smoke"), cache_dir=cache, verbose=False)


class TestContext:
    def test_dataset_names(self, context):
        assert set(DATASET_NAMES) == {"RefCOCO", "RefCOCO+", "RefCOCOg"}

    def test_dataset_cached(self, context):
        assert context.dataset("RefCOCO") is context.dataset("RefCOCO")

    def test_shared_vocab_applied_everywhere(self, context):
        vocab = context.shared_vocab()
        for name in DATASET_NAMES:
            assert context.dataset(name).vocab is vocab

    def test_max_query_length_covers_all(self, context):
        max_len = context.max_query_length()
        for name in DATASET_NAMES:
            assert context.dataset(name).max_query_length <= max_len

    def test_word2vec_matrix_cached(self, context):
        a = context.word2vec_matrix()
        b = context.word2vec_matrix()
        assert a is b
        assert a.shape[0] == len(context.shared_vocab())

    def test_eval_splits(self, context):
        assert context.eval_splits("RefCOCO") == ["val", "testA", "testB"]
        assert context.eval_splits("RefCOCOg") == ["val"]

    def test_yollo_trained_once_and_cached(self, context):
        model_a, _, curve = context.yollo("RefCOCO")
        model_b, _, _ = context.yollo("RefCOCO")
        assert model_a is model_b
        assert curve.label == "RefCOCO"
        cached = [f for f in os.listdir(context.cache_dir) if f.startswith("yollo-RefCOCO-main")]
        assert cached

    def test_yollo_reloads_from_disk(self, context):
        model_a, _, _ = context.yollo("RefCOCO")
        context._yollo.clear()
        model_b, _, _ = context.yollo("RefCOCO")
        params_a = dict(model_a.named_parameters())
        params_b = dict(model_b.named_parameters())
        assert all(np.allclose(params_a[k].data, params_b[k].data) for k in params_a)

    def test_evaluate_cached_to_json(self, context):
        _, grounder, _ = context.yollo("RefCOCO")
        first = context.evaluate(grounder, "yollo-RefCOCO", "RefCOCO", "val")
        second = context.evaluate(grounder, "yollo-RefCOCO", "RefCOCO", "val")
        assert first.acc_at_50 == second.acc_at_50
        path = os.path.join(context.cache_dir, "eval-yollo-RefCOCO-RefCOCO-val.json")
        assert os.path.exists(path)

    def test_baseline_builds(self, context):
        grounder = context.baseline("listener", "RefCOCO")
        responses = grounder(context.dataset("RefCOCO")["val"][:2])
        assert [r.boxes.shape for r in responses] == [(1, 4), (1, 4)]

    def test_scenario_dataset_cached_and_named(self, context):
        dataset = context.scenario_dataset("crowded")
        assert dataset is context.scenario_dataset("crowded")
        assert dataset.spec.name == "scenario:crowded"
        assert len(dataset["eval"]) > 0

    def test_scenario_dataset_unknown_name(self, context):
        from repro.scenarios import UnknownScenarioError

        with pytest.raises(UnknownScenarioError):
            context.scenario_dataset("nope")


class TestScenarioTables:
    def test_table1b_lists_every_scenario(self, context):
        from repro.experiments import table1
        from repro.scenarios import available_scenarios

        report = table1.run(context)
        assert "Table 1b" in report
        for name in available_scenarios():
            assert name in report

    def test_scenario_matrix_rows(self, context):
        from repro.experiments import scenario_matrix

        rows = scenario_matrix.score_rows(
            context.scenario_dataset("crowded")["eval"])
        oracle = rows["oracle"]
        # The oracle saturates both recall and the no-target decision.
        assert oracle["recall@1"] == pytest.approx(1.0)
        assert oracle["nt_f1"] == pytest.approx(1.0)
        baseline = rows["largest-first"]
        # largest-first never abstains, so no-target recall is zero.
        assert baseline["nt_recall"] == 0.0
        assert baseline["recall@1"] <= oracle["recall@1"]

    def test_scenario_matrix_report_renders(self, context):
        from repro.experiments import scenario_matrix

        report = scenario_matrix.run(context)
        assert "Table 2b" in report
        assert "pointing" in report
        for name in ("driving", "crowded", "weak"):
            assert f"{name}/oracle" in report


class TestModelPresetThreading:
    """The zoo's --model-preset path through the experiment context."""

    def test_preset_lowers_into_yollo_config(self, tmp_path):
        context = ExperimentContext(
            preset=get_preset("smoke"), model_preset="tiny-dilated",
            cache_dir=str(tmp_path), verbose=False)
        config = context.yollo_config()
        assert config.context_encoder == "dilated"
        assert config.backbone == "tiny"
        # dataset-dependent padding still applied on top of the preset
        assert config.max_query_length == context.max_query_length()

    def test_preset_gets_its_own_cache_namespace(self, tmp_path):
        plain = ExperimentContext(preset=get_preset("smoke"),
                                  cache_dir=str(tmp_path), verbose=False)
        zoo = ExperimentContext(preset=get_preset("smoke"),
                                model_preset="tiny-focal",
                                cache_dir=str(tmp_path), verbose=False)
        assert plain.cache_dir != zoo.cache_dir
        assert "tiny-focal" in zoo.cache_dir

    def test_unknown_model_preset_fails_fast(self, tmp_path):
        from repro.zoo import UnknownPresetError

        with pytest.raises(UnknownPresetError):
            ExperimentContext(preset=get_preset("smoke"),
                              model_preset="nope",
                              cache_dir=str(tmp_path), verbose=False)
