"""Experiment harness: presets, context caching, utils (smoke scale)."""

import os
import re

import numpy as np
import pytest

from repro.core import YolloTrainer
from repro.experiments import ExperimentContext, PRESETS, get_preset
from repro.experiments import context as context_module
from repro.experiments.context import DATASET_NAMES


def _refuse(*args, **kwargs):
    raise AssertionError("a cached artifact was computed again")


def _assert_states_equal(a, b):
    assert set(a) == set(b)
    assert all(np.array_equal(a[k], b[k]) for k in a)


def _assert_reports_equal(a, b):
    assert (a.acc, a.acc_at_50, a.acc_at_75, a.miou) == (
        b.acc, b.acc_at_50, b.acc_at_75, b.miou)
    assert np.array_equal(a.ious, b.ious)


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

    def test_yollo_trained_once_and_cached(self, context, monkeypatch):
        model_a, _, curve = context.yollo("RefCOCO")
        model_b, _, _ = context.yollo("RefCOCO")
        assert model_a is model_b
        assert curve.label == "RefCOCO"
        # Forgotten in memory, the model comes back from disk untrained.
        monkeypatch.setattr(YolloTrainer, "train", _refuse)
        context._yollo.clear()
        model_c, _, curve_c = context.yollo("RefCOCO")
        assert model_c is not model_a and curve_c == curve
        _assert_states_equal(model_a.state_dict(), model_c.state_dict())

    def test_yollo_reloads_from_disk(self, context):
        model_a, _, _ = context.yollo("RefCOCO")
        context._yollo.clear()
        model_b, _, _ = context.yollo("RefCOCO")
        params_a = dict(model_a.named_parameters())
        params_b = dict(model_b.named_parameters())
        assert all(np.allclose(params_a[k].data, params_b[k].data) for k in params_a)

    def test_evaluate_report_cached(self, context, monkeypatch):
        _, grounder, _ = context.yollo("RefCOCO")
        first = context.evaluate(grounder, "RefCOCO", "val")
        monkeypatch.setattr(context_module, "evaluate_grounder", _refuse)
        second = context.evaluate(grounder, "RefCOCO", "val")
        _assert_reports_equal(first, second)
        assert len(first.ious) == min(len(context.dataset("RefCOCO")["val"]),
                                      context.preset.eval_limit)

    def test_evaluate_rescores_perturbed_weights(self, context, monkeypatch):
        """The report is keyed by the weights, not by a model name."""
        model, grounder, _ = context.yollo("RefCOCO")
        before = context.evaluate(grounder, "RefCOCO", "val")
        original = model.state_dict()
        scored = []
        real = context_module.evaluate_grounder

        def spy(grounder, samples):
            scored.append(len(samples))
            return real(grounder, samples)

        monkeypatch.setattr(context_module, "evaluate_grounder", spy)
        rng = np.random.default_rng(0)
        try:
            for param in model.parameters():
                param.data += rng.normal(0, 0.5, param.data.shape).astype(param.data.dtype)
            perturbed = context.evaluate(grounder, "RefCOCO", "val")
            assert len(scored) == 1
            assert not np.array_equal(perturbed.ious, before.ious)
        finally:
            model.load_state_dict(original)
        _assert_reports_equal(context.evaluate(grounder, "RefCOCO", "val"), before)
        assert len(scored) == 1

    def test_second_context_trains_nothing(self, context, monkeypatch):
        """Every artifact comes back bit-equal from a warm directory."""
        def units(ctx):
            model, grounder, curve = ctx.yollo("RefCOCO")
            baseline = ctx.baseline("speaker+listener", "RefCOCO")
            reports = [ctx.evaluate(g, "RefCOCO", "val") for g in (grounder, baseline)]
            states = [model.state_dict()] + [
                m.state_dict() for m in baseline.matchers.values()]
            return states, curve, reports, ctx.word2vec_matrix()

        cold = units(context)
        monkeypatch.setattr(YolloTrainer, "train", _refuse)
        monkeypatch.setattr(context_module, "train_listener", _refuse)
        monkeypatch.setattr(context_module, "train_speaker", _refuse)
        monkeypatch.setattr(context_module, "evaluate_grounder", _refuse)
        monkeypatch.setattr(context_module.SkipGramWord2Vec, "train", _refuse)
        from repro.backbone import pretrain
        monkeypatch.setattr(pretrain, "pretrain_backbone", _refuse)
        warm = units(ExperimentContext(preset=context.preset,
                                       cache_dir=context.cache_dir, verbose=False))
        for a, b in zip(cold[0], warm[0]):
            _assert_states_equal(a, b)
        assert cold[1] == warm[1]
        for a, b in zip(cold[2], warm[2]):
            _assert_reports_equal(a, b)
        assert np.array_equal(cold[3], warm[3])

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


class TestCacheDirectory:
    def test_every_artifact_goes_under_cache_dir(self, tmp_path, monkeypatch):
        """Backbones included, and only as ``<kind>-<fingerprint>.ckpt``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        context = ExperimentContext(preset=get_preset("smoke"),
                                    cache_dir=str(tmp_path / "context"),
                                    verbose=False)
        context.yollo("RefCOCO", tag="timing", epochs=0)
        assert not (tmp_path / "default").exists()
        names = sorted(os.listdir(tmp_path / "context"))
        assert [name.split("-")[0] for name in names] == [
            "backbone", "word2vec", "yollo"]
        assert all(re.fullmatch(r"[a-z0-9]+-[0-9a-f]{16}\.ckpt", name)
                   for name in names)


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

    def test_preset_gets_its_own_cache_namespace(self, context, monkeypatch):
        """Two model presets over one directory never share trained weights."""
        plain = ExperimentContext(preset=context.preset,
                                  cache_dir=context.cache_dir, verbose=False)
        plain.yollo("RefCOCO")
        trained = []
        real = YolloTrainer.train

        def spy(trainer, **kwargs):
            trained.append(trainer.config.backbone)
            return real(trainer, **kwargs)

        monkeypatch.setattr(YolloTrainer, "train", spy)
        zoo = ExperimentContext(preset=context.preset, model_preset="tiny-focal",
                                cache_dir=context.cache_dir, verbose=False)
        model, _, _ = zoo.yollo("RefCOCO")
        assert trained == ["tiny"]  # one training per unit
        assert model.config.cls_loss == "focal"

    def test_unknown_model_preset_fails_fast(self, tmp_path):
        from repro.zoo import UnknownPresetError

        with pytest.raises(UnknownPresetError):
            ExperimentContext(preset=get_preset("smoke"),
                              model_preset="nope",
                              cache_dir=str(tmp_path), verbose=False)
