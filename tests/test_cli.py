"""Command-line interface: argument parsing and tiny end-to-end runs."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.dataset == "RefCOCO"
        assert args.epochs == 10
        assert args.out == "yollo.ckpt"

    def test_evaluate_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate"])

    def test_tables_only_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--only", "table9"])

    def test_ground_query_optional(self):
        args = build_parser().parse_args(["ground", "--model", "m.ckpt"])
        assert args.query is None

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.requests == 128
        assert args.max_batch == 16
        assert args.model is None
        assert args.compiled is False

    def test_compiled_flags_parse(self):
        args = build_parser().parse_args(["serve-bench", "--compiled"])
        assert args.compiled is True
        args = build_parser().parse_args(
            ["profile", "--target", "infer", "--compiled"]
        )
        assert args.compiled is True

    def test_serve_fleet_defaults(self):
        args = build_parser().parse_args(["serve-fleet"])
        assert args.replicas == 3
        assert args.requests == 120
        assert args.simulated is False
        assert args.kill_replica is None
        assert args.reload_at is None
        assert args.slo_p99 is None
        assert args.router_cache == 256

    def test_serve_fleet_router_cache_flag_parses(self):
        args = build_parser().parse_args(
            ["serve-fleet", "--router-cache", "0"])
        assert args.router_cache == 0
        args = build_parser().parse_args(
            ["serve-fleet", "--router-cache", "1024"])
        assert args.router_cache == 1024

    def test_serve_fleet_fault_flags_parse(self):
        args = build_parser().parse_args([
            "serve-fleet", "--simulated", "--replicas", "2",
            "--kill-replica", "0:3", "1:5", "--reload-at", "40",
            "--slo-p99", "0.5",
        ])
        assert args.simulated is True
        assert args.kill_replica == ["0:3", "1:5"]
        assert args.reload_at == 40
        assert args.slo_p99 == pytest.approx(0.5)

    def test_serve_fleet_trace_mix_parses(self):
        args = build_parser().parse_args(
            ["serve-fleet", "--trace-mix", "mixed"])
        assert args.trace_mix == "mixed"
        assert build_parser().parse_args(["serve-fleet"]).trace_mix is None

    def test_serve_fleet_unknown_trace_mix_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve-fleet", "--trace-mix", "nope"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown trace mix 'nope'" in stderr
        assert "mixed" in stderr

    def test_experiments_scenario_parses(self):
        args = build_parser().parse_args(
            ["experiments", "--scenario", "driving"])
        assert args.scenario == "driving"
        assert args.preset is None  # resolved via get_preset/REPRO_PRESET
        assert build_parser().parse_args(["experiments"]).scenario is None

    def test_experiments_unknown_scenario_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["experiments", "--scenario", "nope"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown scenario 'nope'" in stderr
        assert "driving" in stderr and "crowded" in stderr

    def test_parse_defaults(self):
        args = build_parser().parse_args(["parse", "--query", "the red car"])
        assert args.query == "the red car"
        assert args.format == "tree"
        assert args.scenario is None
        assert args.max_length == 24

    def test_parse_unknown_format_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["parse", "--query", "q", "--format", "nope"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown parse format 'nope'" in stderr
        assert "tree" in stderr and "masks" in stderr

    def test_parse_unknown_scenario_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["parse", "--scenario", "nope"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown scenario 'nope'" in stderr
        assert "compositional" in stderr

    def test_train_preset_parses(self):
        args = build_parser().parse_args(["train", "--preset", "tiny-focal"])
        assert args.preset == "tiny-focal"
        assert build_parser().parse_args(["train"]).preset == "yollo"

    def test_default_presets_keep_the_paper_config(self):
        """``yollo`` lowers to the config the paper-scale defaults built,
        so checkpoints trained with the defaults keep their fingerprint."""
        from dataclasses import asdict

        from repro.core import YolloConfig
        from repro.runtime.checkpoint import config_fingerprint
        from repro.zoo import lower_config

        paper = config_fingerprint(asdict(
            YolloConfig(backbone="resnet50", max_query_length=12)))
        for command in (["train"], ["evaluate", "--model", "m.ckpt"],
                        ["ground", "--model", "m.ckpt"]):
            preset = build_parser().parse_args(command).preset
            assert config_fingerprint(asdict(
                lower_config(preset, max_query_length=12))) == paper
        for command in ("serve-bench", "profile"):
            assert build_parser().parse_args([command]).preset == "tiny"

    def test_train_unknown_preset_lists_zoo(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--preset", "nope"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown model preset 'nope'" in stderr
        assert "tiny" in stderr and "tiny-word2pix" in stderr

    def test_serve_fleet_presets_parse_as_list(self):
        args = build_parser().parse_args(
            ["serve-fleet", "--presets", "tiny,tiny-word2pix"])
        assert args.presets == ["tiny", "tiny-word2pix"]
        assert build_parser().parse_args(["serve-fleet"]).presets is None

    def test_serve_fleet_unknown_preset_in_list_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["serve-fleet", "--presets", "tiny,bogus"])
        assert excinfo.value.code == 2
        assert "unknown model preset 'bogus'" in capsys.readouterr().err

    def test_serve_fleet_presets_exclusive_with_simulated(self):
        with pytest.raises(SystemExit):
            main(["serve-fleet", "--presets", "tiny", "--simulated"])
        with pytest.raises(SystemExit):
            main(["serve-fleet", "--presets", "tiny,tiny-word2pix",
                  "--reload-at", "5"])
        with pytest.raises(SystemExit):
            main(["serve-fleet", "--presets", "tiny,tiny-word2pix",
                  "--model", "m.ckpt"])

    def test_experiments_model_preset_parses(self):
        args = build_parser().parse_args(
            ["experiments", "--model-preset", "tiny-dilated"])
        assert args.model_preset == "tiny-dilated"
        assert build_parser().parse_args(["experiments"]).model_preset is None

    def test_tables_accepts_scenarios_module(self):
        args = build_parser().parse_args(["tables", "--only", "scenarios"])
        assert args.only == ["scenarios"]

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.target == "train-step"
        assert args.steps == 1
        assert args.top == 12
        assert args.out is None
        assert args.scale == pytest.approx(0.1)

    def test_profile_target_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "--target", "nonsense"])


SMALL = ["--scale", "0.03", "--pretrain-steps", "1"]


@pytest.fixture(scope="module")
def tiny_model_file(tmp_path_factory):
    """``train --preset tiny --out`` once: the file and the model it wrote."""
    import repro.zoo

    root = tmp_path_factory.mktemp("model-file")
    path = str(root / "m.ckpt")
    written = {}
    save = repro.zoo.save_yollo_model

    def capture(model, out, preset):
        written["model"] = model
        return save(model, out, preset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.zoo, "save_yollo_model", capture)
        assert main(["train", "--preset", "tiny", "--epochs", "1", "--quiet",
                     "--eval-every", "0", "--out", path] + SMALL) == 0
    return path, written["model"]


class TestModelFile:
    """``train --out`` writes the one checkpoint format, stamped with its
    preset: the same file loads under ``--preset tiny``, is refused under
    any other preset, and is what a fleet reload reads."""

    def _dataset(self):
        from repro.data import REFCOCO, build_dataset
        from repro.utils import seed_everything

        seed_everything(0)  # the CLI's --seed default
        return build_dataset(REFCOCO.scaled(0.03))

    def test_other_preset_refuses_the_file(self, tiny_model_file):
        from repro.runtime import FingerprintMismatchError
        from repro.zoo import build_yollo_model

        path, _ = tiny_model_file
        with pytest.raises(FingerprintMismatchError):
            build_yollo_model("tiny-focal", self._dataset(), model_path=path)
        with pytest.raises(FingerprintMismatchError):
            main(["evaluate", "--preset", "tiny-focal", "--model", path]
                 + SMALL)

    def test_fleet_reader_reproduces_the_trained_model(self, tiny_model_file):
        from repro.autograd import set_default_dtype
        from repro.core import Grounder, responses_equal
        from repro.runtime import read_checkpoint
        from repro.serve import state_checksum
        from repro.zoo import build_model, build_yollo_model

        path, trained = tiny_model_file
        set_default_dtype(np.float32)  # the CLI trains in float32
        dataset = self._dataset()
        payload = read_checkpoint(path).payload
        assert state_checksum(payload) == state_checksum(trained.state_dict())

        reloaded = build_model("tiny", len(dataset.vocab),
                               max_query_length=trained.config.max_query_length)
        reloaded.load_state_dict(payload)
        loaded = build_yollo_model("tiny", dataset, model_path=path)
        samples = dataset["val"][:3]
        expected = Grounder(trained.eval(), dataset.vocab)(samples)
        for model in (reloaded, loaded):
            answers = Grounder(model.eval(), dataset.vocab)(samples)
            assert all(responses_equal(a, b)  # byte-identical
                       for a, b in zip(expected, answers))


class TestEndToEnd:
    def test_train_then_evaluate_then_ground(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "model.ckpt")
        common = ["--scale", "0.03", "--preset", "tiny", "--pretrain-steps", "1"]

        code = main(["train", "--epochs", "1", "--out", checkpoint, "--quiet",
                     "--eval-every", "0"] + common)
        assert code == 0
        assert os.path.exists(checkpoint)
        assert "saved checkpoint" in capsys.readouterr().out

        code = main(["evaluate", "--model", checkpoint] + common)
        assert code == 0
        out = capsys.readouterr().out
        assert "ACC@0.5" in out and "val" in out

        code = main(["ground", "--model", checkpoint, "--query", "red dog"] + common)
        assert code == 0
        out = capsys.readouterr().out
        assert "red dog" in out and "box:" in out

    def test_train_with_model_preset(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "preset.ckpt")
        code = main(["train", "--preset", "tiny-topk", "--epochs", "1",
                     "--scale", "0.03", "--pretrain-steps", "1",
                     "--eval-every", "0", "--quiet", "--out", checkpoint])
        assert code == 0
        out = capsys.readouterr().out
        assert "model preset: tiny-topk" in out
        assert "config fingerprint" in out
        assert os.path.exists(checkpoint)

        # The flag that trained the checkpoint is the flag that loads it.
        common = ["--model", checkpoint, "--preset", "tiny-topk",
                  "--scale", "0.03", "--pretrain-steps", "1"]
        assert main(["evaluate"] + common) == 0
        assert "ACC@0.5" in capsys.readouterr().out
        assert main(["ground", "--query", "red dog"] + common) == 0
        assert "box:" in capsys.readouterr().out
        assert main(["serve-bench", "--requests", "4"] + common) == 0
        assert "micro-batched" in capsys.readouterr().out
        assert main(["profile", "--target", "infer", "--requests", "2",
                     "--out", str(tmp_path / "trace.json")] + common) == 0
        assert "Hot ops" in capsys.readouterr().out

    def test_dist_workers_train_the_preset(self):
        """``train --workers`` builds the ``--preset`` model in every
        worker, not a default architecture."""
        from repro.cli import _dist_spec
        from repro.dist import build_yollo_task
        from repro.zoo import lower_config

        args = build_parser().parse_args(
            ["train", "--workers", "2", "--preset", "tiny-word2pix",
             "--scale", "0.03", "--pretrain-steps", "1", "--epochs", "1"])
        spec = _dist_spec(args)
        assert spec.warmup_kwargs["name"] == "tiny"
        task = build_yollo_task(**spec.task_kwargs)
        max_len = max(8, task.dataset.max_query_length)
        assert task.config == lower_config(
            "tiny-word2pix", max_query_length=max_len)
        assert task.model.config.fusion == "word2pix"

    @pytest.mark.dist
    def test_heterogeneous_preset_fleet_soak(self, capsys):
        """Acceptance: two presets behind one router, every response
        bit-identical to its preset's single-engine output, zero
        cross-preset cache serves."""
        code = main(["serve-fleet", "--presets", "tiny,tiny-word2pix",
                     "--replicas", "2", "--requests", "16", "--rate", "200",
                     "--scale", "0.03", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "heterogeneous fleet: 2 preset(s)" in out
        assert "model=tiny" in out and "model=tiny-word2pix" in out
        assert "0 LOST" in out

    def test_experiments_single_scenario_report(self, capsys):
        code = main(["experiments", "--scenario", "crowded",
                     "--preset", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario crowded" in out
        assert "query mix" in out and "no_target" in out
        assert "oracle" in out and "largest-first" in out

    def test_experiments_compositional_depth_breakdown(self, capsys):
        code = main(["experiments", "--scenario", "compositional",
                     "--preset", "smoke"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario compositional" in out
        assert "clause depth" in out
        assert "recall by clause depth" in out

    def test_parse_command_formats(self, capsys):
        query = "there is a red car . the dog next to it"
        assert main(["parse", "--query", query]) == 0
        out = capsys.readouterr().out
        assert "entity" in out and "clause" in out

        assert main(["parse", "--query", query,
                     "--format", "tokens"]) == 0
        out = capsys.readouterr().out
        assert "dog" in out

        assert main(["parse", "--query", query,
                     "--format", "masks"]) == 0
        masks_out = capsys.readouterr().out
        assert "1" in masks_out

        # Single-clause queries report the flat-token fallback.
        assert main(["parse", "--query", "the red car",
                     "--format", "masks"]) == 0
        out = capsys.readouterr().out
        assert "fallback" in out

    def test_parse_command_requires_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["parse"])

    def test_profile_train_step_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out = str(tmp_path / "trace.json")
        code = main(["profile", "--target", "train-step", "--scale", "0.03",
                     "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Hot ops" in printed and "conv2d" in printed
        assert "Spans" in printed and "yollo.forward" in printed
        with open(out) as handle:
            payload = json.load(handle)
        ts = [event["ts"] for event in payload["traceEvents"]]
        assert ts and ts == sorted(ts)

    def test_profile_infer_compiled_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        code = main(["profile", "--target", "infer", "--compiled",
                     "--requests", "2", "--scale", "0.03", "--out", out])
        assert code == 0
        printed = capsys.readouterr().out
        # Compiled replay runs under the graph.execute span and reports
        # fused kernels in the hot-op table.
        assert "graph.execute" in printed
        assert os.path.exists(out)
