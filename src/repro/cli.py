"""Command-line interface: train, evaluate, ground, and report.

Usage::

    python -m repro.cli train --dataset RefCOCO --epochs 10 --out model.ckpt
    python -m repro.cli evaluate --dataset RefCOCO --model model.ckpt
    python -m repro.cli ground --dataset RefCOCO --model model.ckpt --query "red dog"
    python -m repro.cli serve-bench --dataset RefCOCO --requests 128
    python -m repro.cli serve-fleet --presets tiny-topk --model topk.ckpt --reload-at 60
    python -m repro.cli serve-fleet --simulated --replicas 3 --kill-replica 0:5 --reload-at 60
    python -m repro.cli serve-fleet --trace-mix mixed --replicas 2 --reload-at 40
    python -m repro.cli serve-fleet --presets tiny,tiny-word2pix --replicas 4
    python -m repro.cli train --preset tiny-dilated --epochs 2 --out dilated.ckpt
    python -m repro.cli evaluate --preset tiny-dilated --model dilated.ckpt
    python -m repro.cli profile --target train-step --out trace.json
    python -m repro.cli tables --preset smoke --only table1 table5
    python -m repro.cli experiments --scenario compositional --preset smoke
    python -m repro.cli serve-fleet --trace-mix compositional --reload-at 40
    python -m repro.cli parse --query "there is a red car . the dog next to it"

Every subcommand that builds a model takes ``--preset`` (a
:mod:`repro.zoo` preset; ``--presets`` for ``serve-fleet``): the preset
that trained a checkpoint is the one that loads it: ``train --out``
writes a :mod:`repro.runtime` checkpoint stamped with its preset.
Every subcommand computes in float32, the one compute dtype; none
takes a dtype option.

``python -m repro`` is an alias for ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _trace_mix_name(value: str) -> str:
    """Argparse type: a registered trace-mix name (fail listing the registry)."""
    from repro.scenarios import available_trace_mixes

    available = available_trace_mixes()
    if value not in available:
        raise argparse.ArgumentTypeError(
            f"unknown trace mix {value!r}; available: {', '.join(available)}")
    return value


def _scenario_name(value: str) -> str:
    """Argparse type: a registered scenario name (fail listing the registry)."""
    from repro.scenarios import available_scenarios

    available = available_scenarios()
    if value not in available:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {value!r}; available: {', '.join(available)}")
    return value


#: Output formats of the ``parse`` subcommand.
PARSE_FORMATS = ("tree", "tokens", "masks")


def _parse_format(value: str) -> str:
    """Argparse type: a parse output format (fail listing the options)."""
    if value not in PARSE_FORMATS:
        raise argparse.ArgumentTypeError(
            f"unknown parse format {value!r}; available: "
            f"{', '.join(PARSE_FORMATS)}")
    return value


def _preset_name(value: str) -> str:
    """Argparse type: a registered model preset (fail listing the zoo)."""
    from repro.zoo import available_presets

    available = available_presets()
    if value not in available:
        raise argparse.ArgumentTypeError(
            f"unknown model preset {value!r}; available: {', '.join(available)}")
    return value


def _preset_list(value: str) -> List[str]:
    """Argparse type: comma-separated model presets (each validated)."""
    names = [part.strip() for part in value.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of model presets")
    return [_preset_name(name) for name in names]


def _add_preset(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument("--preset", type=_preset_name, default=default,
                        metavar="NAME",
                        help=f"repro.zoo model preset (default {default}); "
                             f"a checkpoint loads under the preset that "
                             f"trained it")


def _add_common(parser: argparse.ArgumentParser) -> None:
    from repro.data import DATASET_SPECS

    parser.add_argument("--dataset", default="RefCOCO",
                        choices=list(DATASET_SPECS))
    parser.add_argument("--scale", type=float, default=0.5,
                        help="dataset size multiplier")
    parser.add_argument("--seed", type=int, default=0)


def _setup(args) -> None:
    from repro.utils import seed_everything

    seed_everything(args.seed)


def _dataset_and_model(args):
    """The ``--dataset`` data and the ``--preset`` model (``--model`` loaded)."""
    from repro.data import DATASET_SPECS, build_dataset
    from repro.zoo import build_yollo_model

    dataset = build_dataset(DATASET_SPECS[args.dataset].scaled(args.scale))
    model = build_yollo_model(args.preset, dataset,
                              pretrain_steps=args.pretrain_steps,
                              model_path=getattr(args, "model", None))
    return dataset, model


def _dist_spec(args, profile: bool = False, profile_out=None, top: int = 12):
    """Build a :class:`repro.dist.WorkerSpec` from CLI arguments."""
    from repro.backbone import load_pretrained_backbone
    from repro.dist import DistConfig, WorkerSpec, build_yollo_task
    from repro.zoo import lower_config

    return WorkerSpec(
        builder=build_yollo_task,
        task_kwargs=dict(
            dataset_name=args.dataset,
            scale=args.scale,
            epochs=getattr(args, "epochs", None),
            iterations=getattr(args, "steps", None) if profile else None,
            eval_every=getattr(args, "eval_every", 0) if not profile else 0,
            preset=args.preset,
            pretrain_steps=args.pretrain_steps,
        ),
        dist=DistConfig(grad_shards=args.grad_shards),
        seed=args.seed,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", 0),
        resume=getattr(args, "resume", False),
        warmup=load_pretrained_backbone,
        warmup_kwargs=dict(name=lower_config(args.preset).backbone,
                           steps=args.pretrain_steps),
        profile=profile,
        profile_out=profile_out,
        profile_top=top,
        quiet=getattr(args, "quiet", True),
    )


def _cmd_train_dist(args) -> int:
    from repro.dist import WorkerGroup, build_yollo_task
    from repro.zoo import save_yollo_model

    spec = _dist_spec(args)
    report = WorkerGroup(spec, world_size=args.workers).run()
    if report.generations > 1:
        print(f"recovered from worker failure: finished at world size "
              f"{report.world_size} after {report.generations} generation(s)")
    # Rebuild the task locally to decode the replicated final state into
    # a saveable model (the workers ship trainer state, not a model file).
    task = build_yollo_task(**spec.task_kwargs)
    task.load_state_dict(report.final_state)
    if task.history.curve.values:
        print(task.history.curve.render_ascii())
    save_yollo_model(task.model, args.out, args.preset)
    print(f"saved checkpoint to {args.out} "
          f"(trained on {args.workers} worker(s))")
    return 0


def cmd_train(args) -> int:
    from repro.core import YolloTrainer
    from repro.runtime import TrainingSupervisor
    from repro.utils import ProgressLogger
    from repro.zoo import preset_fingerprint, save_yollo_model

    _setup(args)
    if args.workers > 1:
        return _cmd_train_dist(args)
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    dataset, model = _dataset_and_model(args)
    config = model.config
    print(f"model preset: {args.preset} (config fingerprint "
          f"{preset_fingerprint(args.preset)})")
    trainer = YolloTrainer(model, dataset, config,
                           logger=ProgressLogger("train", enabled=not args.quiet))
    trainer.begin_run(epochs=args.epochs, eval_every=args.eval_every)
    report = TrainingSupervisor(
        trainer,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        logger=ProgressLogger("supervisor", enabled=not args.quiet),
    ).run()
    history = trainer.history
    if report.resumed_from is not None:
        print(f"resumed from iteration {report.resumed_from}")
    if report.skipped_steps or report.rollbacks or report.checkpoint_failures:
        print(f"recovered from faults: {report.skipped_steps} skipped step(s), "
              f"{report.rollbacks} rollback(s), "
              f"{report.checkpoint_failures} failed checkpoint write(s)")
    if history.curve.values:
        print(history.curve.render_ascii())
    save_yollo_model(model, args.out, args.preset)
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from repro.core import Grounder
    from repro.eval import evaluate_grounder, format_table

    _setup(args)
    dataset, model = _dataset_and_model(args)
    grounder = Grounder(model, dataset.vocab)
    rows = []
    for split in dataset.split_names():
        if split == "train":
            continue
        report = evaluate_grounder(grounder, dataset[split])
        rows.append([split] + [v * 100 for v in report.as_dict().values()])
    print(format_table(["Split", "ACC", "ACC@0.5", "ACC@0.75", "MIOU"], rows,
                       title=f"YOLLO on {args.dataset}"))
    return 0


def cmd_ground(args) -> int:
    from repro.core import Grounder
    from repro.viz import render_attention_ascii

    _setup(args)
    dataset, model = _dataset_and_model(args)
    grounder = Grounder(model, dataset.vocab)
    sample = dataset["val"][args.index]
    query = args.query or sample.query
    prediction = grounder.ground(sample.image, query)
    print(f'query: "{query}"')
    print(f"box: {np.round(prediction.box, 1).tolist()}  score: {prediction.score:.3f}")
    print(render_attention_ascii(prediction.attention_map, box=prediction.box,
                                 stride=model.encoder.backbone.stride))
    return 0


def cmd_serve_bench(args) -> int:
    """Compare one-at-a-time grounding against the micro-batched engine."""
    import time

    from repro.core import Grounder
    from repro.serve import ServeEngine, synthetic_trace

    _setup(args)
    dataset, model = _dataset_and_model(args)
    model.eval()
    grounder = Grounder(model, dataset.vocab)
    if args.compiled:
        grounder.compile()
    pool = list(dataset["val"]) or list(dataset["train"])
    trace = synthetic_trace(pool, args.requests,
                            repeat_fraction=args.repeat_fraction)

    # Warm both paths (first calls touch allocation paths; with
    # --compiled this also builds the single-sample plan).
    grounder.ground(trace[0].image, trace[0].query)

    start = time.perf_counter()
    for request in trace:
        grounder.ground(request.image, request.query)
    baseline_seconds = time.perf_counter() - start
    baseline_qps = len(trace) / baseline_seconds

    with ServeEngine(grounder, max_batch=args.max_batch,
                     cache_size=args.cache_size) as engine:
        start = time.perf_counter()
        engine.ground_many(trace)
        batched_seconds = time.perf_counter() - start
        stats = engine.stats()

    batched_qps = len(trace) / batched_seconds
    mode = "compiled" if args.compiled else "eager"
    print(f"forward mode: {mode}")
    print(f"one-at-a-time: {len(trace)} requests in {baseline_seconds:.3f}s "
          f"({baseline_qps:.1f} qps)")
    print(f"micro-batched: {len(trace)} requests in {batched_seconds:.3f}s "
          f"({batched_qps:.1f} qps)")
    print(f"speedup: {baseline_seconds / batched_seconds:.2f}x")
    print(stats.render())
    return 0


def cmd_serve_fleet(args) -> int:
    """Soak a fault-tolerant replica fleet against a timed trace."""
    import os
    import tempfile

    from repro.runtime import FaultPlan, write_checkpoint
    from repro.serve import (
        FleetConfig, FleetRouter, ReplicaSpec, build_latency_grounder,
        preset_reference_check, run_soak, timed_trace,
    )
    from repro.serve.fleet import SPAWN_TIMEOUT
    from repro.utils.seeding import spawn_rng

    _setup(args)
    if args.presets and (args.trace_mix or args.simulated):
        raise SystemExit("--presets cannot be combined with "
                         "--trace-mix or --simulated")
    model_mode = not (args.trace_mix or args.simulated)
    presets = args.presets or ["tiny"]
    if len(presets) > 1 and (args.reload_at is not None or args.model):
        raise SystemExit("--reload-at and --model need a single preset "
                         "(heterogeneous weights must name their model)")
    fault_plan = None
    if args.kill_replica:
        kills = {}
        for token in args.kill_replica:
            replica_id, _, ordinal = token.partition(":")
            kills[int(replica_id)] = int(ordinal or 1)
        fault_plan = FaultPlan(kill_replica_on_request=kills)

    trace = None
    if args.trace_mix:
        # Scenario-mix mode: replay a heterogeneous scenario trace
        # against oracle replicas serving the registry's ground-truth
        # ranked answers, so the soak asserts structured-protocol
        # correctness (per-scenario p99, no false "found" on no-target
        # queries) independently of model quality.
        from repro.scenarios import build_oracle_grounder, build_trace_mix

        trace, answers = build_trace_mix(
            args.trace_mix, num_requests=args.requests, rate_qps=args.rate,
            repeat_fraction=args.repeat_fraction)
        spec = ReplicaSpec(
            builder=build_oracle_grounder,
            builder_kwargs={"answers": answers, "latency": args.latency},
            max_batch=args.max_batch, cache_size=args.cache_size,
            seed=args.seed, fault_plan=fault_plan,
        )
    elif args.simulated:
        from repro.data.refcoco import request_sample

        rng = spawn_rng("serve-fleet-pool")
        pool = [request_sample(rng.random((8, 8, 3)), f"synthetic object {i}")
                for i in range(16)]
        spec = ReplicaSpec(
            builder=build_latency_grounder,
            builder_kwargs={"latency": args.latency},
            max_batch=args.max_batch, cache_size=args.cache_size,
            seed=args.seed, fault_plan=fault_plan,
        )
    else:
        # Model mode: one replica group per zoo preset.  Requests are
        # model-tagged, the router routes them only to matching
        # replicas, and the shared response cache keys on the preset —
        # two presets can never cross-serve each other's answers.
        from repro.data import DATASET_SPECS, build_dataset
        from repro.zoo import build_preset_grounder

        dataset = build_dataset(DATASET_SPECS[args.dataset].scaled(args.scale))
        pool = list(dataset["val"]) or list(dataset["train"])
        preset_kwargs = dict(dataset_name=args.dataset, scale=args.scale,
                             pretrain_steps=args.pretrain_steps,
                             model_path=args.model)
        spec = [
            ReplicaSpec(
                builder=build_preset_grounder,
                builder_kwargs=dict(preset_kwargs, preset=name),
                model_id=name,
                max_batch=args.max_batch, cache_size=args.cache_size,
                seed=args.seed,
                fault_plan=fault_plan,
            )
            for name in presets
        ]

    if trace is None:
        trace = timed_trace(pool, args.requests, rate_qps=args.rate,
                            repeat_fraction=args.repeat_fraction)
    content_check = None
    if model_mode:
        # Every fleet response must match its preset's single-engine
        # reference byte for byte (no cross-preset serves).
        content_check, references = preset_reference_check(
            trace, presets, args.seed, **preset_kwargs)

    reload_at = None
    reload_checkpoint = None
    reload_dir = None
    if args.reload_at is not None:
        # Roll the fleet onto a checkpoint mid-soak.  In simulated mode
        # the new weights are observably different (version bump shows
        # up in every response); a model fleet re-checkpoints its
        # preset's current weights — the rolling protocol and checksum
        # handshake are what is being exercised, and every response
        # still matches the reference.
        reload_dir = tempfile.TemporaryDirectory(prefix="fleet-reload-")
        if model_mode:
            payload = references[presets[0]].model.state_dict()
        else:
            payload = {"version": np.array([2.0]), "bias": np.array([1.0])}
        reload_checkpoint = write_checkpoint(
            os.path.join(reload_dir.name, "reload.ckpt"), payload)
        reload_at = args.reload_at

    config = FleetConfig(
        replicas=args.replicas, max_queue=args.max_queue,
        default_deadline=args.deadline,
        router_cache=args.router_cache,
    )
    try:
        with FleetRouter(spec, config) as router:
            if not router.wait_healthy(SPAWN_TIMEOUT):
                raise SystemExit("fleet failed to become healthy")
            # Simulated and oracle replicas stamp their weights version
            # on every response, so the soak can verify no post-reload
            # response came from stale weights.
            post_check = None
            if reload_checkpoint is not None and not model_mode:
                post_check = lambda r: r.version == 2.0  # noqa: E731
            report = run_soak(router, trace, reload_at=reload_at,
                              reload_checkpoint=reload_checkpoint,
                              post_reload_check=post_check,
                              content_check=content_check)
            # let a just-respawned replica finish coming up, then
            # re-snapshot so the health check sees the restored fleet
            router.wait_healthy(30.0)
            import dataclasses

            report = dataclasses.replace(report, stats=router.stats())
        print(report.render())
        violations = report.check(slo_p99=args.slo_p99,
                                  expected_replicas=args.replicas)
        if violations:
            for violation in violations:
                print(f"SOAK VIOLATION: {violation}")
            return 1
        print("soak passed: no lost requests, SLO held, fleet healthy")
        if model_mode:
            kind = "heterogeneous fleet" if len(presets) > 1 else "fleet"
            print(f"{kind}: {len(presets)} preset(s); "
                  f"every response bit-identical to its preset's "
                  f"single-engine answer (zero cross-preset serves)")
        return 0
    finally:
        if reload_dir is not None:
            reload_dir.cleanup()


def cmd_profile(args) -> int:
    """Profile a train step, an inference batch, or a serve trace.

    Emits a Chrome ``trace_event`` JSON (open in chrome://tracing or
    Perfetto) and prints the top-K hot-op table from :mod:`repro.obs`.
    """
    from repro.obs import profile

    _setup(args)
    if getattr(args, "workers", 1) > 1:
        if args.target != "train-step":
            raise SystemExit("--workers only profiles --target train-step")
        from repro.dist import WorkerGroup

        out = args.out or "profile-train-step.json"
        spec = _dist_spec(args, profile=True, profile_out=out, top=args.top)
        report = WorkerGroup(spec, world_size=args.workers).run()
        if report.profile_render:
            print(report.profile_render)
        print(f"\nwrote Chrome trace (rank 0) to {out} "
              f"(open in chrome://tracing)")
        return 0
    dataset, model = _dataset_and_model(args)
    config = model.config

    if args.target == "train-step":
        from repro.core import YolloTrainer
        from repro.runtime import TrainingSupervisor

        trainer = YolloTrainer(model, dataset, config)
        trainer.begin_run(iterations=args.steps)
        with profile() as prof:
            TrainingSupervisor(trainer).run()
    elif args.target == "infer":
        from repro.core import Grounder

        model.eval()
        grounder = Grounder(model, dataset.vocab)
        if args.compiled:
            grounder.compile()
        pool = list(dataset["val"]) or list(dataset["train"])
        samples = pool[: args.requests]
        # Warm allocation paths (and with --compiled, build the plan
        # before profiling so the trace shows steady-state replay).
        grounder(samples[:1])
        with profile() as prof:
            for sample in samples:
                grounder([sample])
    else:  # serve
        from repro.core import Grounder
        from repro.serve import ServeEngine, synthetic_trace

        model.eval()
        grounder = Grounder(model, dataset.vocab)
        if args.compiled:
            grounder.compile()
        pool = list(dataset["val"]) or list(dataset["train"])
        trace = synthetic_trace(pool, args.requests, repeat_fraction=0.3)
        grounder.ground(trace[0].image, trace[0].query)  # warm
        with profile() as prof:
            with ServeEngine(grounder, max_batch=args.max_batch) as engine:
                engine.ground_many(trace)
        print(engine.stats().render())
        print()

    out = args.out or f"profile-{args.target}.json"
    prof.export_chrome_trace(out)
    print(prof.render(top=args.top))
    print(f"\nwrote Chrome trace to {out} (open in chrome://tracing)")
    return 0


def cmd_tables(args) -> int:
    from repro.experiments import (
        ExperimentContext, figure4, figure5, get_preset, scenario_matrix,
        table1, table2, table3, table4, table5,
    )

    modules = {
        "table1": table1, "table2": table2, "table3": table3,
        "table4": table4, "table5": table5, "figure4": figure4,
        "figure5": figure5, "scenarios": scenario_matrix,
    }
    chosen = args.only or list(modules)
    context = ExperimentContext(preset=get_preset(args.preset))
    for name in chosen:
        print(modules[name].run(context))
        print()
    return 0


def _render_tree(tree) -> List[str]:
    """Human-readable lines for one parsed relation tree."""
    lines = []
    for index, entity in enumerate(tree.entities):
        marks = []
        if index in tree.targets:
            marks.append("target")
        if entity.pronoun is not None:
            antecedent = ("?" if entity.antecedent is None
                          else f"#{entity.antecedent}")
            marks.append(f"pronoun {entity.pronoun} -> {antecedent}")
        if entity.quantified_all:
            marks.append("all")
        if entity.plural:
            marks.append("plural")
        attrs = ", ".join(
            f"{'not ' if a.negated else ''}{a.kind}={a.value}"
            for a in entity.attributes)
        head = entity.head or "-"
        suffix = f" [{'; '.join(marks)}]" if marks else ""
        lines.append(f"  entity #{index}: {head} "
                     f"({entity.category or 'open'})"
                     f"{' {' + attrs + '}' if attrs else ''}{suffix}")
    for clause in tree.clauses:
        anchor = ("-" if clause.anchor is None else f"#{clause.anchor}")
        negated = "not " if clause.negated else ""
        lines.append(f"  clause: #{clause.target} "
                     f"{negated}{clause.relation} {anchor}")
    return lines


def cmd_parse(args) -> int:
    """Parse queries to relation trees (the repro.lang subsystem)."""
    from repro.lang import clause_token_masks, parse

    queries: List[str] = []
    if args.query:
        queries.append(args.query)
    if args.scenario:
        from repro.scenarios import get_scenario

        samples = get_scenario(args.scenario).eval_samples(args.scenes)
        queries.extend(s.query for s in samples[: args.limit])
    if not queries:
        raise SystemExit("parse needs --query and/or --scenario")
    for query in queries:
        tree = parse(query)
        print(f'query: "{query}"')
        print(f"  depth={tree.depth()} trivial={tree.is_trivial} "
              f"sentences={tree.num_sentences}")
        if args.format == "tree":
            for line in _render_tree(tree):
                print(line)
        elif args.format == "tokens":
            print(f"  tokens: {' '.join(tree.token_sequence())}")
            for label, (start, end) in tree.segments:
                print(f"  segment [{start}:{end}] {label}: "
                      f"{' '.join(tree.tokens[start:end])}")
        else:  # masks
            masks = clause_token_masks(tree, args.max_length)
            if masks is None:
                print("  clause masks: None (flat-token fallback)")
            else:
                for row in masks:
                    print("  " + "".join(str(int(v)) for v in row))
        print()
    return 0


def cmd_experiments(args) -> int:
    """Scenario workload reports (the whole matrix, or one scenario)."""
    from repro.experiments import ExperimentContext, get_preset, scenario_matrix

    context = ExperimentContext(preset=get_preset(args.preset),
                                model_preset=args.model_preset)
    if args.scenario:
        print(scenario_matrix.run_scenario(context, args.scenario))
    else:
        print(scenario_matrix.run(context))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a YOLLO model")
    _add_common(train)
    train.add_argument("--epochs", type=int, default=10)
    _add_preset(train, "yollo")
    train.add_argument("--pretrain-steps", type=int, default=300)
    train.add_argument("--eval-every", type=int, default=50)
    train.add_argument("--out", default="yollo.ckpt")
    train.add_argument("--checkpoint-dir", default=None,
                       help="run under the fault-tolerant supervisor, writing "
                            "rotated checkpoints here")
    train.add_argument("--checkpoint-every", type=int, default=50,
                       help="iterations between checkpoints "
                            "(with --checkpoint-dir)")
    train.add_argument("--resume", action="store_true",
                       help="resume bit-exactly from the newest checkpoint "
                            "in --checkpoint-dir")
    train.add_argument("--quiet", action="store_true")
    train.add_argument("--workers", type=int, default=1,
                       help="data-parallel worker processes; >1 trains via "
                            "repro.dist with bit-exact results")
    train.add_argument("--grad-shards", type=int, default=4,
                       help="micro-batch slots per global batch "
                            "(fixed across world sizes)")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="evaluate a checkpoint")
    _add_common(evaluate)
    evaluate.add_argument("--model", required=True)
    _add_preset(evaluate, "yollo")
    evaluate.add_argument("--pretrain-steps", type=int, default=1)
    evaluate.set_defaults(func=cmd_evaluate)

    ground = sub.add_parser("ground", help="ground one query in a val image")
    _add_common(ground)
    ground.add_argument("--model", required=True)
    _add_preset(ground, "yollo")
    ground.add_argument("--pretrain-steps", type=int, default=1)
    ground.add_argument("--query", default=None,
                        help="free-form query (defaults to the sample's)")
    ground.add_argument("--index", type=int, default=0)
    ground.set_defaults(func=cmd_ground)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="benchmark the micro-batching serving engine vs naive grounding")
    _add_common(serve_bench)
    serve_bench.add_argument("--model", default=None,
                             help="checkpoint to serve (default: fresh weights)")
    _add_preset(serve_bench, "tiny")
    serve_bench.add_argument("--pretrain-steps", type=int, default=1)
    serve_bench.add_argument("--requests", type=int, default=128,
                             help="synthetic trace length")
    serve_bench.add_argument("--repeat-fraction", type=float, default=0.3,
                             help="fraction of requests repeating earlier ones")
    serve_bench.add_argument("--max-batch", type=int, default=16)
    serve_bench.add_argument("--cache-size", type=int, default=256,
                             help="LRU result-cache entries (0 disables)")
    serve_bench.add_argument("--compiled", action="store_true",
                             help="serve through graph-compiled plans "
                                  "(trace once per batch shape, replay)")
    serve_bench.set_defaults(func=cmd_serve_bench)

    fleet = sub.add_parser(
        "serve-fleet",
        help="soak a fault-tolerant replica fleet against a timed trace")
    _add_common(fleet)
    fleet.add_argument("--replicas", type=int, default=3,
                       help="serving replica processes")
    fleet.add_argument("--requests", type=int, default=120,
                       help="timed-trace length")
    fleet.add_argument("--rate", type=float, default=100.0,
                       help="mean arrival rate (requests/second)")
    fleet.add_argument("--repeat-fraction", type=float, default=0.3)
    fleet.add_argument("--deadline", type=float, default=10.0,
                       help="per-attempt deadline in seconds")
    fleet.add_argument("--max-queue", type=int, default=128,
                       help="admission queue bound (full queue sheds)")
    fleet.add_argument("--max-batch", type=int, default=8)
    fleet.add_argument("--cache-size", type=int, default=256,
                       help="per-replica LRU entries (0 disables)")
    fleet.add_argument("--router-cache", type=int, default=256,
                       help="router-tier shared response cache entries "
                            "(0 disables); repeats are answered before "
                            "admission and survive replica respawns, and "
                            "a rolling reload bumps the cache's weights "
                            "epoch so stale boxes are never served")
    fleet.add_argument("--simulated", action="store_true",
                       help="serve a fixed-latency simulated model instead "
                            "of a real YOLLO grounder")
    fleet.add_argument("--trace-mix", type=_trace_mix_name, default=None,
                       metavar="NAME",
                       help="replay a registered scenario trace mix "
                            "(repro.scenarios) against oracle replicas "
                            "serving ground-truth ranked answers; the soak "
                            "reports per-scenario p99 and fails on any "
                            "false \"found\" for a no-target query")
    fleet.add_argument("--presets", type=_preset_list, default=None,
                       metavar="A,B",
                       help="repro.zoo presets to serve (default tiny): "
                            "one replica group per preset, model-tagged "
                            "routing, preset-keyed shared cache; the soak "
                            "asserts every response is bit-identical to "
                            "its preset's single-engine answer")
    fleet.add_argument("--latency", type=float, default=0.002,
                       help="simulated per-batch forward latency seconds "
                            "(with --simulated)")
    fleet.add_argument("--model", default=None,
                       help="checkpoint replicas serve (single preset)")
    fleet.add_argument("--pretrain-steps", type=int, default=1)
    fleet.add_argument("--kill-replica", nargs="*", default=None,
                       metavar="ID:ORDINAL",
                       help="deterministically crash replica ID on its "
                            "ORDINAL-th request (e.g. 0:3)")
    fleet.add_argument("--reload-at", type=int, default=None,
                       help="start a rolling hot weight reload after this "
                            "many requests have been submitted (single "
                            "preset)")
    fleet.add_argument("--slo-p99", type=float, default=None,
                       help="fail the soak if p99 latency exceeds this "
                            "many seconds")
    fleet.set_defaults(func=cmd_serve_fleet)

    prof = sub.add_parser(
        "profile",
        help="op-level profile of a train step, inference, or serving")
    _add_common(prof)
    prof.add_argument("--target", default="train-step",
                      choices=["train-step", "infer", "serve"])
    prof.add_argument("--model", default=None,
                      help="checkpoint to profile (default: fresh weights)")
    _add_preset(prof, "tiny")
    prof.add_argument("--pretrain-steps", type=int, default=1)
    prof.add_argument("--steps", type=int, default=1,
                      help="training steps to profile (train-step target)")
    prof.add_argument("--requests", type=int, default=24,
                      help="queries to profile (infer/serve targets)")
    prof.add_argument("--max-batch", type=int, default=16,
                      help="engine batch bound (serve target)")
    prof.add_argument("--top", type=int, default=12,
                      help="rows in the hot-op table")
    prof.add_argument("--out", default=None,
                      help="Chrome trace path (default profile-<target>.json)")
    prof.add_argument("--workers", type=int, default=1,
                      help="profile a multi-worker distributed train step "
                           "(rank 0's trace is exported)")
    prof.add_argument("--grad-shards", type=int, default=4,
                      help="micro-batch slots per global batch")
    prof.add_argument("--compiled", action="store_true",
                      help="profile graph-compiled inference "
                           "(infer/serve targets only)")
    prof.set_defaults(func=cmd_profile, scale=0.1)

    tables = sub.add_parser("tables", help="regenerate paper tables/figures")
    tables.add_argument("--preset", default=None, choices=["smoke", "bench", "full"])
    tables.add_argument("--only", nargs="*", default=None,
                        choices=["table1", "table2", "table3", "table4",
                                 "table5", "figure4", "figure5", "scenarios"])
    tables.set_defaults(func=cmd_tables)

    parse_cmd = sub.add_parser(
        "parse",
        help="parse referring expressions to relation trees (repro.lang)")
    parse_cmd.add_argument("--query", default=None,
                           help="one free-form expression to parse")
    parse_cmd.add_argument("--scenario", type=_scenario_name, default=None,
                           metavar="NAME",
                           help="also parse expressions sampled from a "
                                "registered scenario")
    parse_cmd.add_argument("--scenes", type=int, default=4,
                           help="scenes to generate (with --scenario)")
    parse_cmd.add_argument("--limit", type=int, default=8,
                           help="max scenario expressions to print")
    parse_cmd.add_argument("--format", type=_parse_format, default="tree",
                           metavar="FMT",
                           help="output format: " + ", ".join(PARSE_FORMATS))
    parse_cmd.add_argument("--max-length", type=int, default=24,
                           help="token budget for --format masks")
    parse_cmd.set_defaults(func=cmd_parse)

    experiments = sub.add_parser(
        "experiments",
        help="scenario workload reports (repro.scenarios registry)")
    experiments.add_argument("--preset", default=None,
                             choices=["smoke", "bench", "full"])
    experiments.add_argument("--scenario", type=_scenario_name, default=None,
                             metavar="NAME",
                             help="report one registered scenario "
                                  "(default: the full workload matrix)")
    experiments.add_argument("--model-preset", type=_preset_name, default=None,
                             metavar="NAME",
                             help="train/evaluate a repro.zoo model preset "
                                  "instead of the paper baseline (weights "
                                  "are cached per preset)")
    experiments.set_defaults(func=cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
