"""Structured query understanding — parse throughput and the
compositional soak.

Two benchmarks for the :mod:`repro.lang` subsystem:

* parse throughput (queries/sec) over expressions drawn from every
  registered scenario, with the non-trivial-parse rate alongside — a
  regression here means the recursive-descent grammar stopped covering
  a generator's surface forms;
* the ``compositional`` trace mix soaked against an oracle replica
  fleet with a rolling weight reload mid-soak: anaphora-driven
  no-target queries must come back ``not_found`` (a single false
  "found" fails), and per-scenario p99 is recorded.

Numbers land in ``results/lang.txt`` and the consolidated
``results/summary.json`` via ``run_all.py``.
"""

import dataclasses
import faulthandler
import time

import numpy as np
import pytest
from conftest import write_artifact

from repro.lang import clause_token_masks, parse
from repro.runtime import CheckpointManager
from repro.scenarios import (
    available_scenarios,
    build_oracle_grounder,
    build_trace_mix,
    get_scenario,
)
from repro.serve import FleetConfig, FleetRouter, ReplicaSpec, run_soak
from repro.utils import seed_everything

pytestmark = pytest.mark.slow

SCENES_PER_SCENARIO = 4
PARSE_REPEATS = 20
MAX_LENGTH = 24

REPLICAS = 2
REQUESTS = 80
RATE_QPS = 150.0
MODEL_LATENCY = 0.002
RELOAD_AT = REQUESTS // 2
SLO_P99 = 2.0  # seconds — generous; correctness is the hard assertion


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(300.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def test_parse_throughput(results_dir):
    seed_everything(20250810)
    queries = []
    for name in available_scenarios():
        samples = get_scenario(name).eval_samples(SCENES_PER_SCENARIO)
        queries.extend(sample.query for sample in samples)
    assert queries

    parse(queries[0])  # warm imports outside the timed region
    start = time.perf_counter()
    trees = []
    for _ in range(PARSE_REPEATS):
        trees = [parse(query) for query in queries]
    elapsed = time.perf_counter() - start
    parsed = len(queries) * PARSE_REPEATS
    throughput = parsed / elapsed

    non_trivial = sum(not tree.is_trivial for tree in trees)
    conditioned = sum(
        clause_token_masks(tree, MAX_LENGTH) is not None for tree in trees)

    lines = [
        f"Parse throughput ({len(queries)} scenario expressions x "
        f"{PARSE_REPEATS} repeats)",
        f"  parse throughput             : {throughput:10.0f} queries/sec",
        f"  non-trivial parse rate       : "
        f"{non_trivial / len(trees):.2%}",
        f"  clause-conditioned fraction  : "
        f"{conditioned / len(trees):.2%}",
    ]
    write_artifact(results_dir, "lang.txt", "\n".join(lines))

    # Every scenario expression must parse to a non-trivial tree.
    assert non_trivial == len(trees)
    assert throughput > 100.0


def test_compositional_soak(results_dir, tmp_path):
    seed_everything(20250810)
    trace, answers = build_trace_mix(
        "compositional", num_requests=REQUESTS, rate_qps=RATE_QPS,
        scenes_per_scenario=SCENES_PER_SCENARIO)
    no_target_requests = sum(t.expect_not_found for t in trace)
    assert no_target_requests > 0, (
        "compositional trace produced no anaphoric no-target queries")

    spec = ReplicaSpec(
        builder=build_oracle_grounder,
        builder_kwargs={"answers": answers, "latency": MODEL_LATENCY},
        max_batch=8, cache_size=64)
    config = FleetConfig(replicas=REPLICAS, max_queue=256,
                         default_deadline=60.0, router_cache=256)
    manager = CheckpointManager(str(tmp_path))
    checkpoint = manager.save(
        {"version": np.array([2.0]), "bias": np.array([1.0])}, 1)

    with FleetRouter(spec, config) as router:
        assert router.wait_healthy(120.0), "fleet never became healthy"
        report = run_soak(
            router, trace, reload_at=RELOAD_AT,
            reload_checkpoint=checkpoint,
            post_reload_check=lambda r: r.version == 2.0)
        router.wait_healthy(30.0)
        report = dataclasses.replace(report, stats=router.stats())

    violations = report.check(slo_p99=SLO_P99,
                              expected_replicas=REPLICAS,
                              scenario_slo_p99=SLO_P99)
    no_target_accuracy = (
        1.0 - report.false_found / max(1, report.no_target_requests))

    lines = [
        f"Compositional soak ({REQUESTS} requests @ {RATE_QPS:.0f} qps, "
        f"{REPLICAS} replicas, reload at #{RELOAD_AT})",
        f"  ok/shed/deadline/failed/lost : {report.ok}/{report.shed}/"
        f"{report.deadline}/{report.failed}/{report.lost}",
        f"  no-target (anaphora) queries : {report.no_target_requests} "
        f"({report.false_found} false-found, "
        f"accuracy {no_target_accuracy:.2%})",
        f"  stale after reload           : {report.stale_served}",
        f"  aggregate p99                : "
        f"{report.stats.latency_p99 * 1e3:8.2f} ms",
    ]
    for name, p99 in sorted(report.scenario_p99.items()):
        lines.append(f"  {name:<28} p99: {p99 * 1e3:8.2f} ms")
    write_artifact(results_dir, "lang_soak.txt", "\n".join(lines))

    assert not violations, "; ".join(violations)
    assert report.false_found == 0
    assert report.lost == 0
    assert report.stale_served == 0
    assert set(report.scenario_p99) == {"compositional"}
