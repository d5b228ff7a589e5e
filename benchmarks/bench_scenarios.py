"""Scenario workloads — per-scenario serving p99 and no-target accuracy.

Replays the ``mixed`` trace mix (driving + crowded + weak) against an
oracle replica fleet serving ground-truth ranked answers, with a
rolling weight reload fired mid-soak, and records the baselines this
PR's workload matrix introduces:

* per-scenario p99 latency — one slow scenario cannot hide inside the
  aggregate percentile;
* no-target accuracy — every query whose referent is absent must come
  back ``not_found``; a single false "found" fails the benchmark;
* structured-protocol integrity across the reload — post-reload
  responses must carry the reloaded weights' version (the ranked
  response analogue of the stale-box invariant).

Numbers land in ``results/scenarios.txt`` and the consolidated
``results/summary.json`` via ``run_all.py``.
"""

import dataclasses
import faulthandler

import numpy as np
import pytest
from conftest import write_artifact

from repro.runtime import CheckpointManager
from repro.scenarios import build_oracle_grounder, build_trace_mix
from repro.serve import FleetConfig, FleetRouter, ReplicaSpec, run_soak
from repro.utils import seed_everything

pytestmark = pytest.mark.slow

REPLICAS = 2
REQUESTS = 90
RATE_QPS = 150.0
SCENES_PER_SCENARIO = 5
MODEL_LATENCY = 0.002
RELOAD_AT = REQUESTS // 2
SLO_P99 = 2.0  # seconds — generous; correctness is the hard assertion


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(300.0, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def test_mixed_scenario_soak_baselines(results_dir, tmp_path):
    seed_everything(20240809)
    trace, answers = build_trace_mix(
        "mixed", num_requests=REQUESTS, rate_qps=RATE_QPS,
        scenes_per_scenario=SCENES_PER_SCENARIO)
    no_target_requests = sum(t.expect_not_found for t in trace)
    assert no_target_requests > 0, (
        "trace mix produced no no-target queries; enlarge the pool")

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
        f"Mixed scenario soak ({REQUESTS} requests @ {RATE_QPS:.0f} qps, "
        f"{REPLICAS} replicas, reload at #{RELOAD_AT}, "
        f"{MODEL_LATENCY * 1e3:.0f}ms oracle forward)",
        f"  ok/shed/deadline/failed/lost : {report.ok}/{report.shed}/"
        f"{report.deadline}/{report.failed}/{report.lost}",
        f"  no-target queries            : {report.no_target_requests} "
        f"({report.false_found} false-found, "
        f"accuracy {no_target_accuracy:.2%})",
        f"  stale after reload           : {report.stale_served}",
        f"  aggregate p99                : "
        f"{report.stats.latency.p99 * 1e3:8.2f} ms "
        f"(n={report.stats.latency.count})",
    ]
    for name, latency in sorted(report.scenario_latency.items()):
        lines.append(f"  {name:<28} p99: {latency.p99 * 1e3:8.2f} ms "
                     f"(n={latency.count})")
    lines.append(
        f"  router cache hit rate        : "
        f"{report.stats.cache_hit_rate:.2%} epoch={report.stats.cache_epoch}")
    write_artifact(results_dir, "scenarios.txt", "\n".join(lines))

    assert not violations, "; ".join(violations)
    assert report.false_found == 0
    assert report.lost == 0
    assert report.stale_served == 0
    assert set(report.scenario_latency) == {"driving", "crowded", "weak"}
