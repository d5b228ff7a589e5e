"""Registry-driven workload scenarios beyond the plain RefCOCO regime.

Importing this package registers the three scenario families —

* ``driving``  — road scenes with ego-perspective expressions
  ("the second car on my right", "the pedestrian past the blue truck");
* ``crowded``  — dense distractor scenes emitting multi-target and
  verified no-target queries, which force the structured
  :class:`~repro.core.GroundingResponse` protocol end to end;
* ``weak``     — image-level pairing supervision only: contrastive
  two-tower training, pointing-game eval;
* ``compositional`` — multi-sentence and multi-clause queries (anaphora,
  nested relatives, negation, conjunction), generated and verified
  through the :mod:`repro.lang` relation-tree parser;

— plus one named *trace mix* per scenario and a combined ``mixed``
blend, so serving harnesses (``serve-fleet --trace-mix``, the soak
benchmarks) can replay heterogeneous traffic with per-scenario latency
and correctness accounting.  See :mod:`repro.scenarios.registry` for
the registry/lookup API and :mod:`repro.scenarios.oracle` for the
ground-truth replica grounder used by soak correctness assertions.
"""

from repro.scenarios.registry import (
    RankedAnswer,
    Scenario,
    ScenarioSample,
    TraceMix,
    UnknownScenarioError,
    answer_table,
    available_scenarios,
    available_trace_mixes,
    build_trace_mix,
    get_scenario,
    get_trace_mix,
    ranked_answer,
    register_scenario,
    register_trace_mix,
)

# Importing the scenario modules registers them.
from repro.scenarios import crowded, driving, weak  # noqa: F401  (registration)
from repro.scenarios import compositional  # noqa: F401  (registration)
from repro.scenarios.compositional import (
    build_compositional,
    generate_compositional_scene,
)
from repro.scenarios.crowded import build_crowded, generate_crowded_scene
from repro.scenarios.driving import (
    DrivingConstraints,
    DrivingExpressionGenerator,
    DrivingSceneGenerator,
    build_driving,
)
from repro.lang.semantics import ego_distance, ego_side
from repro.scenarios.oracle import OracleRankedGrounder, build_oracle_grounder
from repro.scenarios.weak import (
    WeakContrastiveModel,
    build_weak,
    contrastive_loss,
    pointing_accuracy,
    train_weak_model,
)

#: One mix per scenario plus the combined blend the acceptance soak uses.
register_trace_mix(TraceMix(name="driving", weights={"driving": 1.0}))
register_trace_mix(TraceMix(name="crowded", weights={"crowded": 1.0}))
register_trace_mix(TraceMix(name="weak", weights={"weak": 1.0}))
register_trace_mix(TraceMix(
    name="mixed",
    weights={"driving": 1.0, "crowded": 1.0, "weak": 1.0},
))

__all__ = [
    "Scenario",
    "ScenarioSample",
    "TraceMix",
    "RankedAnswer",
    "UnknownScenarioError",
    "register_scenario",
    "register_trace_mix",
    "available_scenarios",
    "available_trace_mixes",
    "get_scenario",
    "get_trace_mix",
    "ranked_answer",
    "answer_table",
    "build_trace_mix",
    "build_driving",
    "build_crowded",
    "build_weak",
    "build_compositional",
    "generate_crowded_scene",
    "generate_compositional_scene",
    "DrivingSceneGenerator",
    "DrivingExpressionGenerator",
    "DrivingConstraints",
    "ego_side",
    "ego_distance",
    "WeakContrastiveModel",
    "train_weak_model",
    "contrastive_loss",
    "pointing_accuracy",
    "OracleRankedGrounder",
    "build_oracle_grounder",
]
