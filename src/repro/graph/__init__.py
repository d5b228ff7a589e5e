"""Traced inference graphs: IR, optimisation passes, planned execution.

This subsystem turns one eager forward pass of a model built on
:mod:`repro.autograd` into a static plan that replays the same numpy
arithmetic without rebuilding the dynamic tape:

- :mod:`repro.graph.ir` — the graph IR: :class:`Node` (input / constant
  / op) and :class:`Graph` (nodes in execution order, explicit tensor
  edges).
- :mod:`repro.graph.trace` — :func:`trace` runs a function once with a
  per-thread handler on :mod:`repro.autograd.interpose` (the op
  interposer the profiler also uses) and records every primitive op,
  external numpy helper, and constant it touches on that thread.
- :mod:`repro.graph.passes` — dead-node elimination, constant folding of
  weight subgraphs, BatchNorm folding (running-stats buffers collapse
  into one ``bn_affine`` node), and conv/bias/BN/ReLU epilogue fusion.
- :mod:`repro.graph.executor` — :class:`ExecutionPlan` (topologically
  scheduled kernels, buffer-liveness analysis that lays output buffers
  and conv scratch out at byte offsets in one workspace, and a checked
  first run at build time) and :class:`PlanCache` (plans keyed on input
  shapes, so dynamic serving batches compile once per shape; all of a
  cache's plans share one workspace sized to the largest and run one at
  a time under its lock).

Bit-exactness is the contract: every kernel replicates the eager numpy
arithmetic operation for operation, and plan construction is the
plan's first run, chained through its workspace, with each kernel's
output verified bitwise against the traced value.  A node that
disagrees falls back to eager replay, which must agree; the run's
outputs are the answer for the traced inputs.

Quickstart::

    model.eval().compile()                    # YolloModel
    predictions = model.predict(images, ids)  # plans build lazily per shape

    from repro.graph import trace, optimize_graph, ExecutionPlan
    traced = trace(fn, x)                     # any Tensor function
    optimize_graph(traced.graph)
    plan = ExecutionPlan(traced)
    y0 = plan.first_answer()                  # fn(x), from the checked first run
    y = plan.run(x.data)
"""

from repro.graph.ir import Graph, Node
from repro.graph.trace import TracedGraph, TraceError, trace
from repro.graph.passes import (
    eliminate_dead_nodes,
    fold_batchnorm,
    fold_constants,
    fuse_epilogues,
    optimize_graph,
)
from repro.graph.executor import ExecutionPlan, PlanCache

__all__ = [
    "Graph",
    "Node",
    "TracedGraph",
    "TraceError",
    "trace",
    "eliminate_dead_nodes",
    "fold_batchnorm",
    "fold_constants",
    "fuse_epilogues",
    "optimize_graph",
    "ExecutionPlan",
    "PlanCache",
]
