"""Optimisation passes over the traced graph IR.

All passes preserve bit-exactness: constant folding *reuses the arrays
already computed during the trace* (the eager values), and the fused
node kernels in the executor replicate the eager arithmetic
operation-for-operation.  Passes therefore never re-derive numerics —
they only restructure which kernels run at execution time.

Pass order matters and :func:`optimize_graph` applies the canonical
sequence:

1. :func:`fold_constants` — ops whose inputs are all constants become
   constants (collapses BN running-stat arithmetic, weight reshapes,
   position-table slices, and mask externals traced with a baked-in
   ``token_mask``).
2. :func:`fold_batchnorm` — the eval-mode BatchNorm pattern
   ``sub → div → mul → add`` (each right operand a per-channel constant)
   collapses into one ``bn_affine`` node, turning four full-tensor
   traversals into one in-place epilogue.
3. :func:`fuse_epilogues` — ``conv2d``/``add`` followed by single-use
   ``bn_affine``/``relu`` chains fuse into one node executed as an
   in-place epilogue on the producer's output buffer.
4. :func:`eliminate_dead_nodes` — drops nodes unreachable from the
   outputs (e.g. the final Rel2Att block's unused query-side update).
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.ir import Graph, Node

#: Ops never folded even when their inputs are constant: inputs bind at
#: run time, constants already are folded.
_NON_FOLDABLE = frozenset({"input", "constant"})


def fold_constants(graph: Graph) -> int:
    """Turn ops with all-constant inputs into constants; returns count.

    The folded value is the array captured during the trace, so folding
    is bit-exact by construction — no arithmetic is re-run.
    """
    folded = 0
    for node in graph.nodes:
        if node.op in _NON_FOLDABLE or node.value is None:
            continue
        if node.inputs and all(src.is_constant for src in node.inputs):
            node.op = "constant"
            node.inputs = []
            node.attrs = {}
            folded += 1
        elif not node.inputs and node.op != "constant":
            # Externals traced with no tracked operands (e.g. the
            # relation weight mask when token_mask is baked in).
            node.op = "constant"
            node.attrs = {}
            folded += 1
    return folded


def eliminate_dead_nodes(graph: Graph) -> int:
    """Drop nodes not reachable from the outputs; returns removed count.

    Input nodes are always kept — execution binds arguments to them even
    when a pass (or the model itself) leaves one unused.
    """
    live = {node.id for node in graph.outputs}
    for node in reversed(graph.nodes):
        if node.id in live:
            for src in node.inputs:
                live.add(src.id)
    dead = [
        node for node in graph.nodes
        if node.id not in live and not node.is_input
    ]
    graph.remove(dead)
    return len(dead)


def _is_channel_constant(node: Node, like: Node) -> bool:
    """A (1, C, 1, 1) constant broadcasting over ``like``'s channels."""
    if not node.is_constant or node.shape is None or like.shape is None:
        return False
    if len(node.shape) != 4 or len(like.shape) != 4:
        return False
    return (
        node.shape[0] == node.shape[2] == node.shape[3] == 1
        and node.shape[1] == like.shape[1]
    )


def fold_batchnorm(graph: Graph) -> int:
    """Collapse eval-mode BatchNorm chains into ``bn_affine`` nodes.

    Matches ``add(mul(div(sub(x, mean), denom), scale), shift)`` where
    every right operand is a per-channel ``(1, C, 1, 1)`` constant (the
    running stats fold to constants in :func:`fold_constants`) and every
    intermediate value has exactly one consumer.  One pass over the
    nodes and one consumer map: each ``bn_affine`` takes its chain's
    ``sub`` position.  Returns the number of chains folded.
    """
    consumers = graph.consumers()
    folded: Dict[int, Node] = {}  # sub node id -> its bn_affine
    dead = set()
    for sub_node in graph.nodes:
        if sub_node.op != "sub" or len(sub_node.inputs) != 2:
            continue
        x, mean = sub_node.inputs
        if not _is_channel_constant(mean, sub_node):
            continue
        chain = [sub_node]
        for expected_op in ("div", "mul", "add"):
            users = consumers[chain[-1].id]
            if len(users) != 1:
                break
            nxt = users[0]
            if nxt.op != expected_op or len(nxt.inputs) != 2 or nxt.inputs[0] is not chain[-1]:
                break
            if not _is_channel_constant(nxt.inputs[1], nxt):
                break
            chain.append(nxt)
        if len(chain) != 4:
            continue
        div_node, mul_node, add_node = chain[1], chain[2], chain[3]
        fused = graph.make_node(
            "bn_affine",
            [x, mean, div_node.inputs[1], mul_node.inputs[1], add_node.inputs[1]],
            {"kind": "bn_affine"},
            value=add_node.value,
            name="bn_affine",
        )
        consumers[fused.id] = consumers[add_node.id]
        graph.replace_uses(add_node, fused, consumers[fused.id])
        folded[sub_node.id] = fused
        dead.update(node.id for node in chain)
    graph.nodes = [folded.get(node.id, node) for node in graph.nodes
                   if node.id in folded or node.id not in dead]
    return len(folded)


#: Producer ops that accept a fused epilogue, and the epilogue ops that
#: may chain onto them.  Epilogues run in place on the producer's output
#: buffer, eliminating one full-tensor traversal and allocation each.
_EPILOGUE_PRODUCERS = frozenset({"conv2d", "add"})
_EPILOGUE_OPS = frozenset({"bn_affine", "relu"})


def fuse_epilogues(graph: Graph) -> int:
    """Fuse single-consumer ``bn_affine``/``relu`` chains onto producers.

    ``conv2d → bn_affine → relu`` becomes one ``conv2d`` node named
    ``conv2d+bn+relu`` whose kernel applies the epilogue in place before
    the output copy; residual ``add → relu`` likewise becomes
    ``add+relu``.  One pass over the nodes and one consumer map: a
    producer absorbs its whole epilogue chain when the pass reaches it,
    and a fusion only changes the consumers of the producer itself.
    Returns the number of epilogue ops fused away.
    """
    consumers = graph.consumers()
    fused = []
    for node in graph.nodes:
        if node.op not in _EPILOGUE_PRODUCERS:
            continue
        while len(consumers[node.id]) == 1:
            epilogue = consumers[node.id][0]
            if epilogue.op not in _EPILOGUE_OPS or epilogue.inputs[0] is not node:
                break
            steps: List[dict] = list(node.attrs.get("epilogue", []))
            if epilogue.op == "bn_affine":
                base = len(node.inputs)
                node.inputs = node.inputs + list(epilogue.inputs[1:])
                steps.append({"op": "bn_affine", "slots": [base + i for i in range(4)]})
                suffix = "bn"
            else:
                steps.append({"op": "relu"})
                suffix = "relu"
            node.attrs["epilogue"] = steps
            node.name = f"{node.name}+{suffix}"
            node.set_value(epilogue.value)
            consumers[node.id] = consumers[epilogue.id]
            graph.replace_uses(epilogue, node, consumers[node.id])
            fused.append(epilogue)
    graph.remove(fused)
    return len(fused)


def optimize_graph(graph: Graph) -> Dict[str, int]:
    """Run the canonical pass pipeline; returns per-pass counts."""
    counts = {
        "folded_constants": fold_constants(graph),
        "folded_batchnorm": fold_batchnorm(graph),
        "fused_epilogues": fuse_epilogues(graph),
    }
    counts["eliminated_dead"] = eliminate_dead_nodes(graph)
    return counts
