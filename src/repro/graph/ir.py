"""Graph IR: nodes with explicit tensor edges, in execution order.

A :class:`Graph` is a flat list of :class:`Node` objects appended in the
order the traced program executed them, which is by construction a
topological order; passes that rewrite the graph preserve it.  Three
node kinds exist:

- ``input`` — a placeholder bound at execution time (one per traced
  array argument).
- ``constant`` — a value captured at trace time (weights, masks, folded
  subgraphs).  ``node.value`` holds the array by reference, so plans see
  in-place weight mutation only after re-tracing — the model layer
  invalidates plans on ``load_state_dict``/``train`` for exactly this
  reason.
- everything else — an op labelled with the autograd table's name
  (``add``, ``conv2d``, ``rel2att.weight_mask``, …).  ``attrs`` carries
  the call template: the original args/kwargs with tensor operands
  replaced by :class:`Slot` markers that index into ``node.inputs``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Most frequent ops :meth:`Graph.summary` names.
SUMMARY_TOP = 12


class Slot:
    """Marker inside a call template: ``inputs[index]`` goes here."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"Slot({self.index})"


class Node:
    """One vertex of the IR.

    ``value`` is the array produced for this node during the trace (or a
    tuple of arrays for multi-output external nodes).  Constant folding
    reads it, and a plan's first run compares the node's kernel output
    with it and drops it right after (an output's, once the returned
    copy is checked); constants keep theirs for the plan's lifetime.
    """

    __slots__ = ("id", "op", "inputs", "attrs", "value", "shape", "dtype", "name")

    def __init__(self, node_id: int, op: str, inputs: Iterable["Node"] = (),
                 attrs: Optional[dict] = None, value=None, name: str = ""):
        self.id = node_id
        self.op = op
        self.inputs: List[Node] = list(inputs)
        self.attrs: dict = attrs if attrs is not None else {}
        self.name = name or op
        self.set_value(value)

    def set_value(self, value) -> None:
        self.value = value
        if isinstance(value, np.ndarray):
            self.shape: Optional[Tuple[int, ...]] = tuple(value.shape)
            self.dtype = value.dtype
        else:
            self.shape = None
            self.dtype = None

    @property
    def is_input(self) -> bool:
        return self.op == "input"

    @property
    def is_constant(self) -> bool:
        return self.op == "constant"

    @property
    def nbytes(self) -> int:
        return int(self.value.nbytes) if isinstance(self.value, np.ndarray) else 0

    def __repr__(self) -> str:
        ins = ",".join(str(i.id) for i in self.inputs)
        shape = "" if self.shape is None else f" {tuple(self.shape)}"
        return f"%{self.id}={self.name}({ins}){shape}"


class Graph:
    """An inference program: nodes in execution order plus the I/O lists."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: List[Node] = []
        self.inputs: List[Node] = []
        self.outputs: List[Node] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, op: str, inputs: Iterable[Node] = (),
                 attrs: Optional[dict] = None, value=None, name: str = "") -> Node:
        node = Node(self._next_id, op, inputs, attrs, value, name)
        self._next_id += 1
        self.nodes.append(node)
        return node

    def add_input(self, name: str, value: np.ndarray) -> Node:
        node = self.add_node("input", value=value, name=name)
        self.inputs.append(node)
        return node

    def add_constant(self, value, name: str = "constant") -> Node:
        return self.add_node("constant", value=value, name=name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def consumers(self) -> Dict[int, List[Node]]:
        """Map ``node.id`` to the nodes that read it."""
        table: Dict[int, List[Node]] = {node.id: [] for node in self.nodes}
        for node in self.nodes:
            for src in node.inputs:
                table[src.id].append(node)
        return table

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def find(self, op: str) -> List[Node]:
        return [node for node in self.nodes if node.op == op]

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def replace_uses(self, old: Node, new: Node, users: Iterable[Node]) -> None:
        """Redirect the edges from ``old`` to ``new`` in ``users`` (its
        consumers, from :meth:`consumers`) and in the output list."""
        for node in users:
            node.inputs = [new if src is old else src for src in node.inputs]
        self.outputs = [new if node is old else node for node in self.outputs]

    def remove(self, dead: Iterable[Node]) -> None:
        dead_ids = {node.id for node in dead}
        self.nodes = [node for node in self.nodes if node.id not in dead_ids]

    def make_node(self, op: str, inputs: Iterable[Node] = (),
                  attrs: Optional[dict] = None, value=None, name: str = "") -> Node:
        """Build a node without appending it (for pass-local insertion)."""
        node = Node(self._next_id, op, inputs, attrs, value, name)
        self._next_id += 1
        return node

    # ------------------------------------------------------------------
    # Debugging
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One line: node counts and the :data:`SUMMARY_TOP` commonest ops."""
        counts = sorted(self.op_counts().items(), key=lambda kv: -kv[1])
        ops = ", ".join(f"{op}x{n}" for op, n in counts[:SUMMARY_TOP])
        return (
            f"graph '{self.name}': {len(self.nodes)} nodes "
            f"({len(self.inputs)} inputs, {len(self.outputs)} outputs): {ops}"
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return self.summary()
