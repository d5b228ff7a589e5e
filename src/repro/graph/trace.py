"""Trace one eager forward pass into a static :class:`~repro.graph.ir.Graph`.

The tracer is a per-thread handler on :mod:`repro.autograd.interpose`,
the same op interposer the obs profiler uses: while a trace runs, every
primitive tensor method and autograd free function called *on the
tracing thread* records a node after computing its eager result, so
the captured values are — by construction — the eager values.  Calls
on other threads keep going to the op profiler, if one is active.  Two
extra interposition points cover what the op tables cannot see:

- ``Tensor.__init__`` is hooked so arrays produced by traced ops (or by
  registered external helpers) that get re-wrapped via ``Tensor(arr)``
  stay connected to their producing node ("alias" when the array is
  adopted as-is, a ``cast`` node when ``__init__`` copies to the default
  dtype).
- A registry of *external* numpy helpers (``rel2att._relation_weight_mask``
  and friends) records data-dependent pure-numpy computations as single
  opaque nodes; tuple returns get per-element ``tuple_get`` nodes.

Untracked tensors and arrays reaching a traced op (parameters, BN
running-stat reshapes, python scalars) are lifted to ``constant`` nodes
on first use.  Every op node keeps the original callable it recorded
(``attrs["fn"]``), which the executor's generic eager replay calls.

Composite tensor methods (``sub``, ``mean``, ``var``, ``stack``,
``softmax``) are recorded as one node each; the interposer's
re-entrancy guard suppresses their interior primitives, exactly like
the profiler's attribution rule.  The executor replicates each
composite's eager arithmetic operation-for-operation, which is what
keeps compiled outputs bit-exact.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import interpose
from repro.autograd.tensor import Tensor, as_tensor, no_grad
from repro.graph.ir import Graph, Node, Slot

#: External pure-numpy helpers recorded as single opaque nodes:
#: (module, attribute, node label).  These run data-dependent numpy code
#: outside the tensor op tables; capturing them whole keeps the graph
#: faithful without teaching the tracer their internals.
_EXTERNAL_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.rel2att", "_relation_weight_mask", "rel2att.weight_mask"),
    ("repro.core.rel2att", "_attention_normalizers", "rel2att.att_normalizers"),
    ("repro.core.rel2att", "_clause_pooling_arrays", "rel2att.clause_pooling"),
    ("repro.core.word2pix", "_word_mask_arrays", "word2pix.mask_arrays"),
)

#: Methods whose second operand must be coerced with ``as_tensor`` before
#: dispatch so the tracer sees the exact tensor the op consumes.
_BINARY_METHODS = frozenset(
    {"__add__", "__sub__", "__mul__", "__truediv__", "matmul", "maximum"}
)


class TraceError(RuntimeError):
    """Raised when a forward pass cannot be captured faithfully."""


def _extra_points() -> List[interpose.Point]:
    """``Tensor.__init__`` and the externals, on top of the op tables."""
    points: List[interpose.Point] = [
        (Tensor, "__init__", interpose.Op("init", "__init__", "init")),
    ]
    for module_name, attr, label in _EXTERNAL_FUNCTIONS:
        module = importlib.import_module(module_name)
        points.append((module, attr, interpose.Op("external", attr, label)))
    return points


# ----------------------------------------------------------------------
# Pytree flatten/unflatten (covers YolloOutput and nested containers)
# ----------------------------------------------------------------------
def _flatten_into(obj: Any, leaves: List[Any]) -> Tuple:
    if isinstance(obj, Tensor):
        leaves.append(obj)
        return ("tensor",)
    if isinstance(obj, np.ndarray):
        leaves.append(obj)
        return ("array",)
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return (kind, [_flatten_into(item, leaves) for item in obj])
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = [f.name for f in dataclasses.fields(obj)]
        specs = [_flatten_into(getattr(obj, n), leaves) for n in names]
        return ("dataclass", type(obj), names, specs)
    if isinstance(obj, dict):
        keys = list(obj.keys())
        return ("dict", keys, [_flatten_into(obj[k], leaves) for k in keys])
    return ("literal", obj)


def tree_flatten(obj: Any) -> Tuple[List[Any], Tuple]:
    """Split nested containers into (tensor/array leaves, spec)."""
    leaves: List[Any] = []
    spec = _flatten_into(obj, leaves)
    return leaves, spec


def tree_unflatten(spec: Tuple, leaves: Iterator[Any]) -> Any:
    """Rebuild the traced structure from a leaf iterator.

    ``tensor`` leaves are wrapped back into (untracked) :class:`Tensor`
    objects; ``array`` leaves stay plain arrays.
    """
    kind = spec[0]
    if kind == "tensor":
        leaf = next(leaves)
        return leaf if isinstance(leaf, Tensor) else Tensor(leaf)
    if kind == "array":
        return next(leaves)
    if kind == "literal":
        return spec[1]
    if kind in ("list", "tuple"):
        items = [tree_unflatten(s, leaves) for s in spec[1]]
        return items if kind == "list" else tuple(items)
    if kind == "dataclass":
        _, cls, names, specs = spec
        return cls(**{n: tree_unflatten(s, leaves) for n, s in zip(names, specs)})
    if kind == "dict":
        _, keys, specs = spec
        return {k: tree_unflatten(s, leaves) for k, s in zip(keys, specs)}
    raise TraceError(f"unknown pytree spec kind: {kind!r}")


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Interposer handler that records one forward pass on its thread."""

    def __init__(self, name: str):
        self.graph = Graph(name)
        # id() keyed: strong keepalive refs below prevent id reuse while
        # the trace is alive.
        self._tensor_nodes: Dict[int, Node] = {}
        self._array_nodes: Dict[int, Node] = {}
        self._keepalive: List[Any] = []

    # ------------------------------------------------------------------
    # Node registration / resolution
    # ------------------------------------------------------------------
    def register_tensor(self, tensor: Tensor, node: Node) -> None:
        self._tensor_nodes[id(tensor)] = node
        self._keepalive.append(tensor)
        # The payload array resolves to the same node, so a later
        # ``Tensor(t.data)`` or external call consuming it stays wired.
        self._array_nodes[id(tensor.data)] = node
        self._keepalive.append(tensor.data)

    def register_array(self, array: np.ndarray, node: Node) -> None:
        self._array_nodes[id(array)] = node
        self._keepalive.append(array)

    def node_for(self, value: Any) -> Optional[Node]:
        """Node producing ``value``; untracked tensors/arrays become constants."""
        if isinstance(value, Tensor):
            node = self._tensor_nodes.get(id(value))
            if node is None:
                node = self.graph.add_constant(value.data, name=value.name or "const")
                self.register_tensor(value, node)
            return node
        if isinstance(value, np.ndarray):
            node = self._array_nodes.get(id(value))
            if node is None:
                node = self.graph.add_constant(value, name="const")
                self.register_array(value, node)
            return node
        return None

    def _template(self, value: Any, inputs: List[Node]) -> Any:
        """Replace tensors/arrays with :class:`Slot` markers, recursively."""
        if isinstance(value, (Tensor, np.ndarray)):
            node = self.node_for(value)
            inputs.append(node)
            return Slot(len(inputs) - 1)
        if isinstance(value, (list, tuple)):
            items = [self._template(item, inputs) for item in value]
            return items if isinstance(value, list) else tuple(items)
        return value

    # ------------------------------------------------------------------
    # Interposer handler
    # ------------------------------------------------------------------
    def intercept(self, op: interpose.Op, fn: Callable, args: tuple, kwargs: dict):
        if op.kind == "init":
            fn(*args, **kwargs)
            self._adopt(*args, **kwargs)
            return None
        if op.attr in _BINARY_METHODS and len(args) > 1:
            args = (args[0], as_tensor(args[1])) + args[2:]
        out = interpose.call_guarded(fn, args, kwargs)
        self._record(op, fn, args, kwargs, out)
        return out

    def _record(self, op: interpose.Op, fn: Callable,
                args: Sequence[Any], kwargs: Dict[str, Any], out: Any) -> None:
        inputs: List[Node] = []
        attrs = {
            "kind": op.kind, "attr": op.attr, "fn": fn,
            "args": tuple(self._template(a, inputs) for a in args),
            "kwargs": {k: self._template(v, inputs) for k, v in kwargs.items()},
        }
        if op.kind != "external":
            if not isinstance(out, Tensor):
                raise TraceError(f"traced op {op.label!r} returned non-Tensor {type(out)!r}")
            node = self.graph.add_node(op.label, inputs, attrs, value=out.data, name=op.label)
            self.register_tensor(out, node)
            return
        node = self.graph.add_node("external", inputs, attrs, value=out, name=op.label)
        if isinstance(out, np.ndarray):
            node.set_value(out)
            self.register_array(out, node)
        elif isinstance(out, tuple):
            for index, element in enumerate(out):
                if not isinstance(element, np.ndarray):
                    continue
                getter = self.graph.add_node(
                    "tuple_get", [node], {"kind": "tuple_get", "index": index},
                    value=element, name=f"{op.label}[{index}]",
                )
                self.register_array(element, getter)
        else:
            raise TraceError(f"external {op.label!r} returned unsupported {type(out)!r}")

    def _adopt(self, tensor: Tensor, data: Any, *_, **__) -> None:
        """Wire a freshly constructed tensor to the node producing its data."""
        source = data.data if isinstance(data, Tensor) else data
        if not isinstance(source, np.ndarray):
            return
        node = self._array_nodes.get(id(source))
        if node is None:
            return
        if tensor.data is source:
            # Adopted as-is: the new tensor aliases the node's value.
            self._tensor_nodes[id(tensor)] = node
            self._keepalive.append(tensor)
        else:
            # __init__ copied (dtype cast): record it so the compiled
            # plan casts to the dtype the trace saw.
            cast = self.graph.add_node(
                "cast", [node], {"kind": "cast"}, value=tensor.data, name="cast",
            )
            self.register_tensor(tensor, cast)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
class TracedGraph:
    """A captured forward pass: graph + argument binding + output pytree."""

    def __init__(self, graph: Graph, out_spec: Tuple,
                 input_binding: List[Tuple[str, Any]], fn_name: str):
        self.graph = graph
        self.out_spec = out_spec
        #: Per positional argument: ("array", input_index) when the
        #: argument was lifted to a graph input, ("literal", value)
        #: when it was baked into the trace (ints, None masks, flags).
        self.input_binding = input_binding
        self.fn_name = fn_name

    def bind(self, args: Sequence[Any]) -> List[np.ndarray]:
        """Map call arguments onto the graph's input nodes, in order."""
        if len(args) != len(self.input_binding):
            raise TraceError(
                f"{self.fn_name} traced with {len(self.input_binding)} args, "
                f"called with {len(args)}"
            )
        arrays: List[np.ndarray] = [None] * len(self.graph.inputs)  # type: ignore
        for value, (kind, ref) in zip(args, self.input_binding):
            if kind != "array":
                continue
            data = value.data if isinstance(value, Tensor) else np.asarray(value)
            arrays[ref] = data
        return arrays

    def unflatten(self, leaves: Sequence[Any]) -> Any:
        return tree_unflatten(self.out_spec, iter(leaves))

    def __repr__(self) -> str:
        return f"TracedGraph({self.fn_name}: {self.graph.summary()})"


def trace(fn: Callable, *args: Any, name: str = "") -> TracedGraph:
    """Run ``fn(*args)`` once under the tracer and return its graph.

    Runs under ``no_grad`` (plans are inference-only).  Only this
    thread's ops are recorded, so traces on different threads may run
    at once and an active op profiler keeps recording every other
    thread; a nested trace on the same thread raises ``RuntimeError``.
    Tensor and ndarray positional arguments become graph inputs; every
    other argument is baked into the trace as a literal.
    """
    fn_name = name or getattr(fn, "__qualname__", getattr(fn, "__name__", "fn"))
    tracer = Tracer(fn_name)
    with no_grad():
        input_binding: List[Tuple[str, Any]] = []
        for position, arg in enumerate(args):
            if isinstance(arg, Tensor):
                node = tracer.graph.add_input(f"arg{position}", arg.data)
                tracer.register_tensor(arg, node)
                input_binding.append(("array", len(tracer.graph.inputs) - 1))
            elif isinstance(arg, np.ndarray):
                node = tracer.graph.add_input(f"arg{position}", arg)
                tracer.register_array(arg, node)
                input_binding.append(("array", len(tracer.graph.inputs) - 1))
            else:
                input_binding.append(("literal", arg))
        interpose.attach(tracer, this_thread=True, extra=_extra_points())
        try:
            out = fn(*args)
        finally:
            interpose.detach(tracer)

    leaves, spec = tree_flatten(out)
    if not leaves:
        raise TraceError(f"{fn_name} returned no tensor outputs")
    tracer.graph.outputs = [tracer.node_for(leaf) for leaf in leaves]
    return TracedGraph(tracer.graph, spec, input_binding, fn_name)
