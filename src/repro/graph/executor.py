"""Planned execution of traced graphs: kernels, arena, plan cache.

An :class:`ExecutionPlan` compiles a :class:`~repro.graph.trace.TracedGraph`
into a flat list of kernel closures over a slot table.  Three properties
drive the design:

**Bit-exactness.**  Every kernel replicates the eager numpy arithmetic
operation-for-operation (``sub`` is IEEE-identical to ``add(neg)``,
``mean`` divides by the same ``float(count)`` scalar tensor, ``softmax``
repeats the shift/exp/sum sequence).  Plan construction *proves* this:
each kernel is executed once on the traced input values and its output
compared bitwise (shape, dtype, bytes) against the value the eager pass
produced.  Any kernel that disagrees — or raises — is replaced by a
generic eager replay: the original op the tracer recorded on the node,
called with the node's call template, so a plan can never silently
drift from eager semantics.  Ops without a dedicated kernel take the
same replay at build time; ``plan.fallbacks`` counts both.

**Allocation reuse.**  Buffer liveness analysis (aliases such as
``reshape``/``transpose`` extend their base buffer's lifetime) feeds a
persistent arena: output buffers are allocated once at build time,
pooled by ``(dtype, element count)``, and handed to later nodes as
earlier values die.  A node's inputs are released only *after* its own
output buffer is acquired, so a kernel never reads and writes the same
storage.  Convolutions run eager ``conv2d``'s own kernel (im2col gather
plus one batched GEMM, dilation included) with private pad/column
scratch buffers, writing straight into their NCHW arena buffer; max
pooling runs eager's ``_max_pool`` into its arena buffer the same way.

**Observability.**  When an op-level profiler is active, each kernel
execution is recorded via :meth:`Profiler.record_op` under the node's
(possibly fused) name — ``conv2d+bn+relu`` shows up as one op — and the
whole replay runs inside a ``graph.execute`` trace span.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.functional import _im2col, _max_pool, _pair
from repro.autograd.tensor import Tensor, _is_basic_index, no_grad
from repro.graph.ir import Graph, Node, Slot
from repro.graph.trace import TracedGraph
from repro.obs import trace_span

#: Ops whose kernels write into pooled arena buffers via ``out=``.
_POOLED_OPS = frozenset({
    "add", "sub", "mul", "div", "pow", "tanh", "matmul", "concatenate",
    "softmax", "bn_affine", "conv2d", "max_pool2d",
})

#: Ops whose output is a view of their (base) input buffer.
_VIEW_OPS = frozenset({"reshape", "transpose", "tuple_get"})


def _template_has_slot(template: Any) -> bool:
    if isinstance(template, Slot):
        return True
    if isinstance(template, (list, tuple)):
        return any(_template_has_slot(item) for item in template)
    return False


def _substitute(template: Any, values: Sequence[Any]) -> Any:
    """Fill :class:`Slot` markers in a call template with runtime values."""
    if isinstance(template, Slot):
        return values[template.index]
    if isinstance(template, (list, tuple)):
        items = [_substitute(item, values) for item in template]
        return items if isinstance(template, list) else tuple(items)
    return template


def _literal(args: Tuple, kwargs: Dict, position: int, name: str, default: Any) -> Any:
    """Extract a non-tensor call parameter from a recorded template."""
    if len(args) > position and not isinstance(args[position], Slot):
        return args[position]
    return kwargs.get(name, default)


def _bitwise_equal(a: Any, b: Any) -> bool:
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return False
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class CompileError(RuntimeError):
    """Raised when a traced graph cannot be planned."""


class _Arena:
    """Build-time buffer pool: flat arrays keyed by (dtype, element count)."""

    def __init__(self):
        self._free: Dict[Tuple[str, int], List[np.ndarray]] = {}
        self.allocated_bytes = 0
        self.buffer_count = 0
        self.reuse_count = 0

    def acquire(self, shape: Tuple[int, ...], dtype) -> Tuple[np.ndarray, Tuple[str, int], np.ndarray]:
        size = int(np.prod(shape)) if shape else 1
        key = (str(dtype), size)
        free = self._free.get(key)
        if free:
            flat = free.pop()
            self.reuse_count += 1
        else:
            flat = np.empty(size, dtype=dtype)
            self.allocated_bytes += int(flat.nbytes)
            self.buffer_count += 1
        return flat.reshape(shape), key, flat

    def release(self, key: Tuple[str, int], flat: np.ndarray) -> None:
        self._free.setdefault(key, []).append(flat)


class ExecutionPlan:
    """A compiled, replayable forward pass for one input signature."""

    def __init__(self, traced: TracedGraph):
        self.traced = traced
        self.graph: Graph = traced.graph
        self._generic_nodes: set = set()
        self._lock = threading.Lock()
        self._build()
        #: Nodes run by the generic eager replay, whether chosen at build
        #: time or after a kernel failed validation.
        self.fallbacks = len(self._generic_nodes)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        graph = self.graph
        self._slot_of: Dict[int, int] = {node.id: i for i, node in enumerate(graph.nodes)}
        self._slots: List[Any] = [None] * len(graph.nodes)
        self._input_slots = [self._slot_of[node.id] for node in graph.inputs]
        self._input_examples = [
            (tuple(node.shape or ()), node.dtype) for node in graph.inputs
        ]
        self._output_slots = [self._slot_of[node.id] for node in graph.outputs]

        for node in graph.nodes:
            if node.is_constant:
                self._slots[self._slot_of[node.id]] = node.value

        schedule = [n for n in graph.nodes if not (n.is_input or n.is_constant)]
        base = self._alias_bases(graph)
        last_use = self._liveness(graph, schedule, base)

        arena = _Arena()
        owned: Dict[int, Tuple[Tuple[str, int], np.ndarray]] = {}
        steps: List[Tuple[int, Callable[[], np.ndarray], Node]] = []
        for position, node in enumerate(schedule):
            out_buf = None
            if node.op in _POOLED_OPS and node.shape is not None:
                out_buf, key, flat = arena.acquire(node.shape, node.dtype)
                owned[node.id] = (key, flat)
            # Free inputs only after this node's buffer exists: a kernel
            # must never be handed its own operand's storage as output.
            for src_base in {base[src.id] for src in node.inputs}:
                if last_use.get(src_base) == position and src_base in owned:
                    key, flat = owned.pop(src_base)
                    arena.release(key, flat)
            kernel = self._build_kernel(node, out_buf)
            steps.append((self._slot_of[node.id], node, kernel))
        self.arena_bytes = arena.allocated_bytes
        self.arena_buffers = arena.buffer_count
        self.arena_reuses = arena.reuse_count

        self._validate(steps)
        self._steps = [
            (slot, kernel, node.name, node.shape, node.nbytes if node.value is not None else 0)
            for slot, node, kernel in steps
        ]
        # Traced activation values are no longer needed; keep constants.
        for node in schedule:
            node.value = None
        self.num_kernels = len(self._steps)

    def _alias_bases(self, graph: Graph) -> Dict[int, int]:
        base: Dict[int, int] = {}
        for node in graph.nodes:
            if node.inputs and self._is_alias(node):
                base[node.id] = base.get(node.inputs[0].id, node.inputs[0].id)
            else:
                base[node.id] = node.id
        return base

    @staticmethod
    def _is_alias(node: Node) -> bool:
        if node.op in _VIEW_OPS:
            return True
        if node.op == "index":
            args = node.attrs.get("args", ())
            index = args[1] if len(args) > 1 else None
            return _is_basic_index(index)
        if node.op == "cast":
            src = node.inputs[0]
            return node.dtype is not None and node.dtype == src.dtype
        return False

    def _liveness(self, graph: Graph, schedule: List[Node],
                  base: Dict[int, int]) -> Dict[int, float]:
        last_use: Dict[int, float] = {}
        for position, node in enumerate(schedule):
            for src in node.inputs:
                last_use[base[src.id]] = position
        for node in graph.outputs:
            last_use[base[node.id]] = float("inf")
        return last_use

    def _validate(self, steps: List[Tuple[int, Node, Callable]]) -> None:
        """Run every kernel on the traced values; fall back on mismatch.

        After each comparison the slot is reset to the traced value, so
        downstream kernels always validate against pristine eager inputs.
        """
        slots = self._slots
        for input_node in self.graph.inputs:
            slots[self._slot_of[input_node.id]] = input_node.value
        for index, (slot, node, kernel) in enumerate(steps):
            try:
                produced = kernel()
                ok = (
                    _bitwise_equal(produced, node.value)
                    if isinstance(node.value, np.ndarray)
                    else True  # tuple-valued externals checked via tuple_get
                )
            except Exception:
                ok = False
            if not ok:
                steps[index] = (slot, node, self._build_generic_kernel(node))
            slots[slot] = node.value

    # ------------------------------------------------------------------
    # Kernel construction
    # ------------------------------------------------------------------
    def _build_kernel(self, node: Node, out: Optional[np.ndarray]) -> Callable[[], Any]:
        slots = self._slots
        in_slots = [self._slot_of[src.id] for src in node.inputs]
        args = node.attrs.get("args", ())
        kwargs = node.attrs.get("kwargs", {})
        op = node.op

        if op == "conv2d":
            return self._build_conv_kernel(node, out)

        if op in ("add", "sub", "mul", "div"):
            ufunc = {
                "add": np.add, "sub": np.subtract, "mul": np.multiply,
                "div": np.true_divide,
            }[op]
            ia, ib = in_slots[0], in_slots[1]
            epilogue = node.attrs.get("epilogue")
            if epilogue:  # fused add+relu (residual shortcut)
                def kernel_fused():
                    ufunc(slots[ia], slots[ib], out=out)
                    np.multiply(out, out > 0, out=out)
                    return out
                return kernel_fused

            def kernel_binary():
                return ufunc(slots[ia], slots[ib], out=out)
            return kernel_binary

        if op == "tanh":
            ia = in_slots[0]

            def kernel_tanh():
                return np.tanh(slots[ia], out=out)
            return kernel_tanh

        if op == "pow":
            ia = in_slots[0]
            exponent = _literal(args, kwargs, 1, "exponent", None)

            def kernel_pow():
                return np.power(slots[ia], exponent, out=out)
            return kernel_pow

        if op == "matmul":
            ia, ib = in_slots[0], in_slots[1]

            def kernel_matmul():
                return np.matmul(slots[ia], slots[ib], out=out)
            return kernel_matmul

        if op == "concatenate":
            axis = _literal(args, kwargs, 1, "axis", 0)

            def kernel_concat():
                return np.concatenate([slots[i] for i in in_slots], axis=axis, out=out)
            return kernel_concat

        if op == "softmax":
            ia = in_slots[0]
            axis = _literal(args, kwargs, 1, "axis", -1)

            def kernel_softmax():
                x = slots[ia]
                np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
                np.exp(out, out=out)
                np.true_divide(out, out.sum(axis=axis, keepdims=True), out=out)
                return out
            return kernel_softmax

        if op == "sum":
            ia = in_slots[0]
            axis = _literal(args, kwargs, 1, "axis", None)
            keepdims = _literal(args, kwargs, 2, "keepdims", False)

            def kernel_sum():
                return slots[ia].sum(axis=axis, keepdims=keepdims)
            return kernel_sum

        if op in ("mean", "var"):
            return self._build_mean_var_kernel(node, in_slots, args, kwargs)

        if op == "bn_affine":
            ix = in_slots[0]
            mean, denom, scale, shift = (node.inputs[i].value for i in range(1, 5))

            def kernel_bn():
                np.subtract(slots[ix], mean, out=out)
                np.true_divide(out, denom, out=out)
                np.multiply(out, scale, out=out)
                np.add(out, shift, out=out)
                return out
            return kernel_bn

        if op == "reshape":
            ia = in_slots[0]
            shape = args[1:] if len(args) > 1 else (kwargs.get("shape"),)
            if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
                shape = tuple(shape[0])

            def kernel_reshape():
                return slots[ia].reshape(shape)
            return kernel_reshape

        if op == "transpose":
            ia = in_slots[0]
            axes = args[1:]
            ndim = len(node.inputs[0].shape or ())
            if not axes:
                axes = tuple(reversed(range(ndim)))
            elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
                axes = tuple(axes[0])

            def kernel_transpose():
                return slots[ia].transpose(axes)
            return kernel_transpose

        if op == "index":
            ia = in_slots[0]
            index = args[1] if len(args) > 1 else None
            if _template_has_slot(index):
                return self._build_generic_kernel(node)

            def kernel_index():
                return slots[ia][index]
            return kernel_index

        if op == "tuple_get":
            ia = in_slots[0]
            position = node.attrs["index"]

            def kernel_tuple_get():
                return slots[ia][position]
            return kernel_tuple_get

        if op == "cast":
            ia = in_slots[0]

            def kernel_cast():
                from repro.autograd.tensor import DEFAULT_DTYPE
                array = np.asarray(slots[ia])
                if array.dtype.kind == "f" and array.dtype != DEFAULT_DTYPE:
                    array = array.astype(DEFAULT_DTYPE)
                return array
            return kernel_cast

        if op == "embedding_lookup":
            iw, ii = in_slots[0], in_slots[1]

            def kernel_embedding():
                return slots[iw][np.asarray(slots[ii], dtype=np.int64)]
            return kernel_embedding

        if op == "max_pool2d":
            return self._build_max_pool_kernel(node, in_slots, args, kwargs, out)

        if op == "external":
            fn = node.attrs["fn"]
            arg_t, kw_t = node.attrs.get("args", ()), node.attrs.get("kwargs", {})

            def kernel_external():
                values = [slots[i] for i in in_slots]
                call_args = _substitute(arg_t, values)
                call_kwargs = {k: _substitute(v, values) for k, v in kw_t.items()}
                return fn(*call_args, **call_kwargs)
            return kernel_external

        return self._build_generic_kernel(node)

    def _build_mean_var_kernel(self, node: Node, in_slots: List[int],
                               args: Tuple, kwargs: Dict) -> Callable[[], np.ndarray]:
        slots = self._slots
        ia = in_slots[0]
        axis = _literal(args, kwargs, 1, "axis", None)
        keepdims = _literal(args, kwargs, 2, "keepdims", False)
        in_shape = node.inputs[0].shape or ()
        if axis is None:
            count = int(np.prod(in_shape)) if in_shape else 1
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([in_shape[ax] for ax in axes]))
        # Eager mean divides by ``Tensor(float(count))``; replicate its
        # payload (0-d array in the active dtype) for bit-exact division.
        divisor = np.asarray(float(count))
        if node.dtype is not None and divisor.dtype != node.dtype:
            divisor = divisor.astype(node.dtype)

        if node.op == "mean":
            def kernel_mean():
                return slots[ia].sum(axis=axis, keepdims=keepdims) / divisor
            return kernel_mean

        def kernel_var():
            x = slots[ia]
            mean = x.sum(axis=axis, keepdims=True) / divisor
            centered = x + np.negative(mean)
            squared = centered * centered
            return squared.sum(axis=axis, keepdims=keepdims) / divisor
        return kernel_var

    def _build_max_pool_kernel(self, node: Node, in_slots: List[int],
                               args: Tuple, kwargs: Dict,
                               out: np.ndarray) -> Callable[[], np.ndarray]:
        """Eager ``max_pool2d``'s own kernel, writing into the arena buffer."""
        slots = self._slots
        ia = in_slots[0]
        kernel = _pair(_literal(args, kwargs, 1, "kernel", None))
        stride_arg = _literal(args, kwargs, 2, "stride", None)
        stride = kernel if stride_arg is None else _pair(stride_arg)

        def kernel_max_pool():
            return _max_pool(slots[ia], kernel, stride, out=out)
        return kernel_max_pool

    # -- convolution ----------------------------------------------------
    def _build_conv_kernel(self, node: Node, out: Optional[np.ndarray]) -> Callable[[], np.ndarray]:
        """Eager ``conv2d``'s own im2col + batched GEMM into the arena.

        The input is padded into a persistent buffer, gathered into
        persistent columns, multiplied straight into the output buffer
        viewed as ``(N, F, OH*OW)``, and the fused bias/BN/ReLU epilogue
        runs in place in NCHW — the same arithmetic as eager, so the
        result is bitwise identical.
        """
        slots = self._slots
        args = node.attrs.get("args", ())
        kwargs = node.attrs.get("kwargs", {})
        x_node, w_node = node.inputs[0], node.inputs[1]
        if out is None or not w_node.is_constant:
            return self._build_generic_kernel(node)
        ix = self._slot_of[x_node.id]
        weight = w_node.value
        stride = _pair(_literal(args, kwargs, 3, "stride", 1))
        ph, pw = _pair(_literal(args, kwargs, 4, "padding", 0))
        dilation = _pair(_literal(args, kwargs, 5, "dilation", 1))
        bias_slot = args[2] if len(args) > 2 else kwargs.get("bias")
        bias = None
        if isinstance(bias_slot, Slot):
            bias_node = node.inputs[bias_slot.index]
            if not bias_node.is_constant:
                return self._build_generic_kernel(node)
            bias = bias_node.value

        epilogue = self._build_conv_epilogue(node, bias)
        n, c, h, w = x_node.shape
        f, _, kh, kw = weight.shape
        oh, ow = out.shape[2], out.shape[3]
        w2 = weight.reshape(f, c * kh * kw)
        pad_buf = None
        if ph or pw:
            pad_buf = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x_node.dtype)
        cols_buf = np.empty((n, c, kh, kw, oh, ow), dtype=x_node.dtype)
        cols3 = cols_buf.reshape(n, c * kh * kw, oh * ow)
        out3 = out.reshape(n, f, oh * ow)

        def kernel_conv() -> np.ndarray:
            x = slots[ix]
            if pad_buf is not None:
                pad_buf[:, :, ph:ph + h, pw:pw + w] = x
                x = pad_buf
            _im2col(x, (kh, kw), stride, dilation, out=cols_buf)
            np.matmul(w2, cols3, out=out3)
            epilogue(out)
            return out
        return kernel_conv

    def _build_conv_epilogue(self, node: Node, bias: Optional[np.ndarray]) -> Callable:
        """In-place bias, folded BN and ReLU on the NCHW conv output.

        Each step is the in-place twin of the eager elementwise op, with
        the same ``(1, C, 1, 1)`` operands, so values match bit for bit.
        """
        steps: List[Callable[[np.ndarray], None]] = []
        if bias is not None:
            bias4 = bias.reshape(1, -1, 1, 1)
            steps.append(lambda t: np.add(t, bias4, out=t))
        for step in node.attrs.get("epilogue", ()):
            if step["op"] == "bn_affine":
                mean, denom, scale, shift = (node.inputs[i].value for i in step["slots"])

                def bn_step(t, m=mean, d=denom, s=scale, b=shift):
                    np.subtract(t, m, out=t)
                    np.true_divide(t, d, out=t)
                    np.multiply(t, s, out=t)
                    np.add(t, b, out=t)
                steps.append(bn_step)
            elif step["op"] == "relu":
                steps.append(lambda t: np.multiply(t, t > 0, out=t))

        def apply(tmp: np.ndarray) -> None:
            for fn in steps:
                fn(tmp)
        return apply

    # -- generic eager replay -------------------------------------------
    def _build_generic_kernel(self, node: Node) -> Callable[[], Any]:
        """Replay the recorded eager call — the always-correct fallback."""
        slots = self._slots
        in_slots = [self._slot_of[src.id] for src in node.inputs]
        kind = node.attrs.get("kind", "method")
        attr = node.attrs.get("attr", node.op)
        arg_t = node.attrs.get("args", ())
        kw_t = node.attrs.get("kwargs", {})
        epilogue = node.attrs.get("epilogue", ())
        wrap = kind in ("method", "function") and attr not in ("__getitem__",)
        fn = node.attrs.get("fn")
        self._generic_nodes.add(node.id)

        def substitute(template, values):
            if isinstance(template, Slot):
                value = values[template.index]
                if wrap and isinstance(value, np.ndarray):
                    return Tensor(value)
                return value
            if isinstance(template, (list, tuple)):
                items = [substitute(item, values) for item in template]
                return items if isinstance(template, list) else tuple(items)
            return template

        def kernel_generic():
            values = [slots[i] for i in in_slots]
            call_args = substitute(arg_t, values)
            if kind == "method" and attr == "__getitem__":
                call_args = (Tensor(values[0]),) + tuple(call_args[1:])
            call_kwargs = {k: substitute(v, values) for k, v in kw_t.items()}
            with no_grad():
                result = fn(*call_args, **call_kwargs)
            value = result.data if isinstance(result, Tensor) else result
            for step in epilogue:
                if step["op"] == "bn_affine":
                    mean, denom, scale, shift = (values[i] for i in step["slots"])
                    value = ((value - mean) / denom) * scale + shift
                elif step["op"] == "relu":
                    value = value * (value > 0)
            return value
        return kernel_generic

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *args: Any) -> Any:
        """Replay the plan on new inputs; returns the traced structure.

        Output arrays are fresh copies — arena buffers are recycled on
        the next call, so results must not alias plan-owned storage.
        """
        from repro.obs.profiler import get_active_profiler

        arrays = self.traced.bind(args)
        with self._lock:
            slots = self._slots
            for slot, array, (shape, dtype) in zip(
                self._input_slots, arrays, self._input_examples
            ):
                if array is None or tuple(array.shape) != shape or array.dtype != dtype:
                    raise CompileError(
                        f"plan for {self.traced.fn_name} expects input "
                        f"{shape}/{dtype}, got "
                        f"{None if array is None else (array.shape, array.dtype)}"
                    )
                slots[slot] = array
            profiler = get_active_profiler()
            with trace_span("graph.execute"):
                if profiler is None:
                    for slot, kernel, _, _, _ in self._steps:
                        slots[slot] = kernel()
                else:
                    for slot, kernel, name, shape, nbytes in self._steps:
                        start = time.perf_counter()
                        slots[slot] = kernel()
                        profiler.record_op(
                            name, start, time.perf_counter() - start,
                            shape=shape, nbytes=nbytes,
                        )
            leaves = [np.array(slots[slot], copy=True) for slot in self._output_slots]
        return self.traced.unflatten(leaves)

    __call__ = run

    def describe(self) -> str:
        lines = [
            f"plan {self.traced.fn_name}: {self.num_kernels} kernels, "
            f"{self.fallbacks} eager fallbacks",
            f"arena: {self.arena_buffers} buffers, "
            f"{self.arena_bytes / 1024:.1f} KiB, {self.arena_reuses} reuses",
        ]
        return "\n".join(lines)


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` objects keyed by input signature.

    Tracks lookup/hit/compile counters and queues compile events (key,
    milliseconds) for the serving layer to drain into its stats.
    """

    def __init__(self, max_plans: int = 32):
        self.max_plans = max_plans
        self._plans: "OrderedDict[Any, ExecutionPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.lookups = 0
        self.hits = 0
        self.compiles = 0
        self.evictions = 0
        self._compile_events: List[Tuple[Any, float]] = []

    def get(self, key: Any) -> Optional[ExecutionPlan]:
        with self._lock:
            self.lookups += 1
            plan = self._plans.get(key)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(key)
            return plan

    def store(self, key: Any, plan: ExecutionPlan, compile_ms: float) -> None:
        with self._lock:
            self.compiles += 1
            self._compile_events.append((key, compile_ms))
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.evictions += 1

    def drain_compile_events(self) -> List[Tuple[Any, float]]:
        """Return and clear compile events recorded since the last drain."""
        with self._lock:
            events, self._compile_events = self._compile_events, []
            return events

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._compile_events = []

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> Dict[str, int]:
        return {
            "plans": len(self._plans),
            "lookups": self.lookups,
            "hits": self.hits,
            "compiles": self.compiles,
            "evictions": self.evictions,
        }
