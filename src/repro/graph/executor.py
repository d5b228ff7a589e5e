"""Planned execution of traced graphs: kernels, arena, plan cache.

An :class:`ExecutionPlan` compiles a :class:`~repro.graph.trace.TracedGraph`
into a flat list of kernel closures over a slot table.  Three properties
drive the design:

**Bit-exactness.**  Every kernel replicates the eager numpy arithmetic
operation-for-operation (``sub`` is IEEE-identical to ``add(neg)``,
``mean`` divides by the same ``float(count)`` scalar tensor, ``softmax``
repeats the shift/exp/sum sequence).  Plan construction *proves* this
with the plan's first run: the kernels run once on the traced inputs,
chained through the plan's own workspace as in every later run, and
each output is compared bitwise (shape, dtype, bits) against the value
the eager pass produced, which is dropped right after.  Any kernel that
disagrees — or raises — is replaced by a generic eager replay: the
original op the tracer recorded on the node, called with the node's
call template, so a plan can never silently drift from eager
semantics.  The replay must then agree, or the build raises
:class:`CompileError`.  Ops without a dedicated kernel take the same
replay at build time; ``plan.fallbacks`` counts both.  Since each
kernel reads what earlier kernels left in the arena, the check covers
the layout too: a region handed out before its last read corrupts that
read, and the build fails.  The first run's outputs, checked once more,
are the answer to the call that compiled the plan
(:meth:`ExecutionPlan.first_answer`).

**Allocation reuse.**  Every pooled output buffer and the conv scratch
live at byte offsets inside one plan-sized layout.  Buffer liveness
analysis (aliases such as ``reshape``/``transpose`` extend their base
buffer's lifetime) lays out the arena: a buffer's region returns to a
pool keyed by size once its value dies and is handed to a later buffer
of that size.  A node's inputs are released only *after* its own output
region is acquired, so a kernel never reads and writes the same
storage.  Convolutions run eager ``conv2d``'s own kernel (one copy of
the ``as_strided`` window into columns plus one batched GEMM, dilation
included): the padded input and the columns live in one scratch region
after the arena, shared by every conv because each conv's scratch is
dead once it returns, and the pad border is zeroed on every call.  The
GEMM writes straight into the NCHW arena buffer; a pointwise (1x1,
stride-1, unpadded) conv needs no scratch and multiplies its input in
place, as eager does.  Max pooling runs eager's running maximum into
its arena buffer the same way.  ``plan.workspace_bytes`` is arena plus
scratch.

**One workspace per cache.**  A plan's kernels are closures over views
into a workspace buffer, rebuilt only when the buffer they see changes,
so ``run`` pays nothing per call for the indirection: each conv's
window over its padded buffer and each max pool's tap views over its
producer's buffer are built once, when the kernels are bound.  Those
views live only in the closures, so unbinding a plan drops every one.  A
:class:`PlanCache` owns one workspace, sized to its largest plan, and
one lock under which its plans run one at a time; a plan built for the
cache runs its first run there too.  Resizing that buffer unbinds every
plan bound to it and drops it before the new one is allocated, so no
plan keeps an old buffer alive and the two are never resident at once.
A plan built outside a cache owns a private workspace, which it gives
up on ``store``.  Between runs a plan's slot table holds only
constants, so an idle plan pins no input or activation.

**Observability.**  When an op-level profiler is active, each kernel
execution is recorded via :meth:`Profiler.record_op` under the node's
(possibly fused) name — ``conv2d+bn+relu`` shows up as one op — and the
whole replay runs inside a ``graph.execute`` trace span.
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.functional import (
    _im2col, _is_pointwise, _max_pool, _pair, _running_max, _taps, _windows,
)
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


#: The unsigned integer type of each item width, for bitwise comparison.
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _bitwise_equal(a: Any, b: Any) -> bool:
    """Same shape, dtype and bits.  The arrays are compared as views of
    the same-width unsigned integer type, without copies, so ``-0.0``
    differs from ``0.0`` and NaNs match only with the same payload."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return False
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    bits = _UNSIGNED[a.dtype.itemsize]
    return bool((a.view(bits) == b.view(bits)).all())


def _matches(value: Any, traced: Any) -> bool:
    """A kernel's output against its node's traced value; tuple-valued
    externals are checked element by element through their ``tuple_get``
    nodes."""
    return _bitwise_equal(value, traced) if isinstance(traced, np.ndarray) else True


class CompileError(RuntimeError):
    """Raised when a traced graph cannot be planned."""


#: Byte alignment of every region laid out in a workspace.
_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


def _view(buffer: np.ndarray, offset: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """The ``shape``/``dtype`` array stored at byte ``offset`` of ``buffer``."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    return buffer[offset:offset + nbytes].view(dtype).reshape(shape)


class _Arena:
    """Build-time layout of pooled output buffers at byte offsets.

    A buffer whose value has died returns its region to a pool keyed by
    the region's size; a later buffer of that size takes it over, any
    other is placed at the end of the span.
    """

    def __init__(self):
        self._free: Dict[int, List[int]] = {}
        self.nbytes = 0
        self.buffer_count = 0
        self.reuse_count = 0

    def acquire(self, nbytes: int) -> int:
        free = self._free.get(_aligned(nbytes))
        if free:
            self.reuse_count += 1
            return free.pop()
        offset = self.nbytes
        self.nbytes += _aligned(nbytes)
        self.buffer_count += 1
        return offset

    def release(self, nbytes: int, offset: int) -> None:
        self._free.setdefault(_aligned(nbytes), []).append(offset)


class _Workspace:
    """One byte buffer that plans lay their buffers out in, and the lock
    under which one plan at a time runs over it.

    A :class:`PlanCache` owns one for all of its plans; a plan outside
    a cache owns a private one.
    """

    def __init__(self):
        self.buffer = np.empty(0, dtype=np.uint8)
        self.lock = threading.Lock()
        #: Plans whose kernels hold views of ``buffer``.
        self.bound: "weakref.WeakSet[ExecutionPlan]" = weakref.WeakSet()

    def resize(self, nbytes: int) -> None:
        """Replace the buffer with one of ``nbytes``; the caller holds
        ``lock``.  Every plan bound to the old buffer is unbound and the
        old buffer dropped before the new one is allocated."""
        for plan in list(self.bound):
            plan._unbind()
        self.buffer = np.empty(0, dtype=np.uint8)
        self.buffer = np.empty(nbytes, dtype=np.uint8)


class ExecutionPlan:
    """A compiled, replayable forward pass for one input signature.

    Built in ``workspace`` (a :class:`PlanCache`'s, see
    :attr:`PlanCache.workspace`) or, without one, in a private
    workspace.  Construction is the plan's first run, on the traced
    inputs; :meth:`first_answer` hands its checked outputs over.
    """

    def __init__(self, traced: TracedGraph, workspace: Optional[_Workspace] = None):
        self.traced = traced
        self.graph: Graph = traced.graph
        #: Generic eager replays by node id, whether chosen at build time
        #: or after a kernel failed validation.
        self._generic: Dict[int, Callable[[], Any]] = {}
        self._workspace = workspace if workspace is not None else _Workspace()
        self._first: Optional[List[np.ndarray]] = self._build()
        self.fallbacks = len(self._generic)

    def first_answer(self) -> Any:
        """The first run's outputs in the traced structure: the answer
        for the traced inputs, handed over once."""
        if self._first is None:
            raise RuntimeError("the first answer was already taken")
        leaves, self._first = self._first, None
        return self.traced.unflatten(leaves)

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def _build(self) -> List[np.ndarray]:
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
        #: The slot table between runs: constants only, so an idle plan
        #: pins no input or activation.
        self._idle_slots = list(self._slots)

        schedule = [n for n in graph.nodes if not (n.is_input or n.is_constant)]
        self._lay_out(graph, schedule)
        self._schedule = [(self._slot_of[node.id], node, node.nbytes) for node in schedule]
        self.num_kernels = len(schedule)

        workspace = self._workspace
        with workspace.lock:
            if workspace.buffer.nbytes < self.workspace_bytes:
                workspace.resize(self.workspace_bytes)
            self._bind(workspace.buffer)
            return self._validate()

    def _lay_out(self, graph: Graph, schedule: List[Node]) -> None:
        """Place every pooled output buffer and the conv scratch region.

        Output buffers share the arena by liveness; the scratch region
        follows it and is shared by every convolution, since each conv's
        padded input and columns live only while that conv runs.
        """
        base = self._alias_bases(graph)
        last_use = self._liveness(graph, schedule, base)
        arena = _Arena()
        #: Byte offset of each pooled node's output buffer, by node id.
        self._offsets: Dict[int, int] = {}
        live: Dict[int, Tuple[int, int]] = {}  # node id -> (bytes, offset)
        scratch = 0
        for position, node in enumerate(schedule):
            if node.op in _POOLED_OPS and node.shape is not None:
                offset = self._offsets[node.id] = arena.acquire(node.nbytes)
                live[node.id] = (node.nbytes, offset)
                if node.op == "conv2d" and self._conv_params(node) is not None:
                    scratch = max(scratch, self._conv_scratch(node)[3])
            # Free inputs only after this node's buffer exists: a kernel
            # must never be handed its own operand's storage as output.
            for src_base in {base[src.id] for src in node.inputs}:
                if last_use.get(src_base) == position and src_base in live:
                    arena.release(*live.pop(src_base))
        self.arena_bytes = arena.nbytes
        self.arena_buffers = arena.buffer_count
        self.arena_reuses = arena.reuse_count
        self.scratch_bytes = scratch
        #: Bytes of workspace this plan runs in: arena plus conv scratch.
        self.workspace_bytes = arena.nbytes + scratch

    def _bind(self, buffer: np.ndarray) -> None:
        """Build every kernel over views into ``buffer``, the buffer of
        this plan's workspace; the caller holds the workspace lock.

        Every view of ``buffer`` made here lives only in the kernels'
        closures (``outs`` dies when this returns), so :meth:`_unbind`
        drops them all with the kernels.  Kernels are built in schedule
        order, so a consumer sees whether its producer is a generic
        replay, which writes no arena buffer.
        """
        outs = {node.id: _view(buffer, self._offsets[node.id], node.shape, node.dtype)
                for _, node, _ in self._schedule if node.id in self._offsets}
        self._steps = [
            (slot, self._generic.get(node.id) or self._build_kernel(node, buffer, outs))
            for slot, node, _ in self._schedule
        ]
        self._bound: Optional[np.ndarray] = buffer
        self._workspace.bound.add(self)

    def _unbind(self) -> None:
        """Drop the kernels, and with them every view into the workspace."""
        self._steps = []
        self._bound = None
        self._workspace.bound.discard(self)

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

    def _validate(self) -> List[np.ndarray]:
        """The plan's first run, on the traced inputs, checked kernel by
        kernel; returns copies of the output slots.

        Kernels chain through the workspace as in :meth:`run`: each reads
        what earlier kernels wrote, never a traced value.  Each output is
        compared with its node's traced value, which is dropped right
        after, so the run holds no more than a normal run does.  The
        output nodes keep theirs until the copies returned are checked
        once more, so no later kernel may have overwritten an output.
        """
        graph, slots = self.graph, self._slots
        for slot, node in zip(self._input_slots, graph.inputs):
            slots[slot] = node.value
            node.value = None
        outputs = {node.id for node in graph.outputs}
        try:
            for index, (slot, node, _) in enumerate(self._schedule):
                slots[slot] = self._check(index, node)
                if node.id not in outputs:
                    node.value = None
            leaves = [np.array(slots[slot], copy=True) for slot in self._output_slots]
        finally:
            slots[:] = self._idle_slots
        for node, leaf in zip(graph.outputs, leaves):
            if not node.is_constant and node.value is not None:
                if not _bitwise_equal(leaf, node.value):
                    raise CompileError(f"{self.traced.fn_name}: output {node!r} "
                                       f"was overwritten after it was checked")
        for node in graph.outputs:
            if not node.is_constant:
                node.value = None
        return leaves

    def _check(self, index: int, node: Node) -> Any:
        """Run step ``index`` and return its output if it matches the
        traced value.  A dedicated kernel that disagrees or raises gives
        way to the generic replay, which must agree."""
        slot, kernel = self._steps[index]
        try:
            value = kernel()
            if _matches(value, node.value):
                return value
            error = None
        except Exception as exc:
            error = exc
        if node.id in self._generic:
            raise CompileError(f"{self.traced.fn_name}: eager replay of {node!r} "
                               f"disagrees with the trace") from error
        self._steps[index] = (slot, self._build_generic_kernel(node))
        return self._check(index, node)

    # ------------------------------------------------------------------
    # Kernel construction
    # ------------------------------------------------------------------
    def _build_kernel(self, node: Node, buffer: np.ndarray,
                      outs: Dict[int, np.ndarray]) -> Callable[[], Any]:
        """The node's dedicated kernel, writing a pooled output into its
        view ``outs[node.id]`` of ``buffer``; the generic replay when it
        has none."""
        slots = self._slots
        out = outs.get(node.id)
        in_slots = [self._slot_of[src.id] for src in node.inputs]
        args = node.attrs.get("args", ())
        kwargs = node.attrs.get("kwargs", {})
        op = node.op

        if op == "conv2d":
            return self._build_conv_kernel(node, out, buffer)

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
            ia, dtype = in_slots[0], node.dtype

            def kernel_cast():
                return np.asarray(slots[ia]).astype(dtype, copy=False)
            return kernel_cast

        if op == "embedding_lookup":
            iw, ii = in_slots[0], in_slots[1]

            def kernel_embedding():
                return slots[iw][np.asarray(slots[ii], dtype=np.int64)]
            return kernel_embedding

        if op == "max_pool2d":
            return self._build_max_pool_kernel(node, in_slots, args, kwargs, out, outs)

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
                               args: Tuple, kwargs: Dict, out: np.ndarray,
                               outs: Dict[int, np.ndarray]) -> Callable[[], np.ndarray]:
        """Eager ``max_pool2d``'s own kernel, writing into the arena buffer.

        When the input is the arena buffer its producer's dedicated
        kernel writes, the tap views over it are bound here, once.  A
        producer that is a generic replay writes no arena buffer and
        does not qualify; one that falls back later, while the plan's
        first run validates it, returns another array, which the
        identity check sends down the unbound path.
        """
        slots = self._slots
        ia = in_slots[0]
        kernel = _pair(_literal(args, kwargs, 1, "kernel", None))
        stride_arg = _literal(args, kwargs, 2, "stride", None)
        stride = kernel if stride_arg is None else _pair(stride_arg)
        src = node.inputs[0].id
        source = None if src in self._generic else outs.get(src)
        if source is None:
            def kernel_max_pool():
                return _max_pool(slots[ia], kernel, stride, out=out)
            return kernel_max_pool
        taps = _taps(source, kernel, stride)

        def kernel_bound_max_pool():
            x = slots[ia]
            if x is source:
                return _running_max(taps, out)
            return _max_pool(x, kernel, stride, out=out)
        return kernel_bound_max_pool

    # -- convolution ----------------------------------------------------
    def _conv_params(self, node: Node) -> Optional[Tuple]:
        """``(weight, bias, stride, padding, dilation)`` of a conv the
        dedicated kernel runs; ``None`` for one that takes the replay
        (no arena buffer, or a weight or bias that is not a constant)."""
        args = node.attrs.get("args", ())
        kwargs = node.attrs.get("kwargs", {})
        w_node = node.inputs[1]
        if node.shape is None or not w_node.is_constant:
            return None
        bias_slot = args[2] if len(args) > 2 else kwargs.get("bias")
        bias = None
        if isinstance(bias_slot, Slot):
            bias_node = node.inputs[bias_slot.index]
            if not bias_node.is_constant:
                return None
            bias = bias_node.value
        return (w_node.value, bias,
                _pair(_literal(args, kwargs, 3, "stride", 1)),
                _pair(_literal(args, kwargs, 4, "padding", 0)),
                _pair(_literal(args, kwargs, 5, "dilation", 1)))

    def _conv_scratch(self, node: Node) -> Tuple[Optional[Tuple[int, ...]],
                                                 Optional[Tuple[int, ...]], int, int]:
        """The conv's padded-input shape (``None`` without padding), its
        ``(N, C, KH, KW, OH, OW)`` column shape (``None`` for a pointwise
        conv, which multiplies its input in place), the columns' byte
        offset in the scratch region, and the bytes the conv needs there."""
        weight, _, stride, (ph, pw), _ = self._conv_params(node)
        if _is_pointwise(weight.shape[2:], stride, (ph, pw)):
            return None, None, 0, 0
        n, c, h, w = node.inputs[0].shape
        itemsize = node.inputs[0].dtype.itemsize
        padded = (n, c, h + 2 * ph, w + 2 * pw) if ph or pw else None
        cols = (n, c, weight.shape[2], weight.shape[3], node.shape[2], node.shape[3])
        cols_at = _aligned(math.prod(padded) * itemsize) if padded else 0
        return padded, cols, cols_at, cols_at + math.prod(cols) * itemsize

    def _build_conv_kernel(self, node: Node, out: Optional[np.ndarray],
                           buffer: np.ndarray) -> Callable[[], np.ndarray]:
        """Eager ``conv2d``'s own im2col + batched GEMM into the arena.

        The input is padded and gathered into columns in the plan's
        conv scratch region, multiplied straight into the output buffer
        viewed as ``(N, F, OH*OW)``, and the fused bias/BN/ReLU epilogue
        runs in place in NCHW — the same arithmetic as eager, so the
        result is bitwise identical.  The window over the padded buffer
        is built here, once; each call copies it into the columns.
        Other convs and other plans write the scratch region too, so the
        pad border is zeroed on every call.  A pointwise conv multiplies
        its input in place, as eager does.
        """
        params = self._conv_params(node)
        if params is None:
            return self._build_generic_kernel(node)
        slots = self._slots
        weight, bias, stride, (ph, pw), dilation = params
        x_node = node.inputs[0]
        ix = self._slot_of[x_node.id]
        epilogue = self._build_conv_epilogue(node, bias)
        n, c, h, w = x_node.shape
        f, _, kh, kw = weight.shape
        out3 = out.reshape(n, f, node.shape[2] * node.shape[3])
        w2 = weight.reshape(f, c * kh * kw)
        padded_shape, cols_shape, cols_at, _ = self._conv_scratch(node)

        if cols_shape is None:
            def kernel_pointwise_conv() -> np.ndarray:
                np.matmul(w2, slots[ix].reshape(n, c, h * w), out=out3)
                epilogue(out)
                return out
            return kernel_pointwise_conv

        scratch = self.arena_bytes
        cols = _view(buffer, scratch + cols_at, cols_shape, x_node.dtype)
        cols3 = cols.reshape(n, c * kh * kw, cols_shape[4] * cols_shape[5])
        if padded_shape is None:
            def kernel_conv() -> np.ndarray:
                _im2col(slots[ix], (kh, kw), stride, dilation, out=cols)
                np.matmul(w2, cols3, out=out3)
                epilogue(out)
                return out
            return kernel_conv

        padded = _view(buffer, scratch, padded_shape, x_node.dtype)
        interior = padded[:, :, ph:ph + h, pw:pw + w]
        window = _windows(padded, (kh, kw), stride, dilation)
        borders: List[np.ndarray] = []
        if ph:
            borders += [padded[:, :, :ph], padded[:, :, ph + h:]]
        if pw:
            borders += [padded[:, :, ph:ph + h, :pw], padded[:, :, ph:ph + h, pw + w:]]

        def kernel_padded_conv() -> np.ndarray:
            for border in borders:
                border.fill(0)
            np.copyto(interior, slots[ix])
            np.copyto(cols, window)
            np.matmul(w2, cols3, out=out3)
            epilogue(out)
            return out
        return kernel_padded_conv

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
        self._generic[node.id] = kernel_generic
        return kernel_generic

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, *args: Any) -> Any:
        """Replay the plan on new inputs; returns the traced structure.

        Runs under the workspace's lock.  Output arrays are fresh copies —
        the workspace is overwritten by the next run of any plan sharing
        it, so results must not alias it.
        """
        arrays = self.traced.bind(args)
        for array, (shape, dtype) in zip(arrays, self._input_examples):
            if array is None or tuple(array.shape) != shape or array.dtype != dtype:
                raise CompileError(
                    f"plan for {self.traced.fn_name} expects input "
                    f"{shape}/{dtype}, got "
                    f"{None if array is None else (array.shape, array.dtype)}"
                )
        while True:
            workspace = self._workspace
            with workspace.lock:
                # A cache may have moved this plan to another workspace
                # while this thread waited for the lock.
                if workspace is self._workspace:
                    leaves = self._execute(workspace, arrays)
                    break
        return self.traced.unflatten(leaves)

    def _execute(self, workspace: _Workspace, arrays: List[np.ndarray]) -> List[np.ndarray]:
        """Run every kernel; the caller holds ``workspace.lock``."""
        from repro.obs.profiler import get_active_profiler

        if workspace.buffer.nbytes < self.workspace_bytes:
            # Only a private workspace is ever too small: the empty one
            # a cache gave this plan when it evicted it.
            workspace.resize(self.workspace_bytes)
        if self._bound is not workspace.buffer:
            self._bind(workspace.buffer)
        slots = self._slots
        try:
            for slot, array in zip(self._input_slots, arrays):
                slots[slot] = array
            profiler = get_active_profiler()
            with trace_span("graph.execute"):
                if profiler is None:
                    for slot, kernel in self._steps:
                        slots[slot] = kernel()
                else:
                    for (slot, kernel), (_, node, nbytes) in zip(self._steps, self._schedule):
                        start = time.perf_counter()
                        slots[slot] = kernel()
                        profiler.record_op(
                            node.name, start, time.perf_counter() - start,
                            shape=node.shape, nbytes=nbytes,
                        )
            return [np.array(slots[slot], copy=True) for slot in self._output_slots]
        finally:
            slots[:] = self._idle_slots

    __call__ = run

    def describe(self) -> str:
        lines = [
            f"plan {self.traced.fn_name}: {self.num_kernels} kernels, "
            f"{self.fallbacks} eager fallbacks",
            f"arena: {self.arena_buffers} buffers, "
            f"{self.arena_bytes / 1024:.1f} KiB, {self.arena_reuses} reuses",
            f"workspace: {self.workspace_bytes / 1024:.1f} KiB "
            f"(arena + {self.scratch_bytes / 1024:.1f} KiB conv scratch)",
        ]
        return "\n".join(lines)


class PlanCache:
    """LRU cache of :class:`ExecutionPlan` objects keyed by input signature.

    Every plan in the cache runs in the cache's one workspace, sized to
    its largest plan, under the workspace's lock: one plan runs at a
    time, and the cache holds one plan's worth of buffers, not one per
    plan.  Tracks lookup/hit/compile counters and queues compile events
    (key, milliseconds) for the serving layer to drain into its stats.
    """

    def __init__(self, max_plans: int = 32):
        self.max_plans = max_plans
        self._plans: "OrderedDict[Any, ExecutionPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._workspace = _Workspace()
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

    @property
    def workspace(self) -> _Workspace:
        """The workspace every plan of this cache runs in; build a plan
        in it (``ExecutionPlan(traced, cache.workspace)``) to validate
        it there rather than in a buffer of its own."""
        return self._workspace

    def store(self, key: Any, plan: ExecutionPlan, compile_ms: float) -> None:
        """Add ``plan``, moving it into the cache's workspace if it was
        built in a private one, and size the workspace to the largest
        plan."""
        with self._lock, self._workspace.lock:
            self.compiles += 1
            self._compile_events.append((key, compile_ms))
            dropped = [self._plans.get(key)]
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.max_plans:
                dropped.append(self._plans.popitem(last=False)[1])
                self.evictions += 1
            if isinstance(plan, ExecutionPlan) and plan._workspace is not self._workspace:
                with plan._workspace.lock:
                    plan._unbind()
                    plan._workspace = self._workspace
            for old in dropped:
                if old is not plan:
                    self._release(old)
            self._fit()

    def _release(self, plan: Any) -> None:
        """Give a plan leaving the cache an empty private workspace."""
        if isinstance(plan, ExecutionPlan) and plan._workspace is self._workspace:
            plan._unbind()
            plan._workspace = _Workspace()

    def _fit(self) -> None:
        """Size the workspace to the largest plan; holds its lock."""
        plans = [p for p in self._plans.values() if isinstance(p, ExecutionPlan)]
        need = max((plan.workspace_bytes for plan in plans), default=0)
        if self._workspace.buffer.nbytes != need:
            self._workspace.resize(need)

    def drain_compile_events(self) -> List[Tuple[Any, float]]:
        """Return and clear compile events recorded since the last drain."""
        with self._lock:
            events, self._compile_events = self._compile_events, []
            return events

    def clear(self) -> None:
        with self._lock, self._workspace.lock:
            for plan in self._plans.values():
                self._release(plan)
            self._plans.clear()
            self._compile_events = []
            self._fit()

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> Dict[str, int]:
        return {
            "plans": len(self._plans),
            "lookups": self.lookups,
            "hits": self.hits,
            "compiles": self.compiles,
            "evictions": self.evictions,
            # Bytes the cache holds for all its plans: one workspace.
            "workspace_bytes": int(self._workspace.buffer.nbytes),
        }
