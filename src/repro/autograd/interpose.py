"""One interposer over the autograd primitives.

The op profiler (:mod:`repro.obs.profiler`) and the graph tracer
(:mod:`repro.graph.trace`) both need to see every primitive op call.
They share this one mechanism instead of each patching ``Tensor``:

- While at least one *handler* is attached, every method in
  :data:`_TENSOR_METHODS` is replaced on :class:`Tensor` by a wrapper,
  and every free function in :data:`_FUNCTION_OPS` is replaced on its
  defining module *and* on every ``repro.*`` module that froze a direct
  binding (``from repro.autograd import conv2d``), found by scanning
  ``sys.modules``.  A handler may ask for extra points too (the tracer
  adds its numpy helpers and ``Tensor.__init__``); those stay patched
  while some handler still wants them.
- When the last handler detaches, every attribute is restored, and a
  second scan puts back any ``repro.*`` binding that froze a wrapper
  while it was installed.  With nothing attached, every method and
  binding is the original, so the eager path carries no hook at all.
- Each wrapped call goes to the calling thread's handler: the one
  attached with ``this_thread=True`` on that thread (the tracer), else
  the shared handler (the op profiler), else straight to the op.
- One thread-local re-entrancy guard: a handler runs the op through
  :func:`call_guarded`, and ops called from inside it reach the
  original directly.  Composite ops (``sub``, ``mean``, ``var``,
  ``stack``) are therefore seen once, as themselves.

A handler is any object with ``intercept(op, fn, args, kwargs)``: ``op``
is the :class:`Op` being called, ``fn`` the original callable, and the
return value is what the caller gets.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.autograd.tensor import Tensor

# The package __init__ re-exports a ``tensor`` *function* that shadows
# the submodule attribute, so go through importlib for the modules.
_functional = importlib.import_module("repro.autograd.functional")
_tensor_mod = importlib.import_module("repro.autograd.tensor")

#: Tensor methods interposed (attribute name -> op label).
_TENSOR_METHODS: Dict[str, str] = {
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__truediv__": "div",
    "__pow__": "pow",
    "__getitem__": "index",
    "matmul": "matmul",
    "exp": "exp",
    "log": "log",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "abs": "abs",
    "clip": "clip",
    "maximum": "maximum",
    "sum": "sum",
    "mean": "mean",
    "max": "max",
    "var": "var",
    "reshape": "reshape",
    "transpose": "transpose",
}

#: Free functions interposed: op label -> defining module.
_FUNCTION_OPS: Dict[str, object] = {
    "conv2d": _functional,
    "max_pool2d": _functional,
    "pad2d": _functional,
    "softmax": _functional,
    "log_softmax": _functional,
    "embedding_lookup": _functional,
    "where": _tensor_mod,
    "concatenate": _tensor_mod,
    "stack": _tensor_mod,
}


class Op(NamedTuple):
    """One interposition point, as a handler sees it."""

    kind: str  # "method" | "function", or a handler's own extra kind
    attr: str  # attribute name on the owner
    label: str  # op name in profiles and graphs


#: An extra point a handler asks for: (owner, attribute, op).
Point = Tuple[object, str, Op]


class _ThreadState(threading.local):
    handler: Optional[object] = None
    busy: bool = False


_thread = _ThreadState()
#: Handler for threads without their own (the op profiler).
_shared_handler: Optional[object] = None
_lock = threading.Lock()
#: Attached handlers with the extra points each asked for.
_users: Dict[int, Tuple[object, Tuple[Point, ...]]] = {}
#: Patched class/module attributes: (id(owner), attr) -> (owner, attr, original).
_patched: Dict[Tuple[int, str], Tuple[object, str, Callable]] = {}
#: Patched free functions: label -> (original, wrapper).
_functions: Dict[str, Tuple[Callable, Callable]] = {}


def _wrap(op: Op, fn: Callable) -> Callable:
    def wrapped(*args, **kwargs):
        handler = _thread.handler or _shared_handler
        if handler is None or _thread.busy:
            return fn(*args, **kwargs)
        return handler.intercept(op, fn, args, kwargs)

    # Sets ``__wrapped__``: the marker that an attribute is interposed.
    return functools.update_wrapper(wrapped, fn)


def call_guarded(fn: Callable, args: Sequence, kwargs: Dict):
    """Call ``fn`` with interposition suspended on this thread."""
    previous = _thread.busy
    _thread.busy = True
    try:
        return fn(*args, **kwargs)
    finally:
        _thread.busy = previous


def is_busy() -> bool:
    """Whether this thread is inside :func:`call_guarded`."""
    return _thread.busy


def _repro_namespaces():
    return [
        vars(module) for name, module in list(sys.modules.items())
        if module is not None and name.startswith("repro")
    ]


def _sync() -> None:
    """Patch exactly what the attached handlers need; restore the rest."""
    wanted: Dict[Tuple[int, str], Point] = {}
    if _users:
        for attr, label in _TENSOR_METHODS.items():
            wanted[(id(Tensor), attr)] = (Tensor, attr, Op("method", attr, label))
        for _, extra in _users.values():
            for owner, attr, op in extra:
                wanted[(id(owner), attr)] = (owner, attr, op)
    for key in [key for key in _patched if key not in wanted]:
        owner, attr, original = _patched.pop(key)
        setattr(owner, attr, original)
    for key, (owner, attr, op) in wanted.items():
        if key not in _patched:
            original = getattr(owner, attr)
            _patched[key] = (owner, attr, original)
            setattr(owner, attr, _wrap(op, original))

    if _users and not _functions:
        for label, module in _FUNCTION_OPS.items():
            original = getattr(module, label)
            _functions[label] = (original, _wrap(Op("function", label, label), original))
        swaps = dict(_functions)
    elif not _users and _functions:
        swaps = {label: (wrapper, original) for label, (original, wrapper) in _functions.items()}
        _functions.clear()
    else:
        return
    for namespace in _repro_namespaces():
        for label, (old, new) in swaps.items():
            if namespace.get(label) is old:
                namespace[label] = new


def attach(handler: object, this_thread: bool = False,
           extra: Sequence[Point] = ()) -> None:
    """Route op calls to ``handler`` until :func:`detach`.

    ``this_thread=True`` routes only the calling thread's calls (detach
    from the same thread); otherwise ``handler`` is the shared handler
    for every thread that has none of its own.  ``extra`` points are
    patched too while this handler is attached.
    """
    global _shared_handler
    with _lock:
        if this_thread:
            if _thread.handler is not None:
                raise RuntimeError("this thread already has an op handler")
            _thread.handler = handler
        else:
            if _shared_handler is not None:
                raise RuntimeError("another shared op handler is already attached")
            _shared_handler = handler
        _users[id(handler)] = (handler, tuple(extra))
        _sync()


def detach(handler: object) -> None:
    """Stop routing to ``handler``; the last detach restores everything."""
    global _shared_handler
    with _lock:
        _users.pop(id(handler), None)
        if _thread.handler is handler:
            _thread.handler = None
        if _shared_handler is handler:
            _shared_handler = None
        _sync()
