"""The shared op interposer under the profiler and the graph tracer."""

import sys
import threading

import numpy as np
import pytest

from repro.autograd.interpose import _FUNCTION_OPS, _TENSOR_METHODS
from repro.autograd.tensor import Tensor
from repro.graph import trace
from repro.graph.trace import _EXTERNAL_FUNCTIONS
from repro.obs import profile

WAIT_S = 10.0


def _bindings():
    """Every interposable attribute, by identity.

    ``Tensor``'s op methods and ``__init__``, plus each ``repro.*``
    module's bindings of the free-function ops and the tracer's
    external helpers.
    """
    import repro.core  # noqa: F401 — loads the externals' modules

    snapshot = {
        ("Tensor", attr): Tensor.__dict__[attr]
        for attr in [*_TENSOR_METHODS, "__init__"]
    }
    names = set(_FUNCTION_OPS) | {attr for _, attr, _ in _EXTERNAL_FUNCTIONS}
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for name in names & namespace.keys():
            snapshot[(module_name, name)] = namespace[name]
    return snapshot


def _assert_restored(before):
    after = _bindings()
    for key, original in before.items():
        assert after[key] is original, f"{key} is still interposed"
    for key, value in after.items():
        assert not hasattr(value, "__wrapped__"), f"{key} is still interposed"


def _trace_in_thread(fn, entered, release):
    """Trace ``fn`` on a new thread; it blocks until ``release`` is set."""
    result = {}

    def body(x):
        out = fn(x)
        entered.set()
        assert release.wait(WAIT_S)
        return out

    thread = threading.Thread(
        target=lambda: result.setdefault("traced", trace(body, Tensor(np.ones((2, 2)))))
    )
    thread.start()
    assert entered.wait(WAIT_S)
    return thread, result


def test_profile_exit_during_foreign_trace_leaves_no_wrappers():
    before = _bindings()
    entered, release = threading.Event(), threading.Event()
    with profile():
        thread, result = _trace_in_thread(lambda x: x.tanh(), entered, release)
    release.set()
    thread.join(WAIT_S)
    assert "traced" in result
    _assert_restored(before)


def test_other_threads_stay_profiled_while_tracing():
    entered, release = threading.Event(), threading.Event()
    with profile() as prof:
        thread, result = _trace_in_thread(lambda x: x.tanh(), entered, release)
        other = Tensor(np.ones((3, 3)))
        other.matmul(other)
        release.set()
        thread.join(WAIT_S)
    profiled = {stat.name for stat in prof.op_stats()}
    traced = result["traced"].graph.op_counts()
    assert "matmul" in profiled and "matmul" not in traced
    assert traced.get("tanh") == 1 and "tanh" not in profiled


def test_trace_restores_every_binding_on_return_and_on_raise():
    before = _bindings()
    seen = []

    def fn(x):
        seen.append(_bindings())
        return (x * 2.0).tanh()

    trace(fn, Tensor(np.ones(3)))
    _assert_restored(before)
    # The trace really interposed every point it restored.
    during = seen.pop()
    assert all(hasattr(during[key], "__wrapped__") for key in before)

    def boom(x):
        x.tanh()
        raise ValueError("traced function failed")

    with pytest.raises(ValueError):
        trace(boom, Tensor(np.ones(3)))
    _assert_restored(before)


def test_nested_trace_on_one_thread_is_refused():
    def outer(x):
        with pytest.raises(RuntimeError):
            trace(lambda y: y * 2.0, x)
        return x * 3.0

    ops = trace(outer, Tensor(np.ones(2))).graph.op_counts()
    assert ops.get("mul") == 1


def test_interleaved_traces_and_profiles_stay_separate():
    before = _bindings()
    graphs, errors = [], []

    def trace_loop():
        try:
            for _ in range(10):
                traced = trace(lambda x: (x * 2.0).tanh(), Tensor(np.ones(3)))
                graphs.append(traced.graph.op_counts())
        except Exception as exc:  # surfaced by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=trace_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(20):
            with profile() as prof:
                x = Tensor(np.ones((2, 2)))
                x.matmul(x)
            assert {s.name: s.calls for s in prof.op_stats()} == {"matmul": 1}
        for thread in threads:
            thread.join(WAIT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(graphs) == 40
    assert all(g.get("mul") == 1 and g.get("tanh") == 1 for g in graphs)
    _assert_restored(before)
