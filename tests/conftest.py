"""Test-suite fixtures: a private artifact cache, deterministic seeding
and dtype isolation."""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.autograd import get_default_dtype, set_default_dtype
from repro.utils import seed_everything

#: The compute dtype every test starts from (float32).
COMPUTE_DTYPE = get_default_dtype()


@contextmanager
def record_grad_children():
    """Spy on ``Tensor._make_child``: collect every grad-tracked tensor.

    Inference paths wrapped in ``no_grad()`` must leave the yielded list
    empty — the regression contract for the no-graph inference work.
    """
    from repro.autograd.tensor import Tensor

    original = Tensor._make_child
    tracked = []

    def spy(self, data, parents):
        out = original(self, data, parents)
        if out.requires_grad:
            tracked.append(out)
        return out

    Tensor._make_child = spy
    try:
        yield tracked
    finally:
        Tensor._make_child = original


@pytest.fixture(autouse=True, scope="session")
def _session_cache_dir(tmp_path_factory):
    """Every cached artifact of the session goes to one temporary directory.

    Set in ``os.environ`` itself, not through ``monkeypatch``, so spawned
    dist workers and fleet replicas inherit it; the user's cache is
    neither read nor written.
    """
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        del os.environ["REPRO_CACHE_DIR"]
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(autouse=True, scope="module")
def _deterministic_module():
    """Module-scoped fixtures (shared datasets, pretrained models) build
    from the same seed whether the module runs alone or mid-suite.

    Without this, a module-scoped fixture is instantiated *before* the
    per-test reseed below and inherits whatever RNG state the previous
    test left behind — so `pytest tests/test_x.py` and a full run would
    exercise different data.
    """
    seed_everything(1234)


@pytest.fixture(autouse=True)
def _deterministic():
    """Every test starts from the same seed and the compute dtype."""
    set_default_dtype(COMPUTE_DTYPE)
    seed_everything(1234)
    yield
    set_default_dtype(COMPUTE_DTYPE)


@pytest.fixture
def float64():
    """Run one test in float64: finite-difference gradient checks and
    references pinned to float64 arithmetic opt in with this fixture."""
    set_default_dtype(np.float64)


@pytest.fixture
def rng():
    return np.random.default_rng(99)
