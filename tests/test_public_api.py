"""Every name a ``repro`` package exports in ``__all__`` resolves.

A deletion that leaves a stale ``__all__`` string still imports
cleanly; only ``from repro.<pkg> import *`` would fail.  This walks
every package so such a string fails here instead.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", None)
    assert exported, f"{name} defines no __all__"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
