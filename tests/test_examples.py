"""Every example script must at least import.

The examples run for minutes, so no test runs them; but they are all
``main()``-guarded, so importing one only resolves its imports.  That
is enough to catch an example that still imports a removed public name.
"""

import glob
import importlib.util
import os

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")
SCRIPTS = sorted(glob.glob(os.path.join(EXAMPLES, "*.py")))


def test_examples_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_example_imports(path):
    name = "example_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
