"""The slow benchmark suite must at least import.

The default test run only collects ``tests/`` (``testpaths``), so a
benchmark script that still imports a removed name would break
unnoticed until someone runs ``-m slow``.  Collecting the benchmark
suite in a subprocess catches every such import or collection error in
a few seconds without running any benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_suite_collects_without_errors():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "slow",
         "-p", "no:cacheprovider", "benchmarks"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
