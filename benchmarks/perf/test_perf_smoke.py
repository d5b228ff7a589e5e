"""Checks of the benchmark itself; run with

    PYTHONPATH=src python -m pytest benchmarks/perf -q

The smoke test runs every workload for one second, untraced and traced,
and asserts that it emits exactly the metric names ``BENCHMARK.json``
declares and that no operation failed.  The other tests pin down the
two pieces of logic a wrong answer would hide in: ``compare.py``'s
verdicts and the fleet's weight-version windows.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from compare import judge, verdict
from harness import Request
from workloads import Reloads

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CATALOG["workloads"]])
def test_workload_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    section = "per_layer" if trace else "end_to_end"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in CATALOG[section]}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]  # error_rate == 0


@pytest.mark.parametrize("old, new, better, expected", [
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
    ([10.0, 10.1, 9.9, 10.0], [10.2, 10.1, 10.3, 10.2], "lower", "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher", "better"),
    ([10.0, 16.0, 5.0, 12.0], [11.0, 15.0, 6.0, 13.0], "lower", "unresolved"),
    ([10.0, 13.0, 9.0, 12.0], [20.0, 25.0, 21.0, 30.0], "lower", "worse"),
])
def test_compare_verdicts(old, new, better, expected):
    assert verdict(old, new, better, 0.1)[1] == expected


def test_raw_values_must_agree():
    steady = [10.0, 10.1, 9.9, 10.0]
    slower = [12.0, 12.1, 11.9, 12.0]
    # Normalized values unchanged while the raw ones got worse: the probe
    # slowed with the system, so the row cannot be called unchanged.
    assert judge((steady, steady), (steady, slower), "lower", 0.1)["verdict"] \
        == "unresolved"
    assert judge((steady, steady), (slower, slower), "lower", 0.1)["verdict"] \
        == "worse"


def test_reload_windows():
    reloads = Reloads(router=None, paths={"v1": "", "v2": ""})
    reloads.done = [("v2", 10.0, 11.0), ("v1", 20.0, 21.0)]

    def allowed(sent, end):
        req = Request(image=None, query="")
        req.sent, req.end = sent, end
        return reloads.allowed(req)

    assert allowed(1.0, 2.0) == {"v1"}
    assert allowed(9.0, 10.5) == {"v1", "v2"}
    assert allowed(11.5, 12.0) == {"v2"}  # after the first reload: v1 is stale
    assert allowed(19.0, 20.5) == {"v1", "v2"}
    assert allowed(21.5, 22.0) == {"v1"}
