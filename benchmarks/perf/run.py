"""End-to-end and per-layer benchmark of the YOLLO reproduction.

Runs each workload (``train``, ``interactive``, ``serve``, ``fleet``;
see ``BENCHMARK.json`` and ``README.md``) in its own fresh process, one
after another, prints every metric with its unit and sample count,
checks the answers, and prints one JSON result object as the last line
of standard output::

    python3 benchmarks/perf/run.py                        # all workloads
    python3 benchmarks/perf/run.py --workload serve --seed 3 --seconds 10
    python3 benchmarks/perf/run.py --trace 1              # per-layer metrics
    python3 benchmarks/perf/run.py --out runs.json        # append run records

The exit status is 0 when every run finished and every correctness gate
held, 1 when a gate failed, and 2 when a run could not finish (nothing
is printed on the last line then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"
DEFAULT_SEED = 7
#: A workload run must finish within this many seconds.
RUN_TIMEOUT = 175.0
#: Threading of every BLAS the workload process might load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def git_sha() -> Optional[str]:
    """Commit of the checkout, or ``None`` outside a git work tree."""
    # Checked first so git never searches the directories above the checkout.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
    }


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh process; its record, or ``None``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"result-{workload}-{os.getpid()}.json"
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(OUT_DIR / "cache")
    env["TMPDIR"] = str(OUT_DIR)
    command = [sys.executable, str(PERF_DIR / "worker.py"), workload,
               str(seed), str(seconds), str(int(trace)), str(result_path)]
    # A process group of its own, so a timeout kills the fleet replicas too.
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        print(f"{workload}: timed out after {RUN_TIMEOUT:.0f}s", file=sys.stderr)
        return None
    if code != 0 or not result_path.is_file():
        print(f"{workload}: worker exited with status {code}", file=sys.stderr)
        return None
    with open(result_path) as handle:
        record = json.load(handle)
    result_path.unlink()
    return record


def print_record(record: Dict[str, Any]) -> None:
    workload = record["workload"]
    for name, metric in record["metrics"].items():
        print(f"{workload:<12} {name:<28} {metric['value']:>14.4f} "
              f"{metric['unit']:<9} n={metric['n']}")
    print(f"{workload:<12} {'error_rate':<28} {record['error_rate']:>14.4f} "
          f"{'fraction':<9} n={record['attempted']}")
    for name, check in record["checks"].items():
        print(f"{workload:<12} gate {name:<23} "
              f"{'ok' if check['ok'] else 'FAILED'}: {check['detail']}")


def result_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The last-line summary; metric names gain ``@workload`` when a run
    covers more than one workload."""
    single = len(records) == 1
    metrics = {}
    for record in records:
        for name, metric in record["metrics"].items():
            key = name if single else f"{name}@{record['workload']}"
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def append_runs(path: Path, records: List[Dict[str, Any]]) -> None:
    """Add run records to a runs file, creating it if needed."""
    runs: List[Dict[str, Any]] = []
    if path.is_file():
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    with open(path, "w") as handle:
        json.dump({"runs": runs + records}, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        catalog = json.load(handle)
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", dest="workloads", nargs="+",
                        action="extend", choices=names,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1),
                        help="1: report per-layer metrics and write Chrome traces")
    parser.add_argument("--out", type=Path,
                        help="append the run records to this JSON file")
    args = parser.parse_args(argv)

    fp = fingerprint()
    records = []
    for workload in args.workloads or names:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        if record is None:
            return 2
        record["fingerprint"] = fp
        print_record(record)
        records.append(record)
    if args.out is not None:
        append_runs(args.out, records)
    summary = result_line(records)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
