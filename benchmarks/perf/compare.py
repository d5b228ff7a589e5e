"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Each side is a runs file written by ``run.py --out`` (several
invocations may append to one file), or ``LEDGER:SET`` for a set stored
in a ledger such as ``benchmarks/perf/ledger/BENCH_11.json``::

    python3 benchmarks/perf/compare.py old.json new.json
    python3 benchmarks/perf/compare.py \
        benchmarks/perf/ledger/BENCH_11.json:new new.json \
        --ledger benchmarks/perf/ledger/BENCH_12.json

One row per (metric, workload) gives each side's median and quartiles
and the change of the medians.  End-to-end metrics get a verdict against
their bound in ``BENCHMARK.json``:

* ``worse`` / ``better`` -- the medians moved by more than the bound in
  that direction;
* ``unchanged`` -- they moved by less;
* ``unresolved`` -- a side's quartile spread is wider than the bound, so
  the medians cannot be trusted, unless every new run is better than
  every old run (``better``) or worse than every old run (``worse``).

Timings are reported normalized by the host-speed probe (see
``harness.HostSpeed``).  Because the probe shares its CPUs with the
system under test, each row is judged twice: on the normalized values
and on the raw ones kept in every record (``info["raw"]``, the median
over a run's windows or set-ups).  The row's verdict is the normalized
one when both agree and ``unresolved`` when they do not.

Per-layer metrics (from traced runs) are listed with their change and no
verdict.  The exit status is 1 when any row is ``worse`` or any run on
either side failed its correctness gates, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_side(spec: str) -> List[Dict[str, Any]]:
    """Run records from a runs file or from ``LEDGER:SET``."""
    path, name = Path(spec), None
    if not path.is_file() and ":" in spec:
        head, name = spec.rsplit(":", 1)
        path = Path(head)
    with open(path) as handle:
        data = json.load(handle)
    if name is not None:
        return data["sets"][name]["runs"]
    if "runs" not in data:
        raise SystemExit(f"{spec}: a ledger holds sets "
                         f"{sorted(data.get('sets', {}))}; name one as {spec}:SET")
    return data["runs"]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def raw_value(run: Dict[str, Any], name: str) -> float:
    """Median of a metric's unnormalized values in one run; the metric
    itself where it has none (memory, per-layer metrics)."""
    raw = run["info"].get("raw", {}).get(name)
    return statistics.median(raw) if raw else run["metrics"][name]["value"]


Values = Dict[Tuple[str, str], Tuple[List[float], List[float]]]


def collect(runs: List[Dict[str, Any]], traced: bool) -> Values:
    """(normalized, raw) values per (metric, workload)."""
    values: Values = {}
    for run in runs:
        if bool(run["trace"]) != traced:
            continue
        for name, metric in run["metrics"].items():
            normalized, raw = values.setdefault((name, run["workload"]), ([], []))
            normalized.append(metric["value"])
            raw.append(raw_value(run, name))
    return values


def verdict(old: List[float], new: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    """Relative change of the medians and the verdict against ``bound``."""
    base = quartiles(old)[1]
    change = (quartiles(new)[1] - base) / abs(base) if base else 0.0
    worsening = change if better == "lower" else -change

    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    if max(spread(old), spread(new)) > bound:
        if all(beats(n, o) for n in new for o in old):
            return change, "better"
        if all(beats(o, n) for n in new for o in old) and worsening > bound:
            return change, "worse"
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if -worsening > bound:
        return change, "better"
    return change, "unchanged"


def judge(old: Tuple[List[float], List[float]],
          new: Tuple[List[float], List[float]], better: str,
          bound: float) -> Dict[str, Any]:
    """Verdicts on the normalized and the raw values, and the row's."""
    change, normalized = verdict(old[0], new[0], better, bound)
    raw_change, raw = verdict(old[1], new[1], better, bound)
    return {"change": change, "raw_change": raw_change, "raw_verdict": raw,
            "verdict": normalized if normalized == raw else "unresolved"}


def compare(old_runs: List[Dict[str, Any]], new_runs: List[Dict[str, Any]],
            catalog: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for section, traced in (("end_to_end", False), ("per_layer", True)):
        old, new = collect(old_runs, traced), collect(new_runs, traced)
        workloads = [w["name"] for w in catalog["workloads"]]
        for metric in catalog[section]:
            for workload in workloads:
                key = (metric["name"], workload)
                if key not in old or key not in new:
                    continue
                if not any(old[key][0] + new[key][0]):
                    continue  # a layer this workload does not exercise
                row = {"metric": metric["name"], "workload": workload,
                       "unit": metric["unit"], "old": quartiles(old[key][0]),
                       "new": quartiles(new[key][0]),
                       "runs": [len(old[key][0]), len(new[key][0])]}
                if "bound" in metric:
                    row["bound"] = metric["bound"]
                    row.update(judge(old[key], new[key], metric["better"],
                                     metric["bound"]))
                else:
                    base = row["old"][1]
                    row["change"] = (row["new"][1] - base) / abs(base) if base else 0.0
                    row["verdict"] = "-"
                rows.append(row)
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    def side(q) -> str:
        return f"{q[1]:12.4f} [{q[0]:.4f}, {q[2]:.4f}]"

    lines = [f"{'metric':<30} {'workload':<12} {'old median [q1, q3]':<38} "
             f"{'new median [q1, q3]':<38} {'change':>8} {'bound':>6} "
             f"{'raw change, verdict':<22}  verdict"]
    for row in rows:
        bound = f"{row['bound']:.0%}" if "bound" in row else "-"
        raw = (f"{row['raw_change']:+8.1%} {row['raw_verdict']}"
               if "raw_verdict" in row else "-")
        lines.append(f"{row['metric']:<30} {row['workload']:<12} "
                     f"{side(row['old']):<38} {side(row['new']):<38} "
                     f"{row['change']:+8.1%} {bound:>6} {raw:<22}  "
                     f"{row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="runs file, or LEDGER:SET")
    parser.add_argument("new", help="runs file, or LEDGER:SET")
    parser.add_argument("--ledger", type=Path,
                        help="write both sets and the comparison to this ledger")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        catalog = json.load(handle)
    old_runs, new_runs = load_side(args.old), load_side(args.new)
    rows = compare(old_runs, new_runs, catalog)
    print(render(rows))
    failing = [f"{side}: {run['workload']} seed {run['seed']}"
               for side, runs in (("old", old_runs), ("new", new_runs))
               for run in runs if not run["correct"]]
    for line in failing:
        print(f"incorrect run  {line}")
    if args.ledger is not None:
        ledger = {
            "fingerprint": new_runs[0]["fingerprint"] if new_runs else None,
            "sets": {"old": {"source": args.old, "runs": old_runs},
                     "new": {"source": args.new, "runs": new_runs}},
            "comparison": rows,
        }
        args.ledger.parent.mkdir(parents=True, exist_ok=True)
        with open(args.ledger, "w") as handle:
            json.dump(ledger, handle, indent=1)
    worse = any(row["verdict"] == "worse" for row in rows)
    return 1 if worse or failing else 0


if __name__ == "__main__":
    sys.exit(main())
