"""One workload run in a fresh process; ``run.py`` starts one per workload.

Writes the run's record (metrics, operation counts, gate results) as
JSON to the result file.  Run directly only to debug a workload::

    PYTHONPATH=src python benchmarks/perf/worker.py WORKLOAD SEED SECONDS TRACE RESULT
    PYTHONPATH=src python benchmarks/perf/worker.py train 7 10 0 /dev/stdout
"""

from __future__ import annotations

import json
import sys


def main() -> None:
    workload, seed, seconds, trace, result_path = sys.argv[1:]

    from repro.backbone import load_pretrained_backbone

    from harness import Result
    from workloads import WORKLOADS

    # Fill the backbone cache before anything is timed, at the default
    # global seed, so a cold cache never shows up in set-up time and the
    # cached weights do not depend on which workload ran first.
    load_pretrained_backbone("tiny", steps=1)
    result = Result(workload, int(seed), float(seconds), trace == "1")
    WORKLOADS[workload](result)
    result.finish()
    with open(result_path, "w") as handle:
        json.dump(result.to_json(), handle)


if __name__ == "__main__":
    main()
