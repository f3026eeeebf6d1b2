#!/usr/bin/env python3
"""Record the reference outputs of every workload variant.

    python3 perfbench/record.py

Runs each variant of every workload once with one worker, one variant
per CPU at a time, and writes, per workload and variant, the draw-stream
digest, each strategy's steady-state dB and the sha256 of ``curves.csv``
to ``perfbench/reference.json``. Re-record only when a change is meant to
alter the simulated outputs, and say so.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("study-a", "compile-n24", "study-b-2w")


def _record(task):
    name, variant = task
    import checks
    import workloads
    from maicnet import harness

    out = BENCH / "out" / "record" / f"{name}-{variant}"
    result = harness.run_scenario(workloads.build(name, variant), workers=1)
    result.write_outputs(out)
    return name, variant, checks.reference_entry(result, out)


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import checks
    import workloads

    tasks = [(name, v) for name in WORKLOADS for v in range(workloads.VARIANTS)]
    reference = {name: [None] * workloads.VARIANTS for name in WORKLOADS}
    context = multiprocessing.get_context("spawn")
    jobs = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        for name, variant, entry in pool.map(_record, tasks):
            reference[name][variant] = entry
            print(name, variant, entry["stream_digest"][:12], flush=True)
    document = {"variants": workloads.VARIANTS, "workloads": reference}
    checks.REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
