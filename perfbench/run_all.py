#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json untraced and then traced.

    python3 perfbench/run_all.py [--seed 0] [--seconds 30]

Prints each run's metrics with their units and the output checks'
verdict; exits nonzero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            print(f"== {workload['name']} --trace {trace}", flush=True)
            command = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            failures += subprocess.run(command, cwd=BENCH.parent).returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
