#!/usr/bin/env python3
"""Print one sha256 per preset and output file of a simulation.

Each preset runs end to end and writes ``curves.csv``, ``summary.json``
and ``weights_*.csv`` to a temporary directory. Every file gets its own
line, ``<preset> <file> <sha256 of its bytes>``. One more line,
``<preset> result <sha256>``, hashes the in-memory result: every curve's
arrays, ``per_cluster`` included, in curve order, and the aborted runs and
QP fallback counts, which no file holds in full. The last line per preset
gives the run's stream digest, ``<preset> stream_digest <hex>``, so a
change that moves one output shows which. A preset whose segments do
not fit ``--iters`` is listed as skipped. ``--perfbench K`` also lists the
benchmark's scenarios (``perfbench/workloads.py``) at seeds 0..K-1, at
their own sizes, as ``<workload>@<seed>``. Two trees produce the same
outputs exactly when their listings match, e.g.

    python3 scripts/output_digests.py --runs 300 --perfbench 4 > before.txt
    (in the other tree) python3 scripts/output_digests.py --runs 300 --perfbench 4 > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from maicnet import harness, presets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def file_digests(out_dir: Path) -> list[tuple[str, str]]:
    """``(file name, sha256)`` of every output file, curves and summary first."""
    paths = [out_dir / "curves.csv", out_dir / "summary.json", *sorted(out_dir.glob("weights_*.csv"))]
    return [(path.name, hashlib.sha256(path.read_bytes()).hexdigest()) for path in paths]


def result_digest(result) -> str:
    """sha256 over each curve's name and arrays (C-order bytes), in curve
    order, then the diagnostics' aborted ``(run, step)`` pairs and fallback
    counts as JSON."""
    digest = hashlib.sha256()
    for name, curve in result.curves.items():
        digest.update(name.encode())
        for field in ("network", "per_cluster", "counts", "run_steady", "run_cluster_steady"):
            digest.update(getattr(curve, field).tobytes())
    digest.update(json.dumps(result.diagnostics).encode())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--perfbench", type=int, default=0, metavar="K")
    args = parser.parse_args()

    overrides = {}
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.iters is not None:
        overrides["iterations"] = args.iters
    for name in presets.PRESET_NAMES:
        try:
            scenario = presets.get_scenario(name, **overrides)
        except ValueError as error:  # e.g. --iters ends before a segment starts
            print(f"{name} skipped: {error}")
            continue
        list_digests(name, scenario, args.workers)
    if args.perfbench > 0:
        sys.path.append(str(PERFBENCH))
        import workloads

        for workload in workloads.GENERATORS:
            for seed in range(args.perfbench):
                list_digests(f"{workload}@{seed}", workloads.build(workload, seed), args.workers)


def list_digests(name: str, scenario, workers: int) -> None:
    result = harness.run_scenario(scenario, workers=workers)
    with tempfile.TemporaryDirectory() as tmp:
        result.write_outputs(tmp)
        for file_name, digest in file_digests(Path(tmp)):
            print(f"{name} {file_name} {digest}")
    print(f"{name} result {result_digest(result)}")
    print(f"{name} stream_digest {result.stream_digest}")


if __name__ == "__main__":
    main()
