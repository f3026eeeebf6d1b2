#!/usr/bin/env python3
"""Print one sha256 per preset and output file of a simulation.

Each preset runs end to end and writes ``curves.csv``, ``summary.json``
and ``weights_*.csv`` to a temporary directory. Every file gets its own
line, ``<preset> <file> <sha256 of its bytes>``, and one more line per
preset gives the run's stream digest, ``<preset> stream_digest <hex>``,
so a change that moves one file shows which. A preset whose segments do
not fit ``--iters`` is listed as skipped. Two trees produce the same
outputs exactly when their listings match, e.g.

    python3 scripts/output_digests.py --runs 300 > before.txt
    (in the other tree) python3 scripts/output_digests.py --runs 300 > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from maicnet import harness, presets


def file_digests(out_dir: Path) -> list[tuple[str, str]]:
    """``(file name, sha256)`` of every output file, curves and summary first."""
    paths = [out_dir / "curves.csv", out_dir / "summary.json", *sorted(out_dir.glob("weights_*.csv"))]
    return [(path.name, hashlib.sha256(path.read_bytes()).hexdigest()) for path in paths]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
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
        result = harness.run_scenario(scenario, workers=args.workers)
        with tempfile.TemporaryDirectory() as tmp:
            result.write_outputs(tmp)
            for file_name, digest in file_digests(Path(tmp)):
                print(f"{name} {file_name} {digest}")
        print(f"{name} stream_digest {result.stream_digest}")


if __name__ == "__main__":
    main()
