#!/usr/bin/env python3
"""Print one sha256 per preset over the files a simulation writes.

Each preset runs end to end and writes ``curves.csv``, ``summary.json``
and ``weights_*.csv`` to a temporary directory; the digest covers each
file's name and bytes, in name order. A preset whose segments do not fit
``--iters`` is listed as skipped. Two trees produce the same outputs
exactly when their listings match, e.g.

    python3 scripts/output_digests.py --runs 300 > before.txt
    (in the other tree) python3 scripts/output_digests.py --runs 300 > after.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from maicnet import harness, presets


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    paths = [out_dir / "curves.csv", out_dir / "summary.json", *sorted(out_dir.glob("weights_*.csv"))]
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


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
            print(f"{name} {output_digest(Path(tmp))}")


if __name__ == "__main__":
    main()
