"""Output checks against the reference recorded per workload variant."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# A strategy's steady-state level may move by at most this much from the
# recorded value: far above rounding changes, below the 0.1-0.2 dB
# Monte-Carlo standard error of the workloads' 100- to 2000-run estimates.
STEADY_TOL_DB = 0.05

# Strategies with fixed cooperation weights always get a closed-form report.
FIXED_STRATEGIES = ("atc", "maic-averaging", "maic-p1", "maic-p2")


def load_reference(workload: str, variant: int) -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload][variant]


def reference_entry(result, out_dir: Path) -> dict:
    """What ``reference.json`` records for one run: the draw-stream digest,
    each strategy's steady-state dB and the sha256 of ``curves.csv``."""
    return {
        "stream_digest": result.stream_digest,
        "steady_db": {name: curve.steady_state_db() for name, curve in result.curves.items()},
        "curves_sha256": file_sha256(out_dir / "curves.csv"),
    }


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(path: Path):
    """Parse ``path`` as strict JSON: NaN and Infinity tokens are errors."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle, parse_constant=_reject_constant)


def theory_gap_db(summary: dict) -> float:
    """Largest |theory - simulated| steady-state dB over strategies with a report."""
    gaps = [
        abs(entry["steady_state_db"] - entry["theory"][-1]["msd_db"])
        for entry in summary["strategies"].values()
        if entry["theory"] and entry["theory"][-1]["msd_db"] is not None
    ]
    return max(gaps, default=math.nan)


def check_outputs(result, out_dir: Path, expected: dict) -> list[tuple[str, bool, str]]:
    """Checks on one run's result and the files it wrote to ``out_dir``."""
    checks = [
        (
            "stream_digest",
            result.stream_digest == expected["stream_digest"],
            result.stream_digest,
        )
    ]
    try:
        summary = strict_json(out_dir / "summary.json")
        checks.append(("summary_strict_json", True, ""))
    except ValueError as error:
        return checks + [("summary_strict_json", False, str(error))]
    for name, reference_db in expected["steady_db"].items():
        entry = summary["strategies"].get(name)
        value = None if entry is None else entry["steady_state_db"]
        ok = value is not None and abs(value - reference_db) <= STEADY_TOL_DB
        checks.append((f"steady_db.{name}", ok, f"{value} vs {reference_db} +- {STEADY_TOL_DB}"))
    for name in FIXED_STRATEGIES:
        entry = summary["strategies"].get(name)
        if entry is not None:
            checks.append((f"theory_reported.{name}", entry["theory"] is not None, ""))
    return checks


def check_same_curves(first_dir: Path, second_dir: Path) -> tuple[str, bool, str]:
    same = (first_dir / "curves.csv").read_bytes() == (second_dir / "curves.csv").read_bytes()
    return ("curves_identical_across_workers", same, f"{first_dir.name} vs {second_dir.name}")
