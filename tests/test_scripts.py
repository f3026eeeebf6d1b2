"""Smoke runs of the study scripts: each finishes on a tiny budget."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_preset.py", ["a"]),
        ("mean_shift_study.py", []),
        ("sweep_correlation.py", []),
        ("output_digests.py", []),
    ],
)
def test_script_runs_to_completion(script, args, tmp_path):
    run_script(script, [*args, "--runs", "4", "--iters", "40"], tmp_path)


def test_output_digests_list_the_benchmark_scenarios(tmp_path):
    listing = run_script("output_digests.py", ["--runs", "4", "--perfbench", "1"], tmp_path)
    lines = [line.split() for line in listing.splitlines()]
    for name in ("study-a@0", "compile-n24@0", "study-b-2w@0"):
        files = [fields[1] for fields in lines if fields[0] == name]
        assert files[:2] == ["curves.csv", "summary.json"] and files[-1] == "stream_digest", name
    assert not any(fields[0].endswith("@1") for fields in lines)


def run_script(script, args, cwd):
    """Run a script from ``scripts/`` on this tree's sources; its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout
