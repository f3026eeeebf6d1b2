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
    [("run_preset.py", ["a"]), ("mean_shift_study.py", []), ("sweep_correlation.py", [])],
)
def test_script_runs_to_completion(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--runs", "4", "--iters", "40"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
