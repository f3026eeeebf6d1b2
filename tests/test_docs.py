"""The README against the package it documents."""

from __future__ import annotations

import re
from pathlib import Path

import maicnet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api_section_names_every_export():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([^`]+)`", section))
    exports = [name for name in maicnet.__all__ if name != "__version__"]
    assert [name for name in exports if name not in named] == []
