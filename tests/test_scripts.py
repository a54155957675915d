"""The scripts under scripts/ run end to end on the package in this checkout."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_survey_bounded_fvectors_on_a_census_file():
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "survey_bounded_fvectors.py"),
            str(ROOT / "data" / "census" / "census_n4_r2.txt"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "14 linear spaces, 2 distinct bounded f-vectors" in proc.stdout.splitlines()
