"""The scripts under scripts/ run end to end on the package in this checkout."""

from __future__ import annotations

import importlib.util
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


def test_the_census_generator_gives_the_bundled_files():
    # the census digests pin scans of these files; the script's families
    # must still be the bundled ones, byte for byte (nothing is written)
    spec = importlib.util.spec_from_file_location(
        "make_mini_census", ROOT / "scripts" / "make_mini_census.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    texts = script.census_texts()
    bundled = sorted((ROOT / "data" / "census").glob("census_n*_r*.txt"))
    assert sorted(texts) == [p.name for p in bundled]
    for path in bundled:
        assert texts[path.name] == path.read_text(encoding="utf-8"), path.name
