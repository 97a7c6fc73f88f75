"""Every shipped config must keep producing its committed report, byte for byte.

The files in ``tests/golden/`` are the canonical reports of ``configs/``.
A change that alters stream consumption or the report payload on purpose
regenerates them, and says so, with

    for f in configs/*.json; do
        PYTHONPATH=src python -m pqt.harness.cli run --config "$f" --out "tests/golden/$(basename "$f")"
    done
"""

from pathlib import Path

import pytest

from pqt.harness import parse_config, run

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_one_golden_per_config():
    assert [p.name for p in CONFIGS] == sorted(p.name for p in (ROOT / "tests" / "golden").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_report_matches_golden(path):
    golden = (ROOT / "tests" / "golden" / path.name).read_text(encoding="utf-8")
    assert run(parse_config(path.read_text(encoding="utf-8"))).to_json() == golden
