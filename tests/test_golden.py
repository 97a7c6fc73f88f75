"""Every shipped config must keep producing its committed report, byte for byte.

The files in ``tests/golden/`` are the canonical reports of ``configs/``.
A change that alters stream consumption or the report payload on purpose
regenerates them, and says so, with

    for f in configs/*.json; do
        PYTHONPATH=src python -m pqt.harness.cli run --config "$f" --out "tests/golden/$(basename "$f")"
    done
"""

import hashlib
import importlib.util
import json
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


# sha256 of the reports of the benchmark's passive-sampling workload at seed 1.
# No golden covers these high-shot runs, and every one of them goes through
# the counting kernels: the frame sampler, the joint tables and repeatability.
PASSIVE_SAMPLING_SEED_1 = {
    "reconstruct-2q": "c0bb55fbb0e75debe85757d33971a9b3e47f1485ba7342393cdbbd38e2e30c2a",
    "joint-local-2q": "5e4678d046dde560bdb7395d2ab2a2252e43ac00e7b2af2318c269df94e06fe0",
    "chsh-global": "caaf7f3c3b97577e513562281a467a172265b8a8dd1dcbd338399d83f9b06c88",
    "repeatability-passive-d4": "c4968d23635fbfe7fa1b18bf2bcce00c5721ff65ae9e47117fd85783586c5452",
}


def test_passive_sampling_reports_at_seed_1_are_unchanged():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    hashes = {
        config["name"]: hashlib.sha256(run(parse_config(json.dumps(config))).to_json().encode()).hexdigest()
        for config in workloads.build("passive-sampling", 1)
    }
    assert hashes == PASSIVE_SAMPLING_SEED_1
