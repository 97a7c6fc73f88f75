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


# sha256 of the per-trial reports of the benchmark's protocol-loops workload at
# seed 1: quantum repeatability, quantum function recovery (one stream per trial),
# both proper-vs-improper presentations and quantum teleportation (one input
# stream per trial).  No golden covers these runs or their sub-stream paths.
PROTOCOL_LOOPS_SEED_1 = {
    "repeatability-quantum": "10dda750fbc75fc89b5d40e4d451481dec26e2a6f2673c5be7336d39b12ab8ca",
    "function-recovery-quantum": "b4642ea0639afb4e8a8e76e546141badb58933509207679fd3f9e3a4ee7ce008",
    "proper-vs-improper-mixture": "7637ea95add14076e6ead39ac1e305f4f1c03d258692a35be9072944057d621f",
    "proper-vs-improper-purification": "dd1432d0e9f5bc3a7d215a4105ffeedabf8fffd76e5b450d864227d3d9e06cd1",
    "teleportation-quantum": "7c178e3d6a9efdcef760c47637076ef8eba0247952cc6747bfbc933e7639ed13",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _report_hashes(configs) -> dict[str, str]:
    return {
        config["name"]: hashlib.sha256(run(parse_config(json.dumps(config))).to_json().encode()).hexdigest()
        for config in configs
    }


def test_passive_sampling_reports_at_seed_1_are_unchanged():
    assert _report_hashes(_workloads().build("passive-sampling", 1)) == PASSIVE_SAMPLING_SEED_1


def test_protocol_loops_per_trial_reports_at_seed_1_are_unchanged():
    workloads = _workloads()
    per_trial = workloads.build("protocol-loops", 1)[len(workloads.SHIPPED_CONFIGS) :]
    assert _report_hashes(per_trial) == PROTOCOL_LOOPS_SEED_1
