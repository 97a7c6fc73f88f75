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
# the counting kernel: the frame sampler, the joint tables and repeatability.
PASSIVE_SAMPLING_SEED_1 = {
    "reconstruct-2q": "d98fdef6d99cd8e924cbbc171d96902c3222200060d820d15880a560c9df0a5b",
    "joint-local-2q": "a1ff576fdc828f88e0554c7822a4bcad08875a4ed63371f7c8b44af9633b21a5",
    "chsh-global": "43286ed661f71236ace19f9e7436e9f5dedab0cbab9a70d11939cc29953341e3",
    "repeatability-passive-d4": "d56be9df7533dfeff6f91a135a96e1acdb2dc322343d7b51f6d5417f571a8c69",
}


# sha256 of the per-trial reports of the benchmark's protocol-loops workload at
# seed 1: quantum repeatability, quantum function recovery (every trial on the
# protocol stream), both proper-vs-improper presentations and quantum
# teleportation (every input from one input stream).  No golden covers these runs.
PROTOCOL_LOOPS_SEED_1 = {
    "repeatability-quantum": "10dda750fbc75fc89b5d40e4d451481dec26e2a6f2673c5be7336d39b12ab8ca",
    "function-recovery-quantum": "05bf6a1bb0cb2e5da5aed784f0a2015558f1fbf09601df58858d3871fbc9b6bf",
    "proper-vs-improper-mixture": "36c9b1c95788ebc15478c19302e1fb95f9cde88ed4af1bc93289a6e4fac8814c",
    "proper-vs-improper-purification": "8e68bd6343fe62761ca9eae82f943528d8c5bd7d05d8ee3ff0b1d70dc8e2d82f",
    "teleportation-quantum": "7c178e3d6a9efdcef760c47637076ef8eba0247952cc6747bfbc933e7639ed13",
}


# sha256 of reports on generalised Gell-Mann frames at seed 1: at dimensions 5
# and 3, at 63 (the largest frame, 3968 rows) and 7 x 9 = 63 as a bipartite
# shape, and side A's lifted qutrit frame of a [3, 3] entanglement check.
# Neither the goldens nor the benchmark reach such a frame outside the lifted
# qutrit side of protocol-loops' [3, 3] purification.
GELL_MANN_SEED_1 = {
    "reconstruct-d5-mixed": "7c2e56db799d2c3d538f8d9c5b45647b926640af6e69443cab4deb1b188e4bcd",
    "discriminate-qutrit": "4624c39e9ee2fd7e27f0496bee07468933af43e0f98f7a47960a360b9d59422b",
    "clone-qutrit": "5e9cdb6515070c23b46ae55a04d4053c0a9d6aeaf4b05ffa89d346e67399275a",
    "reconstruct-d63-pure": "2ec39011fd3383082d4819f7b4c2961f32df31214fd8a8af1fed58a029b9220d",
    "reconstruct-7x9": "077c0b4b894054ffd3312e5bc7edb64335023a2d83d93fa8e2d1da07437ab08f",
    "entanglement-3x3": "464067921c16f2be84ae2ae948a27821b799eaa658d470039aa7eb83cd64f886",
}
GELL_MANN_CONFIGS = [
    {
        "name": "reconstruct-d5-mixed",
        "protocol": "reconstruct",
        "mode": "passive",
        "dimension": 5,
        "initial_state": "maximally-mixed",
        "shots": 1000,
        "seed": 1,
    },
    {
        "name": "discriminate-qutrit",
        "protocol": "discriminate",
        "mode": "passive",
        "dimension": 3,
        "initial_state": "random-pure:2",
        "candidates": ["basis:0", "random-pure:2", "random-pure:5"],
        "shots": 1000,
        "seed": 1,
    },
    {
        "name": "clone-qutrit",
        "protocol": "clone",
        "mode": "passive",
        "dimension": 3,
        "initial_state": "random-pure:2",
        "shots": 1000,
        "seed": 1,
    },
    {
        "name": "reconstruct-d63-pure",
        "protocol": "reconstruct",
        "mode": "passive",
        "dimension": 63,
        "initial_state": "random-pure:3",
        "shots": 1000,
        "seed": 1,
    },
    {
        "name": "reconstruct-7x9",
        "protocol": "reconstruct",
        "mode": "passive",
        "shape": [7, 9],
        "initial_state": "random-pure:4",
        "shots": 1000,
        "seed": 1,
    },
    {
        "name": "entanglement-3x3",
        "protocol": "entanglement",
        "mode": "passive",
        "shape": [3, 3],
        "initial_state": "random-pure:5",
        "shots": 1000,
        "seed": 1,
    },
]


# sha256 of the benchmark's reconstruct-6q report at seed 1: the largest count
# table, 4095 Pauli rows of 1000 shots, which no golden covers.
RECONSTRUCT_6Q_SEED_1 = {
    "reconstruct-6q": "72a8eb7f60e068a42ff3a35d8ea5520354054849a7b397876413686a61c07857",
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


def test_reconstruct_6q_report_at_seed_1_is_unchanged():
    assert _report_hashes(_workloads().build("reconstruct-6q", 1)) == RECONSTRUCT_6Q_SEED_1


def test_protocol_loops_per_trial_reports_at_seed_1_are_unchanged():
    workloads = _workloads()
    per_trial = workloads.build("protocol-loops", 1)[len(workloads.SHIPPED_CONFIGS) :]
    assert _report_hashes(per_trial) == PROTOCOL_LOOPS_SEED_1


def test_gell_mann_reports_at_seed_1_are_unchanged():
    assert _report_hashes(GELL_MANN_CONFIGS) == GELL_MANN_SEED_1
