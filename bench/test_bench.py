"""Tests of the benchmark itself: its checks catch bad reports, its tracer leaves pqt as it found it.

Run with ``PYTHONPATH=src python -m pytest bench``.  The configs here are
the workloads' own generators at reduced shot counts, so they run in
about a second.
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from child import PROBE_REFERENCE_S, HostProbe
from tracer import TRACED_METHODS, Tracer

from pqt.harness import parse_config, run
from pqt.harness import runner as runner_module


def _report(config: dict) -> dict:
    return json.loads(run(parse_config(json.dumps(config))).to_json())


def _small_passive(seed: int = 5) -> dict[str, dict]:
    configs = {c["name"]: c for c in workloads.passive_sampling(seed)}
    configs["reconstruct-2q"]["shots"] = 2000
    configs["joint-local-2q"]["shots"] = 20000
    configs["chsh-global"]["shots"] = 20000
    configs["repeatability-passive-d4"]["trials"] = 20000
    return configs


@pytest.fixture(scope="module")
def passive_reports():
    configs = _small_passive()
    return {name: (config, _report(config)) for name, config in configs.items()}


@pytest.fixture(scope="module")
def shipped_reports():
    configs = workloads.protocol_loops(5)[: len(workloads.SHIPPED_CONFIGS)]
    return {c["name"]: (c, _report(c)) for c in configs}


def test_workloads_are_determined_by_the_seed():
    for build in workloads.WORKLOADS.values():
        assert build(3) == build(3)
        assert build(3) != build(4)


def test_shipped_configs_match_the_repository_copies():
    on_disk = {}
    for path in (Path(__file__).resolve().parent.parent / "configs").glob("*.json"):
        config = json.loads(path.read_text())
        config.pop("seed", None)
        on_disk[config["name"]] = config
    for config in workloads.SHIPPED_CONFIGS:
        assert on_disk.get(config["name"], config) == config, config["name"]


def test_correct_reports_pass(passive_reports, shipped_reports):
    for name, (config, payload) in {**passive_reports, **shipped_reports}.items():
        assert checks.check(config, payload) == [], name


def test_flipped_truth_table_bit_fails(shipped_reports):
    config, payload = shipped_reports["function-recovery-n2"]
    bad = copy.deepcopy(payload)
    bad["verdicts"]["truth_table"][1] ^= 1
    assert checks.check(config, bad)


def test_born_frequency_moved_by_ten_sigma_fails(passive_reports):
    config, payload = passive_reports["joint-local-2q"]
    psi, _, a_proj, _, b_proj = checks._bipartite_setting(config)
    marg_a = checks.born(psi, [np.kron(p, np.eye(2)) for p in a_proj])
    marg_b = checks.born(psi, [np.kron(np.eye(2), q) for q in b_proj])
    p = float(np.outer(marg_a, marg_b)[0, 0])
    shift = int(10 * np.sqrt(config["shots"] * p * (1 - p)))
    bad = copy.deepcopy(payload)
    rows = bad["tables"]["joint_counts"]["rows"]
    rows[0][2] += shift
    rows[1][2] -= shift  # keep the total: only the Born check may catch it
    assert sum(r[2] for r in rows) == config["shots"]
    assert any("cell" in problem for problem in checks.check(config, bad))


def test_expectation_moved_by_ten_sigma_fails(passive_reports):
    config, payload = passive_reports["reconstruct-2q"]
    shots = config["shots"]
    bad = copy.deepcopy(payload)
    row = bad["tables"]["expectations"]["rows"][0]
    exact = checks.expectation(checks.state_vector(config["initial_state"], 4), checks.pauli(row[0]))
    sigma = np.sqrt((1 - exact**2 + 1 / shots) / shots)
    row[1] = round(exact + 10 * sigma * (1 if exact < 0 else -1), 12)
    assert any(f"<{row[0]}>" in problem for problem in checks.check(config, bad))


def test_non_psd_estimate_fails():
    config = copy.deepcopy(workloads.passive_sampling(5)[0])
    config["shots"] = 100
    payload = _report(config)
    dim = 4
    raw = np.eye(dim, dtype=complex)
    for label, mean, _ in payload["tables"]["expectations"]["rows"]:
        raw += mean * checks.pauli(label)
    raw /= dim
    assert np.linalg.eigvalsh(raw).min() < -1e-3  # the unprojected estimate is not a state
    psi = checks.state_vector(config["initial_state"], dim)
    bad = copy.deepcopy(payload)
    for entry in bad["metrics"]:
        if entry["name"] == "purity":
            entry["value"] = float(np.trace(raw @ raw).real)
        if entry["name"] == "fidelity":
            entry["value"] = checks.expectation(psi, raw)
    assert checks.check(config, payload) == []
    assert any("projected estimate" in problem for problem in checks.check(config, bad))


def test_quantum_agreement_below_one_fails():
    config = {"protocol": "repeatability", "mode": "quantum", "trials": 10}
    payload = {"metrics": [{"name": "agreement_rate", "value": 0.9, "uncertainty": None}]}
    assert checks.check(config, payload)


def test_malformed_report_is_a_problem():
    config = workloads.passive_sampling(5)[1]
    assert checks.check(config, {"metrics": [], "tables": {}, "verdicts": {}})


def _snapshot() -> dict:
    """Every name the tracer may patch, with the object it refers to."""
    state = {}
    for name, module in sys.modules.items():
        if name == "pqt" or name.startswith("pqt."):
            state.update({(name, attr): value for attr, value in vars(module).items()})
    for module_name, class_name, method, _ in TRACED_METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        state[(class_name, method)] = cls.__dict__[method]
    state.update({("PROTOCOLS", key): entry for key, entry in runner_module.PROTOCOLS.items()})
    return state


def test_traced_run_is_byte_identical_and_restores_every_name():
    configs = workloads.protocol_loops(5)[: len(workloads.SHIPPED_CONFIGS)]
    configs.append(_small_passive()["reconstruct-2q"])
    texts = [json.dumps(c) for c in configs]
    before = _snapshot()
    plain = [run(parse_config(t)).to_json() for t in texts]
    with Tracer() as tracer:
        assert len(tracer.patches) > 100
        traced = [runner_module.run(parse_config(t)).to_json() for t in texts]
    after = _snapshot()
    assert traced == plain
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before), [k for k in before if after[k] is not before[k]]
    summary = tracer.summary()
    assert summary["harness.runner.reconstruct"]["calls"] == 2
    assert summary["measurement.sample_indices"]["calls"] > 0
    assert summary["counters"]["harness.report.bytes"] == sum(len(t.encode()) for t in plain)
    assert all(s["self_s"] >= -1e-6 for name, s in summary.items() if "self_s" in s)


def test_host_probe_scales_each_stretch_by_its_own_speed():
    probe = HostProbe()
    # Samples (start, end, task time): work runs 1-3 s at twice the
    # reference time, then 4-5 s at the reference time.
    probe.samples = [
        (0.0, 1.0, 2 * PROBE_REFERENCE_S),
        (3.0, 4.0, 2 * PROBE_REFERENCE_S),
        (5.0, 5.5, PROBE_REFERENCE_S),
    ]
    wall, scaled = probe.work()
    assert wall == pytest.approx(3.0)
    assert scaled == pytest.approx(2.0 / 2 + 1.0 / 1.5)
    assert probe.scaled(0.5) == pytest.approx(0.25)


def test_host_probe_timer_samples_and_stops():
    probe = HostProbe()
    probe.sample()
    probe.start_timer()
    try:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        probe.stop_timer()
    probe.sample()
    assert len(probe.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert all(a[1] <= b[0] for a, b in zip(probe.samples, probe.samples[1:]))
