"""Protocol dispatch: one runner per experiment type.

Each runner resolves the config's states and observables, derives its
random streams from the root seed (stream path = config name plus a
component suffix, see :mod:`pqt.rng`) and assembles a deterministic
:class:`~pqt.harness.report.Report`.  Identical (config, seed) pairs
produce byte-identical serialized reports.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

import numpy as np

from .. import rng
from ..composite import (
    LocalSetting,
    chsh_value,
    detect_entanglement_single_copy,
    global_joint_sample,
    local_passive_joint_sample,
    signalling_check,
)
from ..hilbert import StateVector, fidelity, random_pure_state
from ..measurement import InsufficientShotsError, Observable, PSystem
from ..protocols import (
    OracleSpec,
    clone_via_reconstruction,
    deutsch_jozsa_verdict,
    function_recovery,
    no_cloning_check,
    proper_vs_improper,
    repeatability_experiment,
    simulate_qt_with_pqt,
    teleportation_demo,
)
from ..tomography import discriminate, estimate_spectrum, ic_set_for_dimension, reconstruct_single_copy
from .config import (
    ConfigError,
    ExperimentConfig,
    resolve_cloning_test,
    resolve_mixture,
    resolve_observable,
    resolve_purification,
    resolve_state,
)
from .report import Report
from .stats import wilson_interval


def _echo(config: ExperimentConfig) -> dict:
    return json.loads(config.to_json())


def _stream(config: ExperimentConfig, purpose: str) -> np.random.Generator:
    return rng.stream(config.seed, f"{config.name}/{purpose}")


def _initial_state(config: ExperimentConfig):
    if config.initial_state is None:
        raise ConfigError("initial_state", f"protocol {config.protocol!r} requires an initial state")
    return resolve_state(config.initial_state, config.shape)


def _observables(config: ExperimentConfig, count: int) -> list[Observable]:
    if len(config.observables) < count:
        raise ConfigError("observables", f"protocol {config.protocol!r} needs {count} observable(s)")
    return [resolve_observable(spec, field=f"observables[{i}]") for i, spec in enumerate(config.observables[:count])]


def _bipartite_shape(state) -> tuple[int, int]:
    if len(state.shape) != 2:
        raise ConfigError("shape", "this protocol needs a bipartite state (two subsystem dimensions)")
    return state.shape


def _run_repeatability(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    (obs,) = _observables(config, 1)
    rate = repeatability_experiment(state, obs, config.mode, config.trials, _stream(config, "repeatability"))
    report = Report(_echo(config), config.seed)
    low, high = wilson_interval(int(round(rate * config.trials)), config.trials)
    report.add_metric("agreement_rate", rate, (high - low) / 2)
    return report


def _run_reconstruct(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    sys = PSystem(state, config.mode, _stream(config, "reconstruct"))
    result = reconstruct_single_copy(sys, ic_set_for_dimension(state.dim), config.shots)
    report = Report(_echo(config), config.seed)
    report.add_metric("fidelity", fidelity(state, result.estimate))
    report.add_metric("purity", result.estimate.purity())
    report.add_table(
        "expectations",
        ["observable", "mean", "half_width"],
        [[e.observable, e.mean, e.half_width] for e in result.diagnostics],
    )
    report.verdicts["state_unchanged"] = sys.state is state
    return report


def _run_discriminate(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    specs = config.extras.get("candidates")
    if not specs or len(specs) < 2:
        raise ConfigError("candidates", "need at least two candidate states")
    candidates = [resolve_state(s, config.shape, field=f"candidates[{i}]") for i, s in enumerate(specs)]
    if not all(isinstance(c, StateVector) for c in candidates):
        raise ConfigError("candidates", "candidates must be pure states")
    sys = PSystem(state, config.mode, _stream(config, "discriminate"))
    index = discriminate(sys, candidates, ic_set_for_dimension(state.dim), config.shots)
    report = Report(_echo(config), config.seed)
    report.verdicts["chosen_index"] = index
    return report


def _run_spectrum(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    (obs,) = _observables(config, 1)
    sys = PSystem(state, config.mode, _stream(config, "spectrum"))
    values = estimate_spectrum(sys, obs, config.shots)
    report = Report(_echo(config), config.seed)
    report.add_table("spectrum", ["eigenvalue"], [[v] for v in values])
    report.verdicts["n_distinct"] = len(values)
    return report


def _joint_report(config: ExperimentConfig, table) -> Report:
    report = Report(_echo(config), config.seed)
    report.add_table("joint_counts", ["a", "b", "count"], [list(row) for row in table.rows()])
    dichotomic = all(
        min(abs(v - 1.0), abs(v + 1.0)) <= 1e-9 for v in (*table.a_values, *table.b_values)
    )
    if dichotomic:
        from ..composite import correlator

        report.add_metric("correlator", correlator(table), 1.0 / np.sqrt(table.shots))
    return report


def _run_joint_global(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    _bipartite_shape(state)
    a_obs, b_obs = _observables(config, 2)
    sys = PSystem(state, config.mode, _stream(config, "joint-global"))
    table = global_joint_sample(sys, a_obs, b_obs, config.shots, ensemble=bool(config.extras.get("ensemble", False)))
    return _joint_report(config, table)


def _run_joint_local(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    _bipartite_shape(state)
    a_obs, b_obs = _observables(config, 2)
    sys = PSystem(state, config.mode, _stream(config, "joint-local"))
    table = local_passive_joint_sample(sys, LocalSetting("A", a_obs), LocalSetting("B", b_obs), config.shots)
    return _joint_report(config, table)


def _run_chsh(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    _bipartite_shape(state)
    a1, a2, b1, b2 = _observables(config, 4)
    source = config.extras.get("source", "global")
    value = chsh_value(state, (a1, a2), (b1, b2), source, config.shots, _stream(config, "chsh"))
    report = Report(_echo(config), config.seed)
    report.add_metric("chsh_s", value, 4.0 / np.sqrt(config.shots))
    return report


def _run_entanglement(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    _bipartite_shape(state)
    if not isinstance(state, StateVector):
        raise ConfigError("initial_state", "entanglement detection needs a pure state")
    sys = PSystem(state, config.mode, _stream(config, "entanglement"))
    verdict = detect_entanglement_single_copy(sys, config.shots)
    report = Report(_echo(config), config.seed)
    report.add_metric("purity", verdict.purity)
    report.verdicts["verdict"] = verdict.verdict
    return report


def _run_signalling(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    _bipartite_shape(state)
    action = config.extras.get("action", "none")
    if action == "none":
        (b_obs,) = _observables(config, 1)
        a_obs = None
    else:
        a_obs, b_obs = _observables(config, 2)
    result = signalling_check(state, action, b_obs, a_obs)
    report = Report(_echo(config), config.seed)
    report.add_metric("tv_distance", result.tv_distance)
    report.add_table(
        "marginals",
        ["eigenvalue", "p_without", "p_with"],
        [
            [v, float(p), float(q)]
            for v, p, q in zip(
                result.marginal_without.eigenvalues,
                result.marginal_without.probabilities,
                result.marginal_with.probabilities,
            )
        ],
    )
    return report


def _oracle_spec(config: ExperimentConfig) -> OracleSpec:
    raw = config.extras.get("oracle")
    if not isinstance(raw, dict) or "n" not in raw or "truth_table" not in raw:
        raise ConfigError("oracle", "expected an object with 'n' and 'truth_table'")
    try:
        return OracleSpec(raw["n"], tuple(raw["truth_table"]), raw.get("promise"))
    except (TypeError, ValueError) as exc:
        raise ConfigError("oracle", str(exc)) from exc


def _run_function_recovery(config: ExperimentConfig) -> Report:
    spec = _oracle_spec(config)
    report = Report(_echo(config), config.seed)
    if config.mode == "passive":
        result = function_recovery(spec, "passive", _stream(config, "function-recovery"), config.shots)
        report.add_metric("oracle_calls", result.resources["oracle_calls"])
        report.verdicts["truth_table"] = list(result.verdicts["truth_table"])
        return report
    calls = []
    table = None
    for trial in range(config.trials):
        result = function_recovery(spec, "quantum", _stream(config, f"function-recovery/{trial}"), 1)
        calls.append(result.resources["oracle_calls"])
        table = result.verdicts["truth_table"]
    report.add_metric("oracle_calls_mean", float(np.mean(calls)), float(np.std(calls) / np.sqrt(len(calls))))
    report.verdicts["truth_table"] = list(table)
    return report


def _run_deutsch_jozsa(config: ExperimentConfig) -> Report:
    spec = _oracle_spec(config)
    result = deutsch_jozsa_verdict(spec, config.mode, _stream(config, "deutsch-jozsa"), config.shots)
    report = Report(_echo(config), config.seed)
    report.add_metric("oracle_calls", result.resources["oracle_calls"])
    report.verdicts["verdict"] = result.verdicts["verdict"]
    return report


def _run_clone(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    sys = PSystem(state, config.mode, _stream(config, "clone"))
    clone, result = clone_via_reconstruction(sys, config.shots)
    report = Report(_echo(config), config.seed)
    report.add_metric("clone_fidelity", result.fidelities["clone"])
    report.verdicts["original_unchanged"] = sys.state is state
    report.verdicts["clone_dim"] = clone.dim
    return report


def _run_no_cloning(config: ExperimentConfig) -> Report:
    psi, phi, candidate = resolve_cloning_test(config.extras)
    result = no_cloning_check(candidate, (psi, phi))
    report = Report(_echo(config), config.seed)
    report.add_metric("fidelity_first", result.fidelity_first)
    report.add_metric("fidelity_second", result.fidelity_second)
    report.add_metric("obstruction", result.obstruction)
    report.verdicts["clones_both"] = result.clones_both
    return report


def _run_proper_vs_improper(config: ExperimentConfig) -> Report:
    mixture = None
    purification = None
    if "mixture" in config.extras:
        mixture = resolve_mixture(config.extras["mixture"])
    if "purification" in config.extras:
        purification = resolve_purification(config.extras["purification"], config.shape)
    result = proper_vs_improper(
        config.trials,
        config.shots,
        _stream(config, "proper-vs-improper"),
        mixture=mixture,
        purification=purification,
    )
    report = Report(_echo(config), config.seed)
    report.add_metric("mean_purity", result.verdicts["mean_purity"])
    report.verdicts["verdict"] = result.verdicts["verdict"]
    report.add_table(
        "trials",
        ["trial", "purity", "verdict"],
        [[entry["trial"], entry["purity"], entry["verdict"]] for entry in result.log],
    )
    return report


def _eigenstate_library(obs: Observable) -> dict[int, StateVector]:
    library = {}
    for index, projector in enumerate(obs.projectors):
        values, vectors = np.linalg.eigh(projector)
        if int(round(values.sum())) != 1:
            raise ConfigError("library", "eigenstate library needs a non-degenerate observable")
        library[index] = StateVector.normalized(vectors[:, -1])
    return library


def _run_simulate_collapse(config: ExperimentConfig) -> Report:
    state = _initial_state(config)
    (obs,) = _observables(config, 1)
    sys = PSystem(state, config.mode, _stream(config, "simulate-collapse"))
    library = _eigenstate_library(obs) if config.extras.get("library") == "eigenstates" else None
    followup = None
    if "followup_observable" in config.extras:
        followup = resolve_observable(config.extras["followup_observable"], field="followup_observable")
    result = simulate_qt_with_pqt(
        sys,
        obs,
        library=library,
        tomography_shots=config.shots,
        followup_obs=followup,
        followup_shots=config.extras.get("followup_shots", config.shots),
    )
    report = Report(_echo(config), config.seed)
    report.verdicts["outcome"] = result.verdicts["outcome"]
    if "followup_tv" in result.verdicts:
        report.add_metric("followup_tv", result.verdicts["followup_tv"])
    return report


def _run_teleportation(config: ExperimentConfig) -> Report:
    stream = _stream(config, "teleportation")
    fidelities = []
    for trial in range(config.trials):
        if config.initial_state is not None:
            state = resolve_state(config.initial_state, config.shape)
        else:
            state = random_pure_state(2, rng.stream(config.seed, f"{config.name}/teleportation/input/{trial}"))
        if not isinstance(state, StateVector) or state.dim != 2:
            raise ConfigError("initial_state", "teleportation input must be a pure qubit state")
        fidelities.append(teleportation_demo(state, config.mode, stream))
    report = Report(_echo(config), config.seed)
    report.add_metric("average_fidelity", float(np.mean(fidelities)))
    return report


class Protocol(NamedTuple):
    """What ``list-protocols`` prints about a protocol and what ``parse_config`` checks of its mode."""

    description: str
    modes: tuple[str, ...] = ("passive", "quantum")
    quantum_needs: str | None = None  # an extra field that must be true in quantum mode


PASSIVE_ONLY = ("passive",)

PROTOCOLS = {
    "chsh": (_run_chsh, Protocol("CHSH value from global or local-passive sampling")),
    "clone": (_run_clone, Protocol("copy an unknown state by single-copy readout", PASSIVE_ONLY)),
    "deutsch-jozsa": (_run_deutsch_jozsa, Protocol("constant-vs-balanced verdict, one oracle call")),
    "discriminate": (_run_discriminate, Protocol("identify which candidate state a single copy is in", PASSIVE_ONLY)),
    "entanglement": (
        _run_entanglement,
        Protocol("product-vs-entangled from local measurements on one copy", PASSIVE_ONLY),
    ),
    "function-recovery": (_run_function_recovery, Protocol("recover a full truth table from the post-oracle state")),
    "joint-global": (
        _run_joint_global,
        Protocol("joint outcome table from one global device", quantum_needs="ensemble"),
    ),
    "joint-local": (
        _run_joint_local,
        Protocol("joint outcome table from independent local passive devices", PASSIVE_ONLY),
    ),
    "no-cloning": (_run_no_cloning, Protocol("inner-product obstruction to unitary cloning")),
    "proper-vs-improper": (_run_proper_vs_improper, Protocol("tell a classical ensemble from an entangled marginal")),
    "reconstruct": (_run_reconstruct, Protocol("single-copy state reconstruction", PASSIVE_ONLY)),
    "repeatability": (_run_repeatability, Protocol("agreement rate of immediate repeated measurements")),
    "signalling": (_run_signalling, Protocol("B-side marginal with and without an A-side action")),
    "simulate-collapse": (
        _run_simulate_collapse,
        Protocol("make passive measurements look collapsed by swapping", PASSIVE_ONLY),
    ),
    "spectrum": (_run_spectrum, Protocol("recover an observable's spectrum by repetition", PASSIVE_ONLY)),
    "teleportation": (_run_teleportation, Protocol("teleportation fidelity under either update rule")),
}


def list_protocols() -> list[tuple[str, Protocol]]:
    return [(name, PROTOCOLS[name][1]) for name in sorted(PROTOCOLS)]


def run(config: ExperimentConfig) -> Report:
    """Dispatch a validated config to its protocol runner."""
    try:
        runner, _ = PROTOCOLS[config.protocol]
    except KeyError:
        raise ConfigError("protocol", f"unknown protocol {config.protocol!r}") from None
    start = time.perf_counter()
    try:
        report = runner(config)
    except InsufficientShotsError as exc:
        raise ConfigError("shots", str(exc)) from exc
    report.wall_clock_seconds = time.perf_counter() - start
    return report
