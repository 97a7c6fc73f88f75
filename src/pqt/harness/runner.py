"""Protocol dispatch: one runner per experiment type.

``run`` builds the :class:`~pqt.harness.report.Report` and the
protocol's random stream, path ``"{name}/{protocol}"`` under the root
seed (see :mod:`pqt.rng`), and hands both to the protocol's runner.  A
runner reads only the inputs ``parse_config`` resolved and fills the
report.  Teleportation's random inputs alone draw from a second stream,
``"{name}/teleportation/input"``; no run opens a stream per trial.
Identical (config, seed) pairs produce byte-identical serialized reports.
"""

from __future__ import annotations

import time

import numpy as np

from .. import rng
from ..composite import (
    LocalSetting,
    chsh_value,
    correlator,
    detect_entanglement_single_copy,
    global_joint_sample,
    local_passive_joint_sample,
    non_dichotomic,
    signalling_check,
)
from ..hilbert import _Record, fidelity
from ..measurement import InsufficientShotsError, PSystem
from ..protocols import (
    _quantum_recovery,
    clone_via_reconstruction,
    deutsch_jozsa_verdict,
    function_recovery,
    no_cloning_check,
    proper_vs_improper,
    repeatability_experiment,
    simulate_qt_with_pqt,
    teleportation_fidelities,
)
from ..tomography import discriminate, estimate_spectrum, ic_set_for_dimension, reconstruct_single_copy
from .config import ConfigError, ExperimentConfig
from .report import Report
from .stats import wilson_interval

TELEPORTATION_BLOCK = 1024  # teleportation trials evaluated together


def _stream(config: ExperimentConfig, purpose: str) -> np.random.Generator:
    return rng.stream(config.seed, f"{config.name}/{purpose}")


def _run_repeatability(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state, obs = config.inputs.state, config.inputs.observables[0]
    rate = repeatability_experiment(state, obs, config.mode, config.trials, stream)
    low, high = wilson_interval(int(round(rate * config.trials)), config.trials)
    report.add_metric("agreement_rate", rate, (high - low) / 2)


def _run_reconstruct(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state = config.inputs.state
    sys = PSystem(state, config.mode, stream)
    ic = ic_set_for_dimension(state.dim)
    result = reconstruct_single_copy(sys, ic, config.shots)
    report.add_metric("fidelity", fidelity(state, result.estimate))
    report.add_metric("purity", result.estimate.purity())
    report.add_table("expectations", ["observable", "mean", "half_width"], [ic.names, result.means, result.half_widths])
    report.verdicts["state_unchanged"] = sys.state is state


def _run_discriminate(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state = config.inputs.state
    sys = PSystem(state, config.mode, stream)
    index = discriminate(sys, config.inputs.candidates, ic_set_for_dimension(state.dim), config.shots)
    report.verdicts["chosen_index"] = index


def _run_spectrum(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    sys = PSystem(config.inputs.state, config.mode, stream)
    values = estimate_spectrum(sys, config.inputs.observables[0], config.shots)
    report.add_table("spectrum", ["eigenvalue"], [values])
    report.verdicts["n_distinct"] = len(values)


def _add_joint_table(report: Report, table) -> None:
    report.add_table("joint_counts", ["a", "b", "count"], table.columns())
    if not non_dichotomic((*table.a_values, *table.b_values)):
        report.add_metric("correlator", correlator(table), 1.0 / np.sqrt(table.shots))


def _run_joint_global(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    a_obs, b_obs = config.inputs.observables[:2]
    sys = PSystem(config.inputs.state, config.mode, stream)
    table = global_joint_sample(sys, a_obs, b_obs, config.shots, ensemble=config.inputs.ensemble)
    _add_joint_table(report, table)


def _run_joint_local(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    a_obs, b_obs = config.inputs.observables[:2]
    sys = PSystem(config.inputs.state, config.mode, stream)
    table = local_passive_joint_sample(sys, LocalSetting("A", a_obs), LocalSetting("B", b_obs), config.shots)
    _add_joint_table(report, table)


def _run_chsh(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    a1, a2, b1, b2 = config.inputs.observables[:4]
    value = chsh_value(config.inputs.state, (a1, a2), (b1, b2), config.inputs.source, config.shots, stream)
    report.add_metric("chsh_s", value, 4.0 / np.sqrt(config.shots))


def _run_entanglement(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    sys = PSystem(config.inputs.state, config.mode, stream)
    verdict = detect_entanglement_single_copy(sys, config.shots)
    report.add_metric("purity", verdict.purity)
    report.verdicts["verdict"] = verdict.verdict


def _run_signalling(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    action = config.inputs.action
    observables = config.inputs.observables
    a_obs, b_obs = (None, observables[0]) if action == "none" else observables[:2]
    result = signalling_check(config.inputs.state, action, b_obs, a_obs)
    report.add_metric("tv_distance", result.tv_distance)
    cells = [result.marginal_without.eigenvalues, result.marginal_without.probabilities, result.marginal_with.probabilities]
    report.add_table("marginals", ["eigenvalue", "p_without", "p_with"], cells)


def _run_function_recovery(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    spec = config.inputs.oracle
    if config.mode == "passive":
        result = function_recovery(spec, "passive", stream, config.shots)
        report.add_metric("oracle_calls", result.resources["oracle_calls"])
        report.verdicts["truth_table"] = list(result.verdicts["truth_table"])
        return
    calls, table = _quantum_recovery(spec, stream, config.trials)
    report.add_metric("oracle_calls_mean", float(np.mean(calls)), float(np.std(calls) / np.sqrt(len(calls))))
    report.verdicts["truth_table"] = list(table)


def _run_deutsch_jozsa(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    result = deutsch_jozsa_verdict(config.inputs.oracle, config.mode, stream, config.shots)
    report.add_metric("oracle_calls", result.resources["oracle_calls"])
    report.verdicts["verdict"] = result.verdicts["verdict"]


def _run_clone(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state = config.inputs.state
    sys = PSystem(state, config.mode, stream)
    clone, result = clone_via_reconstruction(sys, config.shots)
    report.add_metric("clone_fidelity", result.fidelities["clone"])
    report.verdicts["original_unchanged"] = sys.state is state
    report.verdicts["clone_dim"] = clone.dim


def _run_no_cloning(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    result = no_cloning_check(config.inputs.unitary, config.inputs.candidates)
    report.add_metric("fidelity_first", result.fidelity_first)
    report.add_metric("fidelity_second", result.fidelity_second)
    report.add_metric("obstruction", result.obstruction)
    report.verdicts["clones_both"] = result.clones_both


def _run_proper_vs_improper(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    result = proper_vs_improper(
        config.trials,
        config.shots,
        stream,
        mixture=config.inputs.mixture,
        purification=config.inputs.purification,
    )
    report.add_metric("mean_purity", result.verdicts["mean_purity"])
    report.verdicts["verdict"] = result.verdicts["verdict"]
    verdicts = np.where(result.purities >= result.verdicts["threshold"], "proper", "improper").tolist()  # plain str
    report.add_table("trials", ["trial", "purity", "verdict"], [range(config.trials), result.purities, verdicts])


def _run_simulate_collapse(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    sys = PSystem(config.inputs.state, config.mode, stream)
    result = simulate_qt_with_pqt(
        sys,
        config.inputs.observables[0],
        library=config.inputs.library,
        tomography_shots=config.shots,
        followup_obs=config.inputs.followup,
        followup_shots=config.inputs.followup_shots,
    )
    report.verdicts["outcome"] = result.verdicts["outcome"]
    if "followup_tv" in result.verdicts:
        report.add_metric("followup_tv", result.verdicts["followup_tv"])


def _run_teleportation(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state, total = config.inputs.state, 0.0
    inputs = _stream(config, f"{config.protocol}/input") if state is None else None
    for start in range(0, config.trials, TELEPORTATION_BLOCK):
        rows = min(TELEPORTATION_BLOCK, config.trials - start)
        if state is None:  # row t: the real and imaginary parts random_pure_state(2, inputs) draws for input t
            parts = inputs.normal(size=(rows, 2, 2))
            amplitudes = parts[:, 0] + 1j * parts[:, 1]
            amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
        else:
            amplitudes = np.broadcast_to(state.amplitudes, (rows, 2))
        total += float(teleportation_fidelities(amplitudes, config.mode, stream).sum())
    report.add_metric("average_fidelity", total / config.trials)


class Protocol(_Record):
    """What ``list-protocols`` prints about a protocol and what ``parse_config`` checks of its config."""

    __slots__ = ("description", "modes", "quantum_needs", "requires", "observables", "state", "state_required")

    def __init__(
        self,
        description: str,
        modes: tuple[str, ...] = ("passive", "quantum"),
        quantum_needs: str | None = None,  # an extra field that must be true in quantum mode
        requires: tuple[str, ...] = (),  # extra fields the protocol needs and that have no default
        # What each observable the runner reads acts on: None for the whole state, 0 or 1 for that subsystem.
        observables: tuple[int | None, ...] = (),
        # The initial state the runner reads, if any: "any", "bipartite", "pure bipartite" or "pure qubit".
        state: str | None = None,
        state_required: bool = True,
    ):
        _Record.__init__(self, description, modes, quantum_needs, requires, observables, state, state_required)


PASSIVE_ONLY = ("passive",)

PROTOCOLS = {
    "chsh": (
        _run_chsh,
        Protocol("CHSH value from global or local-passive sampling", observables=(0, 0, 1, 1), state="bipartite"),
    ),
    "clone": (_run_clone, Protocol("copy an unknown state by single-copy readout", PASSIVE_ONLY, state="any")),
    "deutsch-jozsa": (_run_deutsch_jozsa, Protocol("constant-vs-balanced verdict, one oracle call", requires=("oracle",))),
    "discriminate": (
        _run_discriminate,
        Protocol(
            "identify which candidate state a single copy is in", PASSIVE_ONLY, requires=("candidates",), state="any"
        ),
    ),
    "entanglement": (
        _run_entanglement,
        Protocol("product-vs-entangled from local measurements on one copy", PASSIVE_ONLY, state="pure bipartite"),
    ),
    "function-recovery": (
        _run_function_recovery,
        Protocol("recover a full truth table from the post-oracle state", requires=("oracle",)),
    ),
    "joint-global": (
        _run_joint_global,
        Protocol(
            "joint outcome table from one global device", quantum_needs="ensemble", observables=(0, 1), state="bipartite"
        ),
    ),
    "joint-local": (
        _run_joint_local,
        Protocol(
            "joint outcome table from independent local passive devices",
            PASSIVE_ONLY,
            observables=(0, 1),
            state="bipartite",
        ),
    ),
    "no-cloning": (_run_no_cloning, Protocol("inner-product obstruction to unitary cloning", requires=("candidates",))),
    # Exactly one of "mixture" and "purification" (config._resolve_inputs).
    "proper-vs-improper": (
        _run_proper_vs_improper,
        Protocol("tell a classical ensemble from an entangled marginal", PASSIVE_ONLY),
    ),
    "reconstruct": (_run_reconstruct, Protocol("single-copy state reconstruction", PASSIVE_ONLY, state="any")),
    "repeatability": (
        _run_repeatability,
        Protocol("agreement rate of immediate repeated measurements", observables=(None,), state="any"),
    ),
    # With "action": "none" only the B-side observable is read (config._resolve_inputs).
    "signalling": (
        _run_signalling,
        Protocol("B-side marginal with and without an A-side action", observables=(0, 1), state="bipartite"),
    ),
    # Without an eigenstate "library" the state must be bipartite (config._resolve_inputs).
    "simulate-collapse": (
        _run_simulate_collapse,
        Protocol("make passive measurements look collapsed by swapping", PASSIVE_ONLY, observables=(None,), state="any"),
    ),
    "spectrum": (
        _run_spectrum,
        Protocol("recover an observable's spectrum by repetition", PASSIVE_ONLY, observables=(None,), state="any"),
    ),
    "teleportation": (
        _run_teleportation,
        Protocol("teleportation fidelity under either update rule", state="pure qubit", state_required=False),
    ),
}


def list_protocols() -> list[tuple[str, Protocol]]:
    return [(name, PROTOCOLS[name][1]) for name in sorted(PROTOCOLS)]


def run(config: ExperimentConfig) -> Report:
    """Run a validated config: its protocol's runner fills one report from the stream ``{name}/{protocol}``."""
    try:
        runner, _ = PROTOCOLS[config.protocol]
    except KeyError:
        raise ConfigError("protocol", f"unknown protocol {config.protocol!r}") from None
    start = time.perf_counter()
    report = Report(config.payload(), config.seed)
    try:
        runner(config, report, _stream(config, config.protocol))
    except InsufficientShotsError as exc:
        raise ConfigError("shots", str(exc)) from exc
    report.wall_clock_seconds = time.perf_counter() - start
    return report
