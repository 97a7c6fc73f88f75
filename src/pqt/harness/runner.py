"""Protocol dispatch: one runner per experiment type, registered with its record.

Each protocol is one entry of ``PROTOCOLS``: its runner and its
:class:`Protocol` record, which names the modes, observables, state and
extra fields the runner reads and holds the checks and resolvers only
that protocol needs.  Its checks, record and runner sit together below.

``run`` builds the :class:`~pqt.harness.report.Report` and the
protocol's random stream, path ``"{name}/{protocol}"`` under the root
seed (see :mod:`pqt.rng`), and hands both to the protocol's runner.  A
runner reads only the inputs ``parse_config`` resolved and fills the
report.  Teleportation's random inputs alone draw from a second stream,
``"{name}/teleportation/input"``; no run opens a stream per trial.
Identical (config, seed) pairs produce byte-identical serialized reports.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from .. import rng
from ..composite import (
    CHSH_SOURCES,
    SIGNALLING_ACTIONS,
    LocalSetting,
    chsh_value,
    correlator,
    detect_entanglement_single_copy,
    global_joint_sample,
    local_passive_joint_sample,
    non_dichotomic,
    signalling_check,
)
from ..hilbert import State, StateVector, UnitaryOperator, _Record, fidelity, partial_trace
from ..measurement import PROBABILITY_SUM_TOL, InsufficientShotsError, Observable, PSystem
from ..protocols import (
    MAX_ORACLE_BITS,
    PURE_AVERAGE_TOL,
    OracleSpec,
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
from .config import (
    ConfigError,
    ExperimentConfig,
    _check_observable_dimension,
    _checked_arithmetic,
    read_integer,
    refuse_unknown_keys,
    resolve_observable,
    resolve_state,
)
from .report import Report
from .stats import wilson_interval

TELEPORTATION_BLOCK = 1024  # teleportation trials evaluated together
PASSIVE_ONLY = ("passive",)
_CNOT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


class Protocol(_Record):
    """One protocol as ``list-protocols`` prints it and ``parse_config`` reads its config: what it reads, and the
    checks and resolvers that it alone needs."""

    __slots__ = ("description", "modes", "quantum_needs", "requires", "observables", "state", "state_required")
    __slots__ += ("extras", "reads", "inputs")

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
        # The extra fields the runner reads, each with the values it takes: a tuple of JSON values, int for a count
        # in [1, 10^9), or None when its resolver checks it.  parse_config reads them in this order.
        extras: dict[str, tuple | type | None] | None = None,
        # (record, extras, resolved observables) -> (observable targets, state kind, the condition on that kind):
        # what these extras make the runner read, after the checks of the observables only this protocol needs.
        reads=None,
        # (extras, shape, state, observables) -> the ``Inputs`` fields resolved from the extras, once the state and
        # the observables are checked.
        inputs=None,
    ):
        fields = (description, modes, quantum_needs, requires, observables, state, state_required, extras or {})
        _Record.__init__(self, *fields, reads, inputs)


PROTOCOLS: dict[str, tuple] = {}  # name -> (runner, Protocol), filled at import by the runners below


def protocol(name: str, *args, **kwargs):
    """Register the decorated runner under ``name``, with its record ``Protocol(*args, **kwargs)``."""

    def register(runner):
        PROTOCOLS[name] = (runner, Protocol(*args, **kwargs))
        return runner

    return register


def _stream(config: ExperimentConfig, purpose: str) -> np.random.Generator:
    return rng.stream(config.seed, f"{config.name}/{purpose}")


# What one protocol alone reads of a config: the resolvers and the checks that its record runs in ``parse_config``.


def resolve_mixture(entries, field: str = "mixture") -> tuple[tuple[StateVector, float], ...]:
    """Turn ``[[state, weight], ...]`` into pure states of one dimension with weights summing to 1."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError(field, "must be a non-empty list of [state, weight] pairs")
    mixture = []
    for i, entry in enumerate(entries):
        name = f"{field}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(name, "must be a [state, weight] pair")
        spec, weight = entry
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not 0.0 <= weight <= 1.0:
            raise ConfigError(name, f"weight must be a number in [0, 1], got {weight!r}")
        state = resolve_state(spec, None, field=name)
        if not isinstance(state, StateVector):
            raise ConfigError(name, "mixture members must be pure states")
        if mixture and state.dim != mixture[0][0].dim:
            raise ConfigError(name, f"dimension {state.dim} differs from the first member's {mixture[0][0].dim}")
        mixture.append((state, float(weight)))
    total = math.fsum(weight for _, weight in mixture)
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOL:
        raise ConfigError(field, f"weights sum to {total!r}, expected 1")
    average = sum(weight * state.projector() for state, weight in mixture)
    if np.trace(average @ average).real >= 1.0 - PURE_AVERAGE_TOL:
        raise ConfigError(field, "the average state is pure: the presentations are indistinguishable")
    return tuple(mixture)


def resolve_purification(spec, shape: tuple[int, ...] | None, field: str = "purification") -> State:
    """Turn a purification spec into a bipartite state whose subsystem A is mixed."""
    state = resolve_state(spec, shape, field=field)
    if len(state.shape) != 2:
        raise ConfigError(field, f"must be a bipartite state, got shape {state.shape}")
    if partial_trace(state, keep=0).purity() >= 1.0 - PURE_AVERAGE_TOL:
        raise ConfigError(field, "the reduced state is pure: the presentations are indistinguishable")
    return state


def resolve_candidates(
    specs, shape: tuple[int, ...] | None, dim: int | None = None, count: int | None = None
) -> tuple[StateVector, ...]:
    """Turn ``candidates`` into ``count`` (default: two or more) pure states of dimension ``dim`` (default: the first's)."""
    expected = f"exactly {count}" if count else "at least two"
    if not isinstance(specs, list) or len(specs) < 2 or count not in (None, len(specs)):
        raise ConfigError("candidates", f"need {expected} states")
    states = []
    for i, spec in enumerate(specs):
        field = f"candidates[{i}]"
        state = resolve_state(spec, shape, field=field)
        if not isinstance(state, StateVector):
            raise ConfigError(field, "candidates must be pure states")
        dim = dim or state.dim
        if state.dim != dim:
            raise ConfigError(field, f"dimension {state.dim} differs from the expected {dim}")
        states.append(state)
    return tuple(states)


def resolve_oracle(spec, promise_required: bool = False) -> OracleSpec:
    """Turn ``{"n": ..., "truth_table": [bits], "promise": ...}`` into an OracleSpec."""
    if not isinstance(spec, dict) or "n" not in spec or "truth_table" not in spec:
        raise ConfigError("oracle", "expected an object with 'n' and 'truth_table'")
    refuse_unknown_keys(spec, ("n", "truth_table", "promise"), "oracle")
    n = spec["n"] = read_integer(spec["n"], "oracle.n", 1, MAX_ORACLE_BITS + 1)
    table = spec["truth_table"]
    if not isinstance(table, list) or len(table) != 2**n:
        raise ConfigError("oracle.truth_table", f"must be a list of {2**n} bits for n = {n}, got {table!r}")
    bits = tuple(read_integer(b, f"oracle.truth_table[{i}]", 0, 2) for i, b in enumerate(table))
    if promise_required and spec.get("promise") is None:
        raise ConfigError("oracle.promise", "the promise must be declared: 'constant' or 'balanced'")
    try:
        return OracleSpec(n, bits, spec.get("promise"))
    except ValueError as exc:  # every other check passed: the promise is unknown or contradicts the table
        raise ConfigError("oracle.promise", str(exc)) from exc


def _eigenstate_library(obs: Observable) -> dict[int, StateVector]:
    """The eigenstate that replaces the system after each outcome of a non-degenerate observable."""
    if len(obs.eigenvalues) != obs.dim:
        raise ConfigError("library", "eigenstate library needs a non-degenerate observable")
    return {index: StateVector.normalized(column) for index, column in enumerate(obs.decomposition.vectors.T)}


def resolve_unitary(spec, dim: int, field: str = "unitary") -> UnitaryOperator:
    """Turn ``"cnot"`` or a row-major matrix of ``[re, im]`` pairs into a unitary on two copies of C^dim."""
    if spec == "cnot":
        if dim != 2:
            raise ConfigError(field, "the 'cnot' preset needs qubit test states")
        return UnitaryOperator(np.array(_CNOT, dtype=complex))
    try:
        matrix = np.array([[complex(re, im) for re, im in row] for row in spec])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, f"must be 'cnot' or matrix rows of [re, im] pairs ({exc})") from exc
    side = dim * dim
    if matrix.shape != (side, side):
        raise ConfigError(field, f"must be {side} x {side}, acting on two copies of the test states; got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ConfigError(field, "matrix entries must be finite")
    with _checked_arithmetic(field):
        try:
            return UnitaryOperator(matrix)
        except ValueError as exc:
            raise ConfigError(field, str(exc)) from exc


@protocol("repeatability", "agreement rate of immediate repeated measurements", observables=(None,), state="any")
def _run_repeatability(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state, obs = config.inputs.state, config.inputs.observables[0]
    rate = repeatability_experiment(state, obs, config.mode, config.trials, stream)
    low, high = wilson_interval(int(round(rate * config.trials)), config.trials)
    report.add_metric("agreement_rate", rate, (high - low) / 2)


@protocol("reconstruct", "single-copy state reconstruction", PASSIVE_ONLY, state="any")
def _run_reconstruct(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state = config.inputs.state
    sys = PSystem(state, config.mode, stream)
    ic = ic_set_for_dimension(state.dim)
    result = reconstruct_single_copy(sys, ic, config.shots)
    report.add_metric("fidelity", fidelity(state, result.estimate))
    report.add_metric("purity", result.estimate.purity())
    report.add_table("expectations", ["observable", "mean", "half_width"], [ic.names, result.means, result.half_widths])
    report.verdicts["state_unchanged"] = sys.state is state


def _discriminate_inputs(extras: dict, shape, state: State, observables: tuple[Observable, ...]) -> dict:
    candidates = resolve_candidates(extras["candidates"], shape, dim=state.dim)
    for i, j in itertools.combinations(range(len(candidates)), 2):
        if candidates[i].ray_equal(candidates[j]):
            raise ConfigError(f"candidates[{j}]", f"is ray-equal to candidates[{i}]; candidates must be distinct")
    return {"candidates": candidates}


@protocol(
    "discriminate",
    "identify which candidate state a single copy is in",
    PASSIVE_ONLY,
    requires=("candidates",),
    state="any",
    extras={"candidates": None},
    inputs=_discriminate_inputs,
)
def _run_discriminate(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state = config.inputs.state
    sys = PSystem(state, config.mode, stream)
    index = discriminate(sys, config.inputs.candidates, ic_set_for_dimension(state.dim), config.shots)
    report.verdicts["chosen_index"] = index


@protocol("spectrum", "recover an observable's spectrum by repetition", PASSIVE_ONLY, observables=(None,), state="any")
def _run_spectrum(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    sys = PSystem(config.inputs.state, config.mode, stream)
    values = estimate_spectrum(sys, config.inputs.observables[0], config.shots)
    report.add_table("spectrum", ["eigenvalue"], [values])
    report.verdicts["n_distinct"] = len(values)


def _add_joint_table(report: Report, table) -> None:
    report.add_table("joint_counts", ["a", "b", "count"], table.columns())
    if not non_dichotomic((*table.a_values, *table.b_values)):
        report.add_metric("correlator", correlator(table), 1.0 / np.sqrt(table.shots))


@protocol(
    "joint-global",
    "joint outcome table from one global device",
    quantum_needs="ensemble",
    observables=(0, 1),
    state="bipartite",
    extras={"ensemble": (True, False)},
)
def _run_joint_global(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    a_obs, b_obs = config.inputs.observables[:2]
    sys = PSystem(config.inputs.state, config.mode, stream)
    table = global_joint_sample(sys, a_obs, b_obs, config.shots, ensemble=config.inputs.ensemble)
    _add_joint_table(report, table)


@protocol(
    "joint-local",
    "joint outcome table from independent local passive devices",
    PASSIVE_ONLY,
    observables=(0, 1),
    state="bipartite",
)
def _run_joint_local(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    a_obs, b_obs = config.inputs.observables[:2]
    sys = PSystem(config.inputs.state, config.mode, stream)
    table = local_passive_joint_sample(sys, LocalSetting("A", a_obs), LocalSetting("B", b_obs), config.shots)
    _add_joint_table(report, table)


def _chsh_reads(spec: Protocol, extras: dict, observables: tuple[Observable, ...]) -> tuple:
    for i, obs in enumerate(observables[: len(spec.observables)]):
        offending = non_dichotomic(obs.eigenvalues)
        if offending:
            raise ConfigError(f"observables[{i}]", f"a CHSH correlator needs +-1 outcomes, got {offending[0]!r}")
    return spec.observables, spec.state, ""


@protocol(
    "chsh",
    "CHSH value from global or local-passive sampling",
    observables=(0, 0, 1, 1),
    state="bipartite",
    extras={"source": CHSH_SOURCES},
    reads=_chsh_reads,
)
def _run_chsh(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    a1, a2, b1, b2 = config.inputs.observables[:4]
    value = chsh_value(config.inputs.state, (a1, a2), (b1, b2), config.inputs.source, config.shots, stream)
    report.add_metric("chsh_s", value, 4.0 / np.sqrt(config.shots))


@protocol("entanglement", "product-vs-entangled from local measurements on one copy", PASSIVE_ONLY, state="pure bipartite")
def _run_entanglement(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    sys = PSystem(config.inputs.state, config.mode, stream)
    verdict = detect_entanglement_single_copy(sys, config.shots)
    report.add_metric("purity", verdict.purity)
    report.verdicts["verdict"] = verdict.verdict


@protocol(
    "signalling",
    "B-side marginal with and without an A-side action",
    observables=(0, 1),
    state="bipartite",
    extras={"action": SIGNALLING_ACTIONS},
    # With "action": "none" only B's marginal is compared.
    reads=lambda spec, extras, _: ((1,) if extras.get("action", "none") == "none" else spec.observables, spec.state, ""),
)
def _run_signalling(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    action = config.inputs.action
    observables = config.inputs.observables
    a_obs, b_obs = (None, observables[0]) if action == "none" else observables[:2]
    result = signalling_check(config.inputs.state, action, b_obs, a_obs)
    report.add_metric("tv_distance", result.tv_distance)
    cells = [result.marginal_without.eigenvalues, result.marginal_without.probabilities, result.marginal_with.probabilities]
    report.add_table("marginals", ["eigenvalue", "p_without", "p_with"], cells)


@protocol(
    "function-recovery",
    "recover a full truth table from the post-oracle state",
    requires=("oracle",),
    extras={"oracle": None},
    inputs=lambda extras, *_: {"oracle": resolve_oracle(extras["oracle"])},
)
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


@protocol(
    "deutsch-jozsa",
    "constant-vs-balanced verdict, one oracle call",
    requires=("oracle",),
    extras={"oracle": None},
    inputs=lambda extras, *_: {"oracle": resolve_oracle(extras["oracle"], promise_required=True)},
)
def _run_deutsch_jozsa(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    result = deutsch_jozsa_verdict(config.inputs.oracle, config.mode, stream, config.shots)
    report.add_metric("oracle_calls", result.resources["oracle_calls"])
    report.verdicts["verdict"] = result.verdicts["verdict"]


@protocol("clone", "copy an unknown state by single-copy readout", PASSIVE_ONLY, state="any")
def _run_clone(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    state = config.inputs.state
    sys = PSystem(state, config.mode, stream)
    clone, result = clone_via_reconstruction(sys, config.shots)
    report.add_metric("clone_fidelity", result.fidelities["clone"])
    report.verdicts["original_unchanged"] = sys.state is state
    report.verdicts["clone_dim"] = clone.dim


def _no_cloning_inputs(extras: dict, *_) -> dict:
    candidates = resolve_candidates(extras["candidates"], None, count=2)
    return {"candidates": candidates, "unitary": resolve_unitary(extras.get("unitary", "cnot"), candidates[0].dim)}


@protocol(
    "no-cloning",
    "inner-product obstruction to unitary cloning",
    requires=("candidates",),
    extras={"candidates": None, "unitary": None},
    inputs=_no_cloning_inputs,
)
def _run_no_cloning(config: ExperimentConfig, report: Report, stream: np.random.Generator) -> None:
    result = no_cloning_check(config.inputs.unitary, config.inputs.candidates)
    report.add_metric("fidelity_first", result.fidelity_first)
    report.add_metric("fidelity_second", result.fidelity_second)
    report.add_metric("obstruction", result.obstruction)
    report.verdicts["clones_both"] = result.clones_both


def _proper_vs_improper_inputs(extras: dict, shape, *_) -> dict:
    if ("mixture" in extras) == ("purification" in extras):
        raise ConfigError("mixture", "protocol 'proper-vs-improper' needs exactly one of 'mixture' and 'purification'")
    if "mixture" in extras:
        return {"mixture": resolve_mixture(extras["mixture"])}
    return {"purification": resolve_purification(extras["purification"], shape)}


@protocol(
    "proper-vs-improper",
    "tell a classical ensemble from an entangled marginal",
    PASSIVE_ONLY,
    extras={"mixture": None, "purification": None},
    inputs=_proper_vs_improper_inputs,
)
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


def _simulate_collapse_reads(spec: Protocol, extras: dict, observables: tuple[Observable, ...]) -> tuple:
    if "library" in extras:
        return spec.observables, spec.state, ""
    return spec.observables, "bipartite", " without an eigenstate 'library'"  # the replacement is reconstructed


def _simulate_collapse_inputs(extras: dict, shape, state: State, observables: tuple[Observable, ...]) -> dict:
    inputs = {}
    if "followup_observable" in extras:
        inputs["followup"] = resolve_observable(extras["followup_observable"], "followup_observable")
        _check_observable_dimension("followup_observable", inputs["followup"], state, None)
    if "library" in extras:
        inputs["library"] = _eigenstate_library(observables[0])
    return inputs


@protocol(
    "simulate-collapse",
    "make passive measurements look collapsed by swapping",
    PASSIVE_ONLY,
    observables=(None,),
    state="any",
    extras={"followup_shots": int, "followup_observable": None, "library": ("eigenstates",)},
    reads=_simulate_collapse_reads,
    inputs=_simulate_collapse_inputs,
)
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


@protocol("teleportation", "teleportation fidelity under either update rule", state="pure qubit", state_required=False)
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


# Every extra field some record reads, in the order the unknown-field refusal lists them.
EXTRA_FIELDS = ("source", "action", "candidates", "mixture", "purification", "oracle", "ensemble")
EXTRA_FIELDS += ("followup_observable", "library", "unitary", "followup_shots")


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
