"""End-to-end scenarios where the two update rules come apart.

Each protocol runs under both rules wherever that makes sense and
accounts for its resources exactly: oracle calls are counted per
application of the oracle unitary to a state, and consumed copies per
freshly prepared system.  The collapse rule pays in copies; the no-update
rule pays in measurement repetitions on a single system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .composite import _local_ic_set
from .hilbert import (
    DensityOperator,
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    State,
    StateVector,
    UnitaryOperator,
    basis_state,
    bell_state,
    evolve,
    fidelity,
    kron_all,
    partial_trace,
    plus_state,
    tensor,
)
from .measurement import (
    ZERO_PROBABILITY,
    InsufficientShotsError,
    Observable,
    PSystem,
    _cdf_counts,
    _cdf_index,
    _checked_rows,
    _inverse_cdf,
    _require_all_possible,
    _skipped_ahead,
    _uniform_chunks,
    born_distribution,
    collapse_update,
    measure,
    repeated_measure,
)
from .tomography import _frame_estimate, _frame_table, ic_set_for_dimension, reconstruct_single_copy

CLONED_TOL = 1e-9
PURE_AVERAGE_TOL = 1e-9
MAX_ORACLE_BITS = 5
ORACLE_DRAW_BLOCK = 64  # uniforms quantum function recovery draws at once


@dataclass(frozen=True)
class OracleSpec:
    """A boolean function given by its truth table, with an optional promise."""

    n: int
    truth_table: tuple[int, ...]
    promise: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "truth_table", tuple(int(b) for b in self.truth_table))
        if self.n < 1:
            raise ValueError("need at least one input bit")
        if len(self.truth_table) != 2**self.n:
            raise ValueError(f"truth table has {len(self.truth_table)} entries, expected {2 ** self.n}")
        if any(b not in (0, 1) for b in self.truth_table):
            raise ValueError("truth table entries must be bits")
        if self.promise not in (None, "constant", "balanced"):
            raise ValueError(f"unknown promise {self.promise!r}")
        ones = sum(self.truth_table)
        if self.promise == "constant" and ones not in (0, len(self.truth_table)):
            raise ValueError("promise 'constant' contradicts the truth table")
        if self.promise == "balanced" and ones * 2 != len(self.truth_table):
            raise ValueError("promise 'balanced' contradicts the truth table")


@dataclass
class ProtocolReport:
    """What a protocol run did and what it cost, with exact resource counts."""

    protocol: str
    mode: str
    resources: dict[str, int] = field(default_factory=dict)
    verdicts: dict[str, object] = field(default_factory=dict)
    fidelities: dict[str, float] = field(default_factory=dict)
    log: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for key, count in self.resources.items():
            if int(count) != count or count < 0:
                raise ValueError(f"resource {key!r} must be an exact non-negative count")


def oracle_unitary(spec: OracleSpec) -> UnitaryOperator:
    """Permutation matrix for |x, y> -> |x, y xor f(x)>."""
    if spec.n > MAX_ORACLE_BITS:
        raise ValueError(f"oracle construction is limited to {MAX_ORACLE_BITS} input bits")
    dim = 2 ** (spec.n + 1)
    matrix = np.zeros((dim, dim), dtype=complex)
    for x in range(2**spec.n):
        for y in (0, 1):
            matrix[(x << 1) | (y ^ spec.truth_table[x]), (x << 1) | y] = 1.0
    return UnitaryOperator(matrix)


@functools.cache
def _basis_index_observable(dim: int) -> Observable:
    """Computational-basis readout: eigenvalue k on |k>."""
    return Observable("basis-index", np.diag(np.arange(dim, dtype=float)).astype(complex))


def _oracle_input_state(spec: OracleSpec) -> StateVector:
    """The symmetric superposition sum_x |x, 0> / 2^(n/2)."""
    return tensor(plus_state(spec.n), basis_state(2, 0, (2,)))


@functools.lru_cache(maxsize=32)
def _post_oracle_readout(spec: OracleSpec) -> tuple[Observable, np.ndarray]:
    """The computational-basis readout and its (read-only) Born probabilities on the post-oracle state.

    Every fresh copy given one oracle call is in this state, so the
    distribution depends on the oracle alone and is computed once per oracle.
    """
    readout = _basis_index_observable(2 ** (spec.n + 1))
    final = evolve(_oracle_input_state(spec), oracle_unitary(spec))
    return readout, born_distribution(readout, final).probabilities


def function_recovery(
    spec: OracleSpec,
    mode: str,
    rng: np.random.Generator,
    shots: int = 10_000,
) -> ProtocolReport:
    """Recover the full truth table from the post-oracle state.

    Passive mode applies the oracle once and reads the whole table out
    of the final state by single-copy reconstruction: the state carries
    weight 2^-n on |x, f(x)> and none on |x, 1 - f(x)>, so a diagonal
    weight above a quarter of that margin decides each bit.  Quantum
    mode learns one (x, f(x)) pair per collapse and needs a fresh copy
    and oracle call per attempt until every input has been seen.  Every
    fresh copy is in the same post-oracle state, so its readout
    distribution is computed once per oracle and each call draws one
    outcome from it.
    """
    n_inputs = 2**spec.n
    report = ProtocolReport("function-recovery", mode)

    if mode == "passive":
        final = evolve(_oracle_input_state(spec), oracle_unitary(spec))
        sys = PSystem(final, "passive", rng)
        result = reconstruct_single_copy(sys, ic_set_for_dimension(sys.dim), shots)
        threshold = 0.25 / n_inputs
        recovered = []
        diag = np.diag(result.estimate.matrix).real
        for x in range(n_inputs):
            weights = (diag[x << 1], diag[(x << 1) | 1])
            hits = [y for y in (0, 1) if weights[y] >= threshold]
            if len(hits) != 1:
                raise InsufficientShotsError(f"insufficient shots: ambiguous decode for input {x} (weights {weights})")
            recovered.append(hits[0])
            report.log.append({"x": x, "weight0": float(weights[0]), "weight1": float(weights[1])})
        report.resources = {"oracle_calls": 1, "copies_consumed": 1, "shots_per_observable": shots}
        report.verdicts["truth_table"] = tuple(recovered)
        return report

    if mode != "quantum":
        raise ValueError(f"unknown mode {mode!r}")
    readout, probabilities = _post_oracle_readout(spec)
    # One draw per call, as measure() on a fresh copy takes it.  Draws come in
    # blocks from a copy of rng; rng then moves past exactly the draws used.
    draws = _skipped_ahead(rng, 0)
    seen: dict[int, int] = {}
    used: list[int] = []
    while len(seen) < n_inputs:
        for index in _cdf_index(probabilities, draws.random(ORACLE_DRAW_BLOCK)).tolist():
            used.append(index)
            x, y = index >> 1, index & 1
            seen[x] = y
            report.log.append({"call": len(used), "x": x, "f_x": y})
            if len(seen) == n_inputs:
                break
    _require_all_possible(readout, np.array(used), probabilities[used], "quantum")
    rng.bit_generator.state = _skipped_ahead(rng, len(used)).bit_generator.state
    calls = len(used)
    report.resources = {"oracle_calls": calls, "copies_consumed": calls, "shots_per_observable": 1}
    report.verdicts["truth_table"] = tuple(seen[x] for x in range(n_inputs))
    return report


def deutsch_jozsa_verdict(
    spec: OracleSpec,
    mode: str,
    rng: np.random.Generator,
    shots: int = 10_000,
) -> ProtocolReport:
    """Decide constant vs. balanced with one oracle call in either mode.

    Quantum mode is the standard phase-kickback circuit with the ancilla
    in |->; an all-zeros first register means constant.  Passive mode
    reuses the truth-table recovery and reads the verdict off the table.
    Both modes report one call: the passive advantage is full-table
    recovery, not the promise problem itself.
    """
    if spec.promise is None:
        raise ValueError("the promise must be declared")

    if mode == "passive":
        recovery = function_recovery(spec, "passive", rng, shots)
        table = recovery.verdicts["truth_table"]
        verdict = "constant" if len(set(table)) == 1 else "balanced"
        report = ProtocolReport("deutsch-jozsa", mode, dict(recovery.resources))
        report.verdicts = {"verdict": verdict, "truth_table": table}
        return report

    if mode != "quantum":
        raise ValueError(f"unknown mode {mode!r}")
    n = spec.n
    start = basis_state(2 ** (n + 1), 1, (2,) * (n + 1))
    hadamard_all = UnitaryOperator(kron_all(*([HADAMARD] * (n + 1))))
    hadamard_first = UnitaryOperator(kron_all(*([HADAMARD] * n), PAULI_I))
    state = evolve(evolve(evolve(start, hadamard_all), oracle_unitary(spec)), hadamard_first)

    first_register = Observable(
        "first-register-index",
        np.diag(np.repeat(np.arange(2**n, dtype=float), 2)).astype(complex),
    )
    sys = PSystem(state, "quantum", rng)
    outcome = int(round(measure(sys, first_register)))
    verdict = "constant" if outcome == 0 else "balanced"
    report = ProtocolReport("deutsch-jozsa", mode, {"oracle_calls": 1, "copies_consumed": 1})
    report.verdicts = {"verdict": verdict, "first_register": outcome}
    return report


def clone_via_reconstruction(
    sys: PSystem,
    shots: int,
    clone_rng: np.random.Generator | None = None,
) -> tuple[PSystem, ProtocolReport]:
    """Copy an unknown p-state by reading it out and re-preparing it.

    No unitary clones unknown states, but the no-update rule lets the
    state be reconstructed from the one system and a second system be
    prepared in the estimate.  The original is left unchanged.
    """
    if sys.mode != "passive":
        raise ValueError("cloning by reconstruction requires passive mode")
    result = reconstruct_single_copy(sys, ic_set_for_dimension(sys.dim), shots)
    clone = PSystem(result.estimate, "passive", clone_rng if clone_rng is not None else sys.rng)
    report = ProtocolReport(
        "clone",
        sys.mode,
        {"copies_consumed": 0, "systems_prepared": 1, "shots_per_observable": shots},
    )
    report.fidelities["clone"] = fidelity(sys.state, result.estimate)
    return clone, report


@dataclass
class NoCloningReport:
    """Inner-product obstruction to unitarily cloning two test states."""

    fidelity_first: float
    fidelity_second: float
    overlap: complex
    obstruction: float
    clones_both: bool


def no_cloning_check(
    candidate: UnitaryOperator,
    test_states: tuple[StateVector, StateVector],
    ancilla: StateVector | None = None,
) -> NoCloningReport:
    """Verify that a unitary cannot clone two non-orthogonal states.

    For s = <psi|phi>, perfect cloning of both states would force
    s = s^2 by unitarity; |s - s^2| > 0 exactly when 0 < |s| < 1, and
    then the two cloning fidelities cannot both be 1.
    """
    psi, phi = test_states
    if psi.dim != phi.dim:
        raise ValueError("test states must share a dimension")
    if candidate.dim != psi.dim**2:
        raise ValueError("candidate must act on two copies of the state space")
    if ancilla is None:
        ancilla = basis_state(psi.dim, 0)

    def cloning_fidelity(state: StateVector) -> float:
        out = evolve(tensor(state, ancilla), candidate)
        target = tensor(state, state)
        return fidelity(out, target)

    f_psi = cloning_fidelity(psi)
    f_phi = cloning_fidelity(phi)
    overlap = complex(np.vdot(psi.amplitudes, phi.amplitudes))
    obstruction = abs(overlap - overlap**2)
    clones_both = f_psi >= 1.0 - CLONED_TOL and f_phi >= 1.0 - CLONED_TOL
    return NoCloningReport(f_psi, f_phi, overlap, obstruction, clones_both)


def purify(rho: DensityOperator) -> StateVector:
    """A purification sum_i sqrt(l_i) |e_i>|i> of rho on a doubled space."""
    values, vectors = np.linalg.eigh(rho.matrix)
    dim = rho.dim
    amps = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        weight = max(float(values[i]), 0.0)
        amps += np.sqrt(weight) * np.kron(vectors[:, i], np.eye(dim)[i])
    return StateVector.normalized(amps, (dim, dim))


def proper_vs_improper(
    trials: int,
    shots: int,
    rng: np.random.Generator,
    mixture: list[tuple[StateVector, float]] | None = None,
    purification: StateVector | None = None,
) -> ProtocolReport:
    """Tell a classical ensemble from the marginal of an entangled state.

    Proper presentation: each trial draws one pure state from the listed
    mixture and reconstructs it, so the estimates are near-pure.
    Improper presentation: each trial reconstructs subsystem A of the
    purification and always finds the same mixed reduced state.  The
    verdict thresholds the mean estimated purity at the midpoint between
    1 and the purity of the shared average state.
    """
    if (mixture is None) == (purification is None):
        raise ValueError("provide exactly one presentation: a mixture or a purification")

    if mixture is not None:
        weights = np.array([w for _, w in mixture], dtype=float)
        if weights.min() < 0.0 or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        average = sum(w * state.projector() for (state, _), w in zip(mixture, weights))
        average = DensityOperator(average)
    else:
        if len(purification.shape) != 2:
            raise ValueError("purification must be bipartite")
        average = partial_trace(purification, keep=0)

    average_purity = average.purity()
    if average_purity >= 1.0 - PURE_AVERAGE_TOL:
        raise ValueError("average state is pure: the presentations are indistinguishable")
    midpoint = (1.0 + average_purity) / 2.0

    # Every trial measures one of a few fixed states: their Born rows are computed once.
    if mixture is not None:
        ic = ic_set_for_dimension(mixture[0][0].dim)
        tables = [_frame_table(ic.observables, state) for state, _ in mixture]
    else:
        ic, lifted = _local_ic_set(purification.shape)
        table = _frame_table(lifted, purification)

    purities = []
    report = ProtocolReport("proper-vs-improper", "passive")
    for trial in range(trials):
        if mixture is not None:
            index = int(_inverse_cdf(weights, rng, 1)[0])
            sys = PSystem(mixture[index][0], "passive", rng)
            table = tables[index]
        else:
            sys = PSystem(purification, "passive", rng)
        purity = _frame_estimate(sys, ic, table, shots).purity()
        purities.append(purity)
        report.log.append(
            {"trial": trial, "purity": purity, "verdict": "proper" if purity >= midpoint else "improper"}
        )

    mean_purity = float(np.mean(purities))
    report.resources = {"trials": trials, "systems_used": trials, "shots_per_observable": shots}
    report.verdicts = {
        "verdict": "proper" if mean_purity >= midpoint else "improper",
        "mean_purity": mean_purity,
        "average_state_purity": average_purity,
        "threshold": midpoint,
    }
    return report


def simulate_qt_with_pqt(
    sys: PSystem,
    obs: Observable,
    library: dict[int, StateVector] | None = None,
    tomography_shots: int = 10_000,
    followup_obs: Observable | None = None,
    followup_shots: int = 0,
) -> ProtocolReport:
    """Make a passive measurement look collapsed by swapping systems.

    Measures passively, then replaces the system: with an eigenstate
    from the prepared library (single-partite case), or, on a bipartite
    system, with the projected product state computed from a global
    single-copy reconstruction of the unknown state.  Afterwards the
    system's statistics match those of a collapsed quantum system.

    When a follow-up observable is given, the report carries the total
    variation distance between follow-up samples on the replaced system
    and a fresh-copy quantum reference conditioned on the same outcome.
    """
    if sys.mode != "passive":
        raise ValueError("collapse simulation starts from a passive system")
    state_before = sys.state
    value = measure(sys, obs)
    outcome_index = obs.eigenvalues.index(value)
    report = ProtocolReport("simulate-collapse", sys.mode)
    report.verdicts["outcome"] = value

    if library is not None:
        if outcome_index not in library:
            raise ValueError(f"missing library entry for outcome {value!r}")
        replacement = library[outcome_index]
        report.resources = {"copies_consumed": 1, "shots_per_observable": 0}
    else:
        if len(sys.state.shape) != 2:
            raise ValueError("without a library, only the bipartite (global tomography) case is defined")
        result = reconstruct_single_copy(sys, ic_set_for_dimension(sys.dim), tomography_shots)
        _, vectors = np.linalg.eigh(result.estimate.matrix)
        estimate_vector = StateVector.normalized(vectors[:, -1], sys.state.shape)
        projected = obs.projectors[outcome_index] @ estimate_vector.amplitudes
        norm = float(np.linalg.norm(projected))
        if norm**2 <= 1e-12:
            raise ValueError("reconstruction failure: the observed outcome has no weight in the estimate")
        replacement = StateVector(projected / norm, sys.state.shape)
        report.resources = {"copies_consumed": 1, "shots_per_observable": tomography_shots}
        report.fidelities["reconstruction_overlap"] = fidelity(state_before, result.estimate)

    sys.replace_state(replacement)

    if followup_obs is not None and followup_shots > 0:
        simulated = repeated_measure(sys, followup_obs, followup_shots)
        reference_state = collapse_update(state_before, obs, outcome_index)
        reference_dist = born_distribution(followup_obs, reference_state)
        ref_counts = _cdf_counts(reference_dist.probabilities, sys.rng, followup_shots).astype(float)
        counts = simulated.counts()
        sim_counts = np.array([counts.get(v, 0) for v in followup_obs.eigenvalues], dtype=float)
        tv = 0.5 * float(np.abs(sim_counts - ref_counts).sum()) / followup_shots
        report.verdicts["followup_tv"] = tv
        report.resources["reference_copies_consumed"] = followup_shots
    return report


_BELL_ORDER = ("phi+", "phi-", "psi+", "psi-")
_CORRECTIONS = np.stack((PAULI_I, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X))
_BELL_BRAS = np.array([bell_state(name).amplitudes for name in _BELL_ORDER]).conj()  # row k: <bell_k| on qubits 1-2
_SHARED_PAIR = bell_state("phi+").amplitudes.reshape(2, 2)  # qubit 2 by qubit 3


class _Readout(NamedTuple):
    """What a zero-probability error names of a measurement: ``_require_all_possible`` reads only these."""

    name: str
    eigenvalues: tuple[float, ...]


_BELL_READOUT = _Readout("bell-basis-12", (0.0, 1.0, 2.0, 3.0))


def teleportation_fidelities(inputs: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Teleport each row of a ``(T, 2)`` array of qubit amplitudes; return each row's mean fidelity.

    Row t's 3-qubit state is a ``(4, 2)`` block, Alice's qubits 1-2 by
    Bob's qubit 3.  Bell outcome k leaves Bob in <bell_k| block, whose
    squared norm is the outcome's Born probability.  One Bell outcome is
    drawn per row, one uniform each in row order, as ``teleportation_demo``
    on each row in turn would draw them.  Quantum mode: each branch's
    Bob state is his conditional state, normalised.  Passive mode:
    nothing collapses, so every branch keeps Bob's marginal of the
    unchanged block.  Each branch's fidelity is taken after its Pauli
    correction and weighted by its probability.
    """
    if mode not in ("quantum", "passive"):
        raise ValueError(f"unknown mode {mode!r}")
    rows = len(inputs)
    block = (inputs[:, :, None, None] * _SHARED_PAIR).reshape(rows, 4, 2)
    conditional = _BELL_BRAS @ block
    raw = np.einsum("tkb,tkb->tk", conditional.conj(), conditional).real
    probabilities = _checked_rows(raw)

    cdf = np.cumsum(probabilities, axis=1)
    scaled = rng.random(rows) * cdf[:, -1]
    # searchsorted(side="right") clipped to the last index counts the edges before the last one.
    drawn = np.count_nonzero(cdf[:, :-1] <= scaled[:, None], axis=1)
    _require_all_possible(_BELL_READOUT, drawn, probabilities[np.arange(rows), drawn], mode)

    possible = probabilities > ZERO_PROBABILITY
    if mode == "quantum":
        # Impossible branches are divided by 1, not 0, and left out of the sum below.
        branches = (conditional / np.sqrt(np.where(possible, probabilities, 1.0))[:, :, None])[:, :, None, :]
    else:
        branches = block[:, None, :, :]
    # <psi| C_k, then its overlap with each pure term of Bob's branch state: one
    # term after a collapse, and Alice's four rows of the block in passive mode.
    corrected_bras = np.einsum("tc,kcb->tkb", inputs.conj(), _CORRECTIONS)
    overlaps = branches @ corrected_bras[:, :, :, None]
    branch_fidelities = np.sum(np.abs(overlaps[..., 0]) ** 2, axis=2)
    return np.sum(np.where(possible, probabilities * branch_fidelities, 0.0), axis=1)


def teleportation_demo(input_state: StateVector, mode: str, rng: np.random.Generator) -> float:
    """Run teleportation under either update rule; return the mean fidelity.

    Quantum mode: the Bell measurement on qubits 1-2 collapses the
    3-qubit state, the outcome-conditioned Pauli correction restores the
    input on qubit 3 with fidelity 1.  Passive mode: the Bell outcome is
    sampled but nothing collapses; applying the correction anyway leaves
    Bob's marginal at I/2, so the fidelity is 1/2 for every pure input.
    The returned value averages the per-outcome fidelities analytically;
    one concrete outcome is also drawn from the Bell distribution the
    average uses, so the protocol actually executes.
    """
    if input_state.dim != 2:
        raise ValueError("teleportation input must be a single qubit")
    if mode not in ("quantum", "passive"):
        raise ValueError(f"unknown mode {mode!r}")
    return float(teleportation_fidelities(input_state.amplitudes[None], mode, rng)[0])


def repeatability_experiment(
    state: State,
    obs: Observable,
    mode: str,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Agreement rate of immediate same-observable measurement pairs.

    Quantum mode consumes a fresh copy per trial and the collapse makes
    the second outcome repeat the first, so the rate is exactly 1.
    Passive mode reuses one system throughout; the pair outcomes are
    independent draws, so the rate converges to sum_r p(a_r)^2.

    Neither mode builds a system per trial.  The second outcome's
    distribution depends only on the first outcome, so quantum mode
    collapses once per distinct first outcome and draws every trial's
    pair from these distributions.  Both modes take one uniform per
    measurement in trial order, as a measure-by-measure loop would.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode == "passive":
        # The state never updates, so the 2 * trials outcomes are i.i.d.
        # draws from one Born distribution.  Chunks hold whole pairs, as
        # SAMPLE_CHUNK is even.
        probabilities = born_distribution(obs, state).probabilities
        agreements = 0
        for uniforms in _uniform_chunks(rng, 2 * trials):
            indices = _cdf_index(probabilities, uniforms)
            agreements += int(np.count_nonzero(indices[0::2] == indices[1::2]))
    elif mode == "quantum":
        first = born_distribution(obs, state).probabilities
        uniforms = rng.random(2 * trials).reshape(trials, 2)
        firsts = _cdf_index(first, uniforms[:, 0])
        _require_all_possible(obs, firsts, first[firsts], "quantum")
        agreements = 0
        for k in np.flatnonzero(np.bincount(firsts, minlength=first.size)):
            after = born_distribution(obs, collapse_update(state, obs, int(k))).probabilities
            seconds = _cdf_index(after, uniforms[firsts == k, 1])
            _require_all_possible(obs, seconds, after[seconds], "quantum")
            agreements += int(np.count_nonzero(seconds == k))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return agreements / trials
