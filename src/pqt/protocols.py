"""End-to-end scenarios where the two update rules come apart.

Each protocol runs under both rules wherever that makes sense and
accounts for its resources exactly: oracle calls are counted per
application of the oracle unitary to a state, and consumed copies per
freshly prepared system.  The collapse rule pays in copies; the no-update
rule pays in measurement repetitions on a single system.
"""

from __future__ import annotations

import functools

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
    _kron,
    _Record,
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
    MODES,
    PROBABILITY_SUM_TOL,
    ZERO_PROBABILITY,
    InsufficientShotsError,
    Observable,
    PSystem,
    _cdf_counts,
    _cdf_index,
    _cdf_table,
    _CdfTable,
    _PairReadout,
    _Readout,
    born_distribution,
    collapse_update,
    measure,
)
from .tomography import _frame_purities, _frame_table, ic_set_for_dimension, reconstruct_single_copy

CLONED_TOL = 1e-9
PURE_AVERAGE_TOL = 1e-9
MAX_ORACLE_BITS = 5
ORACLE_DRAW_BLOCK = 64  # quantum function recovery draws its uniforms in whole blocks of this many
_TRIAL_BLOCK_ENTRIES = 2**18  # entries a block of trials holds (proper_vs_improper, and recovery's next occurrences)


class OracleSpec(_Record):
    """A boolean function given by its truth table, with an optional promise; equal specs compare and hash equal."""

    __slots__ = ("n", "truth_table", "promise")

    def __init__(self, n: int, truth_table: tuple[int, ...], promise: str | None = None):
        truth_table = tuple(int(b) for b in truth_table)
        if n < 1:
            raise ValueError("need at least one input bit")
        if len(truth_table) != 2**n:
            raise ValueError(f"truth table has {len(truth_table)} entries, expected {2 ** n}")
        if any(b not in (0, 1) for b in truth_table):
            raise ValueError("truth table entries must be bits")
        if promise not in (None, "constant", "balanced"):
            raise ValueError(f"unknown promise {promise!r}")
        ones = sum(truth_table)
        if promise == "constant" and ones not in (0, len(truth_table)):
            raise ValueError("promise 'constant' contradicts the truth table")
        if promise == "balanced" and ones * 2 != len(truth_table):
            raise ValueError("promise 'balanced' contradicts the truth table")
        self.n, self.truth_table, self.promise = n, truth_table, promise

    def __eq__(self, other) -> bool:
        return type(other) is OracleSpec and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class ProtocolReport(_Record):
    """What a protocol run did and what it cost, with exact resource counts."""

    # purities: proper-vs-improper's estimated purity of each trial, as one array (None in other protocols).
    __slots__ = ("protocol", "mode", "resources", "verdicts", "fidelities", "log", "purities")

    def __init__(self, protocol: str, mode: str, resources: dict[str, int] | None = None):
        self.protocol, self.mode, self.resources = protocol, mode, {} if resources is None else resources
        self.verdicts, self.fidelities, self.log, self.purities = {}, {}, [], None


def oracle_unitary(spec: OracleSpec) -> UnitaryOperator:
    """Permutation matrix for |x, y> -> |x, y xor f(x)>."""
    if spec.n > MAX_ORACLE_BITS:
        raise ValueError(f"oracle construction is limited to {MAX_ORACLE_BITS} input bits")
    dim = 2 ** (spec.n + 1)
    matrix = np.zeros((dim, dim), dtype=complex)
    for x in range(2**spec.n):
        for y in (0, 1):
            matrix[(x << 1) | (y ^ spec.truth_table[x]), (x << 1) | y] = 1.0
    return UnitaryOperator._unchecked(matrix)  # a permutation matrix


def _post_oracle_state(spec: OracleSpec) -> StateVector:
    """The oracle applied once to the symmetric superposition sum_x |x, 0> / 2^(n/2)."""
    return evolve(tensor(plus_state(spec.n), basis_state(2, 0, (2,))), oracle_unitary(spec))


@functools.lru_cache(maxsize=32)
def _post_oracle_readout(spec: OracleSpec) -> tuple[_Readout, _CdfTable]:
    """The computational-basis readout (outcome k on |k>) and its checked Born row on the post-oracle state.

    Every fresh copy given one oracle call is in this state, so the
    distribution depends on the oracle alone and is computed once per oracle.
    The basis observable's eigenvectors are the unit vectors, so outcome k
    has probability conj(psi[k]) psi[k], with the bits of its Born rule.
    """
    amplitudes = _post_oracle_state(spec).amplitudes
    readout = _Readout("basis-index", tuple(float(k) for k in range(len(amplitudes))))
    return readout, _cdf_table((amplitudes.conj() * amplitudes).real[None])


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
    and oracle call per attempt until every input has been seen: it is
    ``_quantum_recovery`` at one trial.
    """
    n_inputs = 2**spec.n
    report = ProtocolReport("function-recovery", mode)

    if mode == "passive":
        sys = PSystem(_post_oracle_state(spec), "passive", rng)
        result = reconstruct_single_copy(sys, ic_set_for_dimension(sys.dim), shots)
        threshold = 0.25 / n_inputs
        recovered = []
        diag = np.diag(result.estimate.matrix).real
        for x in range(n_inputs):
            weights = (float(diag[x << 1]), float(diag[(x << 1) | 1]))
            hits = [y for y in (0, 1) if weights[y] >= threshold]
            if len(hits) != 1:
                raise InsufficientShotsError(f"insufficient shots: ambiguous decode for input {x} (weights {weights})")
            recovered.append(hits[0])
        report.resources = {"oracle_calls": 1, "copies_consumed": 1, "shots_per_observable": shots}
        report.verdicts["truth_table"] = tuple(recovered)
        return report

    if mode != "quantum":
        raise ValueError(f"unknown mode {mode!r}")
    (calls,), table = _quantum_recovery(spec, rng, 1)
    report.resources = {"oracle_calls": calls, "copies_consumed": calls, "shots_per_observable": 1}
    report.verdicts["truth_table"] = table
    return report


def _quantum_recovery(spec: OracleSpec, rng: np.random.Generator, trials: int) -> tuple[list[int], tuple[int, ...]]:
    """Run ``trials`` quantum recoveries in turn on ``rng``; return each one's calls and the last truth table.

    Each call draws one readout of a fresh post-oracle copy, whose
    distribution is computed once per oracle; a trial closes at the call
    that shows its last unseen input, and the next trial starts at the next
    draw.  The open trial's unseen inputs plus N = 2^n per trial after it
    bound the calls still to come from below, so a round draws that many
    calls' worth of whole ``ORACLE_DRAW_BLOCK`` blocks (at least one) and
    never a block past the one in which the last trial closes.  A trial
    begun at draw s closes at the latest next occurrence from s of any
    input, read off a reversed running minimum; the walk takes one step per trial.
    """
    readout, table = _post_oracle_readout(spec)
    n_inputs = 2**spec.n
    calls, pending = [], np.empty(0, dtype=np.intp)  # pending: the open trial's draws so far
    while True:
        needed = (trials - len(calls)) * n_inputs - np.count_nonzero(np.bincount(pending >> 1))
        needed = min(needed, _TRIAL_BLOCK_ENTRIES // n_inputs)  # bounds the next-occurrence table below
        uniforms = rng.random(max(1, needed // ORACLE_DRAW_BLOCK) * ORACLE_DRAW_BLOCK)
        drawn = np.concatenate((pending, _cdf_index(table, uniforms, (readout,), "quantum")))
        # Row i, over the draws last to first: where input i next occurs at or after each (drawn.size: not this round).
        backwards = np.arange(drawn.size)[::-1]
        occurrences = np.where(np.arange(n_inputs)[:, None] == drawn[::-1] >> 1, backwards, drawn.size)
        closes = np.minimum.accumulate(occurrences, axis=1, out=occurrences).max(axis=0)[::-1].tolist()
        closes.append(drawn.size)  # no trial starts past the last draw
        start = 0
        while closes[start] < drawn.size:
            calls.append(closes[start] - start + 1)
            if len(calls) == trials:
                trial, truth_table = drawn[start : closes[start] + 1], np.empty(n_inputs, dtype=np.intp)
                truth_table[trial >> 1] = trial & 1
                return calls, tuple(truth_table.tolist())
            start = closes[start] + 1
        pending = drawn[start:]


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
    hadamard_all = UnitaryOperator._unchecked(kron_all(*([HADAMARD] * (n + 1))))
    hadamard_first = UnitaryOperator._unchecked(kron_all(*([HADAMARD] * n), PAULI_I))
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


def clone_via_reconstruction(sys: PSystem, shots: int) -> tuple[PSystem, ProtocolReport]:
    """Copy an unknown p-state by reading it out and re-preparing it.

    No unitary clones unknown states, but the no-update rule lets the
    state be reconstructed from the one system and a second system be
    prepared in the estimate.  The original is left unchanged.
    """
    if sys.mode != "passive":
        raise ValueError("cloning by reconstruction requires passive mode")
    result = reconstruct_single_copy(sys, ic_set_for_dimension(sys.dim), shots)
    clone = PSystem(result.estimate, "passive", sys.rng)
    report = ProtocolReport(
        "clone",
        sys.mode,
        {"copies_consumed": 0, "systems_prepared": 1, "shots_per_observable": shots},
    )
    report.fidelities["clone"] = fidelity(sys.state, result.estimate)
    return clone, report


class NoCloningReport(_Record):
    """Inner-product obstruction to unitarily cloning two test states."""

    __slots__ = ("fidelity_first", "fidelity_second", "obstruction", "clones_both")


def no_cloning_check(candidate: UnitaryOperator, test_states: tuple[StateVector, StateVector]) -> NoCloningReport:
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
    return NoCloningReport(f_psi, f_phi, obstruction, clones_both)


def purify(rho: DensityOperator) -> StateVector:
    """A purification sum_i sqrt(l_i) |e_i>|i> of rho on a doubled space."""
    values, vectors = np.linalg.eigh(rho.matrix)
    dim = rho.dim
    amps = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        weight = max(float(values[i]), 0.0)
        amps += np.sqrt(weight) * _kron(vectors[:, i], np.eye(dim)[i])
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

    Trials run together, a block at a time.  Every member is drawn first,
    one uniform per trial; then one multinomial draw counts the frame rows
    of every trial in the block, in trial order, and the block's estimates
    are inverted as one ``(T, d, d)`` stack, of which each purity is read off
    the projected spectrum: one batched ``eigvalsh``.  The block size
    bounds memory and never changes the stream: a multinomial draw takes
    its rows in order.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if shots < 1:
        raise ValueError("need at least one shot")
    if (mixture is None) == (purification is None):
        raise ValueError("provide exactly one presentation: a mixture or a purification")

    if mixture is not None:
        weights = np.array([w for _, w in mixture], dtype=float)
        if weights.min() < 0.0 or abs(weights.sum() - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError("mixture weights must be non-negative and sum to 1")
        members = _cdf_table(weights[None])
        average = sum(w * state.projector() for (state, _), w in zip(mixture, weights))
        average = DensityOperator._unchecked(average, (average.shape[0],))  # a convex sum of states
    else:
        if len(purification.shape) != 2:
            raise ValueError("purification must be bipartite")
        average = partial_trace(purification, keep=0)

    average_purity = average.purity()
    if average_purity >= 1.0 - PURE_AVERAGE_TOL:
        raise ValueError("average state is pure: the presentations are indistinguishable")
    midpoint = (1.0 + average_purity) / 2.0

    # Every trial measures one of a few fixed states: their Born rows are computed once, k per state.
    if mixture is not None:
        ic = ic_set_for_dimension(mixture[0][0].dim)
        table = _frame_table(ic, *(state for state, _ in mixture))
        drawn = _cdf_index(members, rng.random(trials), readouts=None, mode=None)
    else:
        ic = _local_ic_set(average.dim)
        table = _frame_table(ic, average)
        drawn = np.zeros(trials, dtype=np.intp)

    k = len(ic)
    block = max(1, _TRIAL_BLOCK_ENTRIES // (ic.values.size + ic.dim**2))
    purities = np.empty(trials)
    for start in range(0, trials, block):
        rows = (drawn[start : start + block, None] * k + np.arange(k)).ravel()  # each trial's k rows, trial after trial
        counts = _cdf_counts(table.gather(rows), rng, shots, ic, "passive")  # gathered row r is named by ic[r % k]
        purities[start : start + block] = _frame_purities(counts, ic, shots)
        del counts  # it does not outlive its block

    report = ProtocolReport("proper-vs-improper", "passive")
    report.purities = purities
    report.log = [
        {"trial": trial, "purity": purity, "verdict": "proper" if purity >= midpoint else "improper"}
        for trial, purity in enumerate(purities.tolist())
    ]
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
        block = obs.decomposition.block(outcome_index)
        projected = block @ (estimate_vector.amplitudes @ block.conj())  # V_r (V_r^dag psi)
        norm = float(np.linalg.norm(projected))
        if norm**2 <= 1e-12:
            raise ValueError("reconstruction failure: the observed outcome has no weight in the estimate")
        replacement = StateVector._unchecked(projected / norm, sys.state.shape)  # normalised by its own norm
        report.resources = {"copies_consumed": 1, "shots_per_observable": tomography_shots}
        report.fidelities["reconstruction_overlap"] = fidelity(state_before, result.estimate)

    sys.replace_state(replacement)

    if followup_obs is not None and followup_shots > 0:
        simulated = born_distribution(followup_obs, sys.state).cdf
        sim_counts = _cdf_counts(simulated, sys.rng, followup_shots, (followup_obs,), "passive")
        reference = born_distribution(followup_obs, collapse_update(state_before, obs, outcome_index)).cdf
        ref_counts = _cdf_counts(reference, sys.rng, followup_shots, (followup_obs,), "quantum")
        tv = 0.5 * float(np.abs(sim_counts - ref_counts).sum()) / followup_shots
        report.verdicts["followup_tv"] = tv
        report.resources["reference_copies_consumed"] = followup_shots
    return report


_BELL_ORDER = ("phi+", "phi-", "psi+", "psi-")
_CORRECTIONS = np.stack((PAULI_I, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X))
_BELL_BRAS = np.array([bell_state(name).amplitudes for name in _BELL_ORDER]).conj()  # row k: <bell_k| on qubits 1-2
_SHARED_PAIR = bell_state("phi+").amplitudes.reshape(2, 2)  # qubit 2 by qubit 3
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

    <bell_k| block and <psi| C_k are gathers, read off ``_BELL_BRAS`` and
    ``_CORRECTIONS`` on each call: column b of the block is zero off rows b
    and 2 + b, where a Bell bra has one nonzero entry, and a Pauli
    correction is a signed permutation.  Each output entry is then its one
    nonzero product; the matrix product adds only exact zeros to it.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rows, bob = len(inputs), np.arange(2)
    block = (inputs[:, :, None, None] * _SHARED_PAIR).reshape(rows, 4, 2)
    alice = bob + 2 * np.argmax(_BELL_BRAS.reshape(4, 2, 2) != 0, axis=1)  # (k, b): the row c in {b, 2 + b} bra k reads
    conditional = np.take_along_axis(_BELL_BRAS, alice, axis=1) * block[:, alice, bob]
    raw = np.einsum("tkb,tkb->tk", conditional.conj(), conditional).real
    table = _cdf_table(raw)
    _cdf_index(table, rng.random(rows), (_BELL_READOUT,), mode)
    probabilities = table.probabilities

    possible = probabilities > ZERO_PROBABILITY
    if mode == "quantum":
        # Impossible branches are divided by 1, not 0, and left out of the sum below.
        branches = (conditional / np.sqrt(np.where(possible, probabilities, 1.0))[:, :, None])[:, :, None, :]
    else:
        branches = block[:, None, :, :]
    # <psi| C_k, then its overlap with each pure term of Bob's branch state: one
    # term after a collapse, and Alice's four rows of the block in passive mode.
    source = np.argmax(_CORRECTIONS != 0, axis=1)  # (k, b): the one input entry that column b of C_k reads
    corrected_bras = inputs.conj()[:, source] * np.take_along_axis(_CORRECTIONS, source[:, None], axis=1)[:, 0]
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
    collapses once per possible first outcome, and the counts of all
    trials' (first, second) pairs are one multinomial draw over the k^2
    cells p(a) p(b | a): memory does not grow with ``trials``.  The
    agreements are the diagonal cells.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    first = born_distribution(obs, state).probabilities
    if mode == "passive":  # the state never updates: the pair's outcomes are independent Born draws
        second = first
    else:  # an impossible first outcome keeps its weight on its diagonal cell, where its draw is refused
        second = np.array(
            [
                born_distribution(obs, collapse_update(state, obs, a)).probabilities
                if p > ZERO_PROBABILITY
                else np.eye(first.size)[a]
                for a, p in enumerate(first)
            ]
        )
    cells = (first[:, None] * second).reshape(1, -1)
    counts = _cdf_counts(_cdf_table(cells), rng, trials, (_PairReadout((obs, obs), first, second),), mode)
    return int(np.trace(counts.reshape(first.size, -1))) / trials
