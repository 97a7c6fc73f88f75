"""Projective measurement with two rival state-update rules.

A ``PSystem`` is one simulated physical system: its current state, a
measurement mode and an owned random stream.  In ``"quantum"`` mode an
observed outcome projects the state (collapse); in ``"passive"`` mode
outcomes occur with the same Born probabilities but the state is left
untouched, so the very same system can be measured again and again.

Outcome sampling is inverse-CDF over the ascending outcome list with one
uniform draw per shot, taken from the system's Philox stream (see
:mod:`pqt.rng`); the platform-default RNG is never used.  Callers that
only need tallies draw ``SAMPLE_CHUNK`` uniforms at a time into one
reused buffer and count them, so memory does not grow with the shot
count; chunked draws still take one uniform per shot in stream order,
so they give the same outcomes as one large draw.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    DensityOperator,
    SpectralDecomposition,
    State,
    StateVector,
    pauli_dense,
    pauli_phases,
    spectral_decompose,
)

ZERO_PROBABILITY = 1e-12
RECONSTRUCTION_TOL = 1e-9
SAMPLE_CHUNK = 2**16  # uniforms drawn at once by the counting samplers


class InsufficientShotsError(ValueError):
    """Too few shots for a protocol to reach its decision; more shots would fix it."""


class Observable:
    """A named Hermitian matrix with its cached spectral decomposition."""

    __slots__ = ("name", "matrix", "decomposition")

    def __init__(self, name: str, matrix: np.ndarray, degeneracy_tol: float = 1e-9):
        self.name = name
        self.decomposition = spectral_decompose(matrix, degeneracy_tol)
        self.matrix = np.array(matrix, dtype=complex)
        self.matrix.setflags(write=False)
        defect = np.abs(self.decomposition.reconstruct() - self.matrix).max()
        if defect > RECONSTRUCTION_TOL:
            raise ValueError(f"decomposition does not reconstruct {name!r} (defect {defect:.3e})")

    @classmethod
    def from_decomposition(cls, name: str, decomposition: SpectralDecomposition) -> "Observable":
        """Build an observable from an already-known outcome structure.

        Used for lifted local observables, whose degenerate projectors
        P_r tensor I should be inherited exactly rather than recomputed.
        """
        obs = cls.__new__(cls)
        obs.name = name
        obs.decomposition = decomposition
        obs.matrix = decomposition.reconstruct()
        obs.matrix.setflags(write=False)
        return obs

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return self.decomposition.eigenvalues

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return self.decomposition.projectors

    def outcome_probabilities(self, state: State) -> np.ndarray:
        """Born probability of each outcome, in eigenvalue order."""
        return np.asarray([_outcome_probability(state, proj) for proj in self.projectors])

    def project(self, outcome_index: int, amplitudes: np.ndarray) -> np.ndarray:
        """The projector of one outcome applied to a state vector."""
        return self.projectors[outcome_index] @ amplitudes

    def add_scaled_to(self, out: np.ndarray, coefficient: float, norm: float) -> None:
        """Add ``coefficient * (matrix / norm)`` to ``out`` in place."""
        out += coefficient * (self.matrix / norm)

    def __repr__(self) -> str:
        return f"Observable({self.name!r}, dim={self.dim})"


class PauliString(Observable):
    """A Pauli string held as its bit-flip mask and column phases: S|x> = phase[x] |x ^ x_mask>.

    Outcomes are -1 and +1 with projectors (I - S)/2 and (I + S)/2.  The
    string stores ``phase`` and ``rows`` (the row x ^ x_mask of each
    column's one nonzero), O(d) memory; a string of a Pauli frame holds
    row views of the frame's ``(k, d)`` arrays.  The matrix, projectors
    and decomposition are derived on each access and never stored.  Its
    Born probabilities (1 -/+ <S>)/2, the projection of a state vector
    and its term in linear inversion each cost O(d) time.
    """

    __slots__ = ("x_mask", "phase", "rows")
    eigenvalues = (-1.0, 1.0)

    def __init__(self, label: str):
        x_mask, phase = pauli_phases(label)
        rows = np.arange(phase.size) ^ x_mask
        phase.setflags(write=False)
        rows.setflags(write=False)
        self.name, self.x_mask, self.phase, self.rows = label, x_mask, phase, rows

    @classmethod
    def _frame_row(cls, label: str, x_mask: int, phase: np.ndarray, rows: np.ndarray) -> "PauliString":
        """A string whose ``phase`` and ``rows`` are given read-only rows of a frame, taken as they are."""
        obs = cls.__new__(cls)
        obs.name, obs.x_mask, obs.phase, obs.rows = label, x_mask, phase, rows
        return obs

    @property
    def dim(self) -> int:
        return self.phase.size

    @property
    def matrix(self) -> np.ndarray:
        return pauli_dense(self.x_mask, self.phase)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        identity = np.eye(self.dim, dtype=complex)
        matrix = self.matrix
        return ((identity - matrix) / 2, (identity + matrix) / 2)

    @property
    def decomposition(self) -> SpectralDecomposition:
        return SpectralDecomposition(self.eigenvalues, self.projectors)

    def expectation(self, state: State) -> float:
        """<S> on ``state``: one O(d) product with the stored rows and phases."""
        if isinstance(state, StateVector):
            amps = state.amplitudes
            return np.vdot(amps[self.rows], self.phase * amps).real
        return np.sum(self.phase * state.matrix[np.arange(self.dim), self.rows]).real

    def outcome_probabilities(self, state: State) -> np.ndarray:
        expectation = self.expectation(state)
        return np.array([(1.0 - expectation) / 2, (1.0 + expectation) / 2])

    def project(self, outcome_index: int, amplitudes: np.ndarray) -> np.ndarray:
        # (psi -/+ S psi) / 2; each entry is the same two-term sum as the dense product.
        flipped = np.empty_like(amplitudes)
        flipped[self.rows] = self.phase * amplitudes
        return (amplitudes - flipped) / 2 if outcome_index == 0 else (amplitudes + flipped) / 2

    def add_scaled_to(self, out: np.ndarray, coefficient: float, norm: float) -> None:
        # Only the d nonzeros of S change; every other entry would gain +-0.
        out[self.rows, np.arange(self.dim)] += coefficient * (self.phase / norm)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born probabilities over the distinct outcomes of one observable."""

    eigenvalues: tuple[float, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.min() < -ZERO_PROBABILITY:
            raise ValueError(f"negative outcome probability {probs.min()!r}")
        probs = np.clip(probs, 0.0, None)
        if abs(probs.sum() - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    def sample_indices(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Inverse-CDF sampling: one uniform per shot over the sorted outcomes."""
        return _inverse_cdf(self.probabilities, rng, n)

    def as_dict(self) -> dict[float, float]:
        return {a: float(p) for a, p in zip(self.eigenvalues, self.probabilities)}


def _checked_rows(raw: np.ndarray) -> np.ndarray:
    """Rows of Born probabilities, clipped at 0, after the checks :class:`OutcomeDistribution` makes of each.

    The first failing row raises the error its own distribution would;
    zeros padding a row's end change none of the checks.
    """
    probabilities = np.clip(raw, 0.0, None)
    bad = (raw.min(axis=1) < -ZERO_PROBABILITY) | (np.abs(probabilities.sum(axis=1) - 1.0) > 1e-10)
    if bad.any():
        OutcomeDistribution((), raw[int(np.argmax(bad))])
    return probabilities


def _inverse_cdf(weights: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n indices into ``weights``, one uniform per draw scaled by the weight total.

    Philox is counter-based, so n draws at once consume the stream as n single draws do.
    """
    return _cdf_index(weights, rng.random(n))


def _cdf_index(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The index into ``weights`` that each given uniform in [0, 1) selects by inverse CDF.

    ``uniforms`` is scaled by the weight total in place, so that n draws hold
    no second array of n floats; pass an array that is not read again.
    """
    cdf = np.cumsum(weights)
    uniforms *= cdf[-1]
    if cdf.size == 2:
        # searchsorted(side="right") clipped to the last index is one comparison with cdf[0].
        return np.greater_equal(uniforms, cdf[0], out=np.empty(uniforms.shape, np.intp))
    indices = np.searchsorted(cdf, uniforms, side="right")
    return np.minimum(indices, cdf.size - 1, out=indices)


def _cdf_counts(weights: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """How often each index into ``weights`` is drawn in n inverse-CDF draws.

    Equal to ``np.bincount(_inverse_cdf(weights, rng, n), minlength=len(weights))``
    and leaves ``rng`` at the same position, but holds one chunk of uniforms at a time.
    """
    cdf = np.cumsum(weights)
    # at_least[j]: draws whose index is j or more, i.e. whose scaled uniform reaches cdf[j - 1].
    at_least = np.zeros(cdf.size + 1, dtype=np.int64)
    at_least[0] = n
    for uniforms in _uniform_chunks(rng, n):
        uniforms *= cdf[-1]
        for j, edge in enumerate(cdf[:-1], start=1):
            at_least[j] += np.count_nonzero(uniforms >= edge)
    return at_least[:-1] - at_least[1:]


def _uniform_chunks(rng: np.random.Generator, n: int):
    """Yield n uniforms from ``rng`` in stream order, ``SAMPLE_CHUNK`` at a time.

    Every chunk is a view of one reused buffer, overwritten by the next chunk.
    """
    buffer = np.empty(min(n, SAMPLE_CHUNK))
    for start in range(0, n, SAMPLE_CHUNK):
        chunk = buffer[: min(SAMPLE_CHUNK, n - start)]
        rng.random(out=chunk)
        yield chunk


def _skipped_ahead(rng: np.random.Generator, n: int) -> np.random.Generator:
    """A copy of a Philox generator whose next draw is the one ``rng`` would make after n more.

    Philox draws come in blocks of four per counter value: the copy uses up the
    block ``rng`` has started, jumps whole blocks with ``advance`` and burns the rest.
    The last block it enters is burned, not jumped, so the copy's buffer holds
    that block just as after n single draws, and its full state matches.
    """
    state = rng.bit_generator.state
    bit_generator = np.random.Philox(key=0)
    bit_generator.state = state
    burned = min(n, 4 - state["buffer_pos"])
    bit_generator.random_raw(burned)
    rest = n - burned
    jumped = max(rest - 1, 0) // 4
    if jumped:
        bit_generator.advance(jumped)
        # advance() also clears the cached half of a 64-bit draw; keep the original's.
        moved = bit_generator.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bit_generator.state = moved
    bit_generator.random_raw(rest - 4 * jumped)
    return np.random.Generator(bit_generator)


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome log of a run of measurements of one observable: one eigenvalue index per shot."""

    observable: str
    eigenvalues: tuple[float, ...]
    indices: np.ndarray
    mode: str

    @property
    def shots(self) -> int:
        return len(self.indices)

    @property
    def outcomes(self) -> np.ndarray:
        """The outcome value of every shot, in order."""
        return np.asarray(self.eigenvalues)[self.indices]

    def counts(self) -> dict[float, int]:
        """Shots per observed outcome value, in eigenvalue order."""
        tally = np.bincount(self.indices, minlength=len(self.eigenvalues))
        return {value: int(count) for value, count in zip(self.eigenvalues, tally) if count}


_MODES = ("quantum", "passive")


class PSystem:
    """A single simulated system: state, measurement mode and RNG stream.

    The system is single-owner mutable state; in passive mode its state
    object is never replaced by a measurement, so it stays bit-identical
    across arbitrarily many measurements.
    """

    def __init__(self, state: State, mode: str, rng: np.random.Generator):
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
        self.state = state
        self.mode = mode
        self.rng = rng
        self.history: Counter[str] = Counter()  # shots per observable name

    @property
    def dim(self) -> int:
        return self.state.dim

    def replace_state(self, state: State) -> None:
        """Substitute another system into this slot.

        This models physically swapping the system out (as in collapse
        simulation protocols), not a measurement update.
        """
        if state.dim != self.state.dim:
            raise ValueError("replacement state has a different dimension")
        self.state = state

    def __repr__(self) -> str:
        return f"PSystem(dim={self.dim}, mode={self.mode!r})"


def born_distribution(obs: Observable, state: State) -> OutcomeDistribution:
    """Outcome probabilities p(a_r) = <psi|P_r|psi> or Tr(P_r rho).

    The distribution is the same in both measurement modes and the same
    for a pure state and its projector.
    """
    if obs.dim != state.dim:
        raise ValueError(f"dimension mismatch: observable {obs.dim}, state {state.dim}")
    return OutcomeDistribution(obs.eigenvalues, obs.outcome_probabilities(state))


def _outcome_probability(state: State, projector: np.ndarray) -> float:
    if isinstance(state, StateVector):
        return float(np.vdot(state.amplitudes, projector @ state.amplitudes).real)
    return float(np.trace(projector @ state.matrix).real)


def collapse_update(state: State, obs: Observable, outcome_index: int) -> State:
    """Project onto the observed outcome (the textbook collapse rule).

    psi -> P_r psi / |P_r psi|, rho -> P_r rho P_r / Tr(P_r rho P_r).
    Applying it twice with the same outcome is a no-op.
    """
    if isinstance(state, StateVector):
        projected = obs.project(outcome_index, state.amplitudes)
        probability = float(np.vdot(state.amplitudes, projected).real)
    else:
        projector = obs.projectors[outcome_index]
        probability = _outcome_probability(state, projector)
    _require_possible(obs, outcome_index, probability, "quantum")
    # Normalised by its own probability, the projection is a state again: no re-validation.
    if isinstance(state, StateVector):
        return StateVector._unchecked(projected / np.sqrt(probability), state.shape)
    updated = projector @ state.matrix @ projector / probability
    return DensityOperator._unchecked(updated, state.shape)


def passive_update(state: State, obs: Observable, outcome_index: int) -> State:
    """The no-update rule: return the input state itself, unchanged.

    The outcome must still be realizable; claiming an impossible outcome
    is an error just as in the collapse rule.
    """
    _require_possible(obs, outcome_index, obs.outcome_probabilities(state)[outcome_index])
    return state


_ZERO_PROBABILITY_CONSEQUENCE = {
    "quantum": "the post-measurement state is undefined",
    "passive": "an impossible outcome was claimed",
}


def _require_possible(obs: Observable, outcome_index: int, probability: float, mode: str = "passive") -> None:
    """Refuse an outcome of zero probability: neither update rule can follow it."""
    if probability <= ZERO_PROBABILITY:
        raise ValueError(
            f"outcome {obs.eigenvalues[outcome_index]!r} of {obs.name!r} has zero "
            f"probability; {_ZERO_PROBABILITY_CONSEQUENCE[mode]}"
        )


def _require_all_possible(obs: Observable, indices: np.ndarray, probabilities: np.ndarray, mode: str) -> None:
    """Refuse drawn outcomes of zero probability, as updating on each of them in turn would."""
    least = int(np.argmin(probabilities))
    _require_possible(obs, int(indices[least]), probabilities[least], mode)


def _sample_and_update(sys: PSystem, obs: Observable) -> int:
    """Draw one outcome index from the current state and apply the mode's update rule."""
    dist = born_distribution(obs, sys.state)
    index = int(dist.sample_indices(sys.rng, 1)[0])
    if sys.mode == "quantum":
        sys.state = collapse_update(sys.state, obs, index)
    else:
        _require_possible(obs, index, dist.probabilities[index])
    return index


def measure(sys: PSystem, obs: Observable) -> float:
    """Measure once: sample an eigenvalue and apply the mode's update rule."""
    index = _sample_and_update(sys, obs)
    sys.history[obs.name] += 1
    return obs.eigenvalues[index]


def repeated_measure(sys: PSystem, obs: Observable, n: int) -> MeasurementRecord:
    """Measure the same observable n times in succession on one system.

    Quantum mode: the first outcome collapses the state, so outcomes
    2..n repeat outcome 1 exactly.  Passive mode: outcomes are i.i.d.
    from the Born distribution of the unchanged state; this path is
    vectorised but consumes the RNG stream exactly as n single
    measurements would.
    """
    if n < 1:
        raise ValueError("need at least one shot")
    if sys.mode == "passive":
        dist = born_distribution(obs, sys.state)
        indices = dist.sample_indices(sys.rng, n)
        if dist.probabilities.min() <= ZERO_PROBABILITY:
            _require_all_possible(obs, indices, dist.probabilities[indices], "passive")
    else:
        indices = np.fromiter((_sample_and_update(sys, obs) for _ in range(n)), dtype=np.intp, count=n)
    sys.history[obs.name] += n
    return MeasurementRecord(obs.name, obs.eigenvalues, indices, sys.mode)


def luders_map(rho: DensityOperator, projector: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-outcome collapse map at the density-matrix level.

    Returns the un-normalised post-measurement state P_r rho P_r and its
    weight Tr[P_r rho P_r], which equals the Born probability.  The map
    is linear in rho.
    """
    updated = projector @ rho.matrix @ projector
    return updated, float(np.trace(updated).real)


def p_instrument_map(rho: DensityOperator, projector: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-outcome no-update map: rho -> Tr[P_r rho P_r] rho.

    Carries the same weight as the collapse map but scales the *input*
    state, which makes it non-linear in rho.
    """
    weight = float(np.trace(projector @ rho.matrix @ projector).real)
    return weight * rho.matrix, weight


def nonlinearity_witness(
    rho1: DensityOperator,
    rho2: DensityOperator,
    lam: float,
    projector: np.ndarray,
) -> float:
    """Frobenius gap between the no-update map of a blend and the blend of maps.

    Strictly positive exactly when the two states differ and assign the
    projector different probabilities; zero for the collapse map always.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("blend weight must lie strictly between 0 and 1")
    blend = DensityOperator(lam * rho1.matrix + (1.0 - lam) * rho2.matrix, rho1.shape)
    lhs, _ = p_instrument_map(blend, projector)
    map1, _ = p_instrument_map(rho1, projector)
    map2, _ = p_instrument_map(rho2, projector)
    rhs = lam * map1 + (1.0 - lam) * map2
    return float(np.linalg.norm(lhs - rhs))


def expectation_variance(obs: Observable, state: State) -> tuple[float, float]:
    """Mean and variance of an observable's outcome distribution."""
    dist = born_distribution(obs, state)
    values = np.asarray(dist.eigenvalues)
    mean = float(np.dot(values, dist.probabilities))
    variance = float(np.dot(values**2, dist.probabilities) - mean**2)
    return mean, max(variance, 0.0)
