"""Projective measurement with two rival state-update rules.

A ``PSystem`` is one simulated physical system: its current state, a
measurement mode and an owned random stream.  In ``"quantum"`` mode an
observed outcome projects the state (collapse); in ``"passive"`` mode
outcomes occur with the same Born probabilities but the state is left
untouched, so the very same system can be measured again and again.

Outcomes are drawn from the system's Philox stream (see :mod:`pqt.rng`),
never the platform default.  Every draw goes through one table and two
kernels: ``_cdf_table`` checks rows of outcome probabilities once, where they
enter, and keeps each row's CDF total; ``_CdfTable.gather`` slices checked rows
into a new table without checking them again.  ``_cdf_index`` derives each
row's CDF edges and turns one uniform per shot into that shot's outcome index
by inverse CDF, and ``_cdf_counts`` draws the outcome counts of n shots of
every row at once, as Multinomial(n, row), with one ``Generator.multinomial``
call: neither its time nor its memory grows with n.  Every count of the
library goes through ``_cdf_counts``, which refuses fewer than one shot before
it draws.

Both modes keep the Born rule, so both kernels refuse a drawn outcome of
probability <= ``ZERO_PROBABILITY``, naming the least probable one of the first
such row: "outcome a of 'name' has zero probability; the post-measurement state
is undefined" (quantum) or "...; an impossible outcome was claimed" (passive).
An outcome of weight exactly zero has no width in the CDF and is never drawn, so
only rows with an outcome of weight in (0, ``ZERO_PROBABILITY``] are checked.  A
drawn pair of outcomes (``_PairReadout``) is refused on the first's probability,
then on the second's given the first, not on their product.  A proper
mixture's member draw, a preparation and no outcome, refuses nothing.
A refusal names a table row by one rule: row r of a table drawn with
``readouts`` is named by ``readouts[r % len(readouts)]``.  So one readout
names every row of a block of trials, and a frame (see
:mod:`pqt.tomography`), which makes the readout of its row r only when a
refusal names it, names each of the blocks of its k rows that a table
gathers state after state.
"""

from __future__ import annotations

import numpy as np

from .hilbert import (
    DensityOperator,
    SpectralDecomposition,
    State,
    StateVector,
    _Record,
    spectral_decompose,
)

ZERO_PROBABILITY = 1e-12
RECONSTRUCTION_TOL = 1e-9
PROBABILITY_SUM_TOL = 1e-10
SEARCH_PER_EDGE = 1024  # a one-row draw with fewer uniforms per edge takes searchsorted


class InsufficientShotsError(ValueError):
    """Too few shots for a protocol to reach its decision; more shots would fix it."""


class Observable:
    """A named Hermitian matrix, kept as its spectral decomposition: outcome values and ``eigh``'s eigenvectors."""

    __slots__ = ("name", "decomposition")

    def __init__(self, name: str, matrix: np.ndarray):
        self.name = name
        self.decomposition = spectral_decompose(matrix)
        defect = np.abs(self.decomposition.reconstruct() - matrix).max()
        if defect > RECONSTRUCTION_TOL * max(1.0, np.abs(matrix).max()):  # relative to the largest entry past 1
            raise ValueError(f"decomposition does not reconstruct {name!r} (defect {defect:.3e})")

    @classmethod
    def from_decomposition(cls, name: str, decomposition: SpectralDecomposition) -> "Observable":
        """Build an observable from an already-known outcome structure.

        Used for lifted local observables, whose degenerate outcomes
        P_r tensor I should be inherited exactly rather than recomputed.
        """
        obs = cls.__new__(cls)
        obs.name = name
        obs.decomposition = decomposition
        return obs

    @property
    def dim(self) -> int:
        return self.decomposition.vectors.shape[0]

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return self.decomposition.eigenvalues

    def outcome_probabilities(self, state: State) -> np.ndarray:
        """Born probability of each outcome, in eigenvalue order: the basis weights summed per outcome."""
        return np.add.reduceat(_basis_weights(self.decomposition.vectors, state), self.decomposition.bounds[:-1])

    def __repr__(self) -> str:
        return f"Observable({self.name!r}, dim={self.dim})"


def _basis_weights(vectors: np.ndarray, state: State) -> np.ndarray:
    """The weight of ``state`` on each orthonormal column v_j of ``vectors``: |<v_j|psi>|^2, or <v_j|rho|v_j>."""
    if isinstance(state, StateVector):
        overlaps = state.amplitudes.conj() @ vectors  # <psi|v_j>
        return (overlaps.conj() * overlaps).real
    return (vectors.conj() * (state.matrix @ vectors)).sum(axis=0).real


class _CdfTable(_Record):
    """Checked outcome probabilities, one distribution per row (zero-weight padding is never drawn), and row totals.

    ``probabilities`` is (k, m), negative roundoff clipped to zero; ``totals`` the (k, 1) CDF total of each row;
    ``risky`` (k,) whether a row has a drawable outcome of probability <= ZERO_PROBABILITY.
    """

    __slots__ = ("probabilities", "totals", "risky")

    def gather(self, rows: np.ndarray) -> "_CdfTable":
        """The table of the given rows (repeats allowed), in order: checked rows are only sliced, never re-checked."""
        return _CdfTable(self.probabilities[rows], self.totals[rows], self.risky[rows])


def _cdf_table(raw: np.ndarray) -> _CdfTable:
    """The table of a ``(k, m)`` array of outcome probabilities, one distribution per row.

    The first row with a negative or non-finite entry, or with a sum
    further than ``PROBABILITY_SUM_TOL`` from 1, raises.
    """
    probabilities = np.clip(raw, 0.0, None)
    sums, lowest = probabilities.sum(axis=1), raw.min(axis=1)
    bad = ~((lowest >= -ZERO_PROBABILITY) & (np.abs(sums - 1.0) <= PROBABILITY_SUM_TOL))  # NaN fails both
    if bad.any():
        row = int(np.argmax(bad))
        if lowest[row] < -ZERO_PROBABILITY:
            raise ValueError(f"negative outcome probability {lowest[row]!r}")
        raise ValueError(f"probabilities sum to {sums[row]!r}, expected 1")
    probabilities.setflags(write=False)
    risky = ((probabilities > 0.0) & (probabilities <= ZERO_PROBABILITY)).any(axis=1)
    return _CdfTable(probabilities, np.cumsum(probabilities, axis=1)[:, -1:], risky)


def _cdf_index(table: _CdfTable, uniforms: np.ndarray, readouts, mode: str | None) -> np.ndarray:
    """The outcome each uniform in [0, 1) selects: how many interior edges of its row it reaches, scaled.

    ``uniforms`` holds as many draws for each row of ``table``, row after
    row; it is scaled in place (pass an array not read again) and the
    indices take its shape.  The input's shape alone picks the method.
    A drawn impossible outcome is refused, naming row r by ``readouts[r % len(readouts)]`` and ``mode`` (None: no refusal).
    """
    rows, outcomes = table.probabilities.shape
    # The interior edges of each row, then its total: a scaled uniform stays below its total,
    # so neither the last column nor a padded one (which repeats the total) is ever reached.
    edges = np.cumsum(table.probabilities, axis=1)
    scaled = uniforms.reshape(rows, -1)
    scaled *= table.totals
    if rows == 1 and scaled.shape[1] < SEARCH_PER_EDGE * (outcomes - 2):
        indices = np.searchsorted(edges[0], scaled, side="right")
    else:
        indices = np.greater_equal(scaled, edges[:, :1], out=np.empty(scaled.shape, np.intp))
        for column in range(1, outcomes - 1):
            indices += scaled >= edges[:, column : column + 1]
    if readouts is not None and table.risky.any():
        drawn = indices[table.risky]
        probabilities = np.take_along_axis(table.probabilities[table.risky], drawn, axis=1)
        _refuse_drawn(readouts, np.flatnonzero(table.risky), probabilities, mode, drawn)
    return indices.reshape(uniforms.shape)


def _cdf_counts(table: _CdfTable, rng: np.random.Generator, n: int, readouts, mode: str | None) -> np.ndarray:
    """How often each outcome of every row of ``table`` is drawn in n draws from ``rng``: a ``(k, m)`` array.

    The counts of n independent Born draws are Multinomial(n, row), which one
    ``rng.multinomial`` call draws for every row, in row order, by sequential binomials.
    numpy leaves a row's rounding remainder on its last column; where that column has no
    weight (padding, or an impossible outcome), the remainder moves to the row's last
    outcome of positive weight.  A drawn outcome is refused as ``_cdf_index`` refuses it, or,
    where ``readouts`` holds ``_PairReadout`` s, as the pair of row r refuses its cell, row after
    row; a pair's cells are the last columns of its row.  Fewer than one shot is refused before any draw.
    """
    if n < 1:
        raise ValueError("need at least one shot")
    counts = rng.multinomial(n, table.probabilities / table.totals)  # rows checked to 1e-10, numpy wants 1e-12
    stray = np.flatnonzero((counts[:, -1] > 0) & (table.probabilities[:, -1] == 0.0))
    last = table.probabilities.shape[1] - 1 - np.argmax(table.probabilities[stray, ::-1] > 0.0, axis=1)
    counts[stray, last] += counts[stray, -1]
    counts[stray, -1] = 0
    if readouts is not None and table.risky.any() and isinstance(readouts[0], _PairReadout):
        for row in np.flatnonzero(table.risky):
            pair = readouts[row % len(readouts)]
            size = pair.first.size * len(pair.sides[1].eigenvalues)
            cells = counts[row, counts.shape[1] - size :].reshape(pair.first.size, -1) > 0
            first = np.where(cells.any(axis=1), pair.first, np.inf)
            second = np.where(cells, pair.second, np.inf).min(axis=0)  # each drawn b's least p(b | a) over drawn a
            _refuse_drawn(pair.sides[:1], (0,), first[None], mode)
            _refuse_drawn(pair.sides[1:], (0,), second[None], mode)
    elif readouts is not None and table.risky.any():
        drawn = np.where(counts[table.risky] > 0, table.probabilities[table.risky], np.inf)
        _refuse_drawn(readouts, np.flatnonzero(table.risky), drawn, mode)
    return counts


class OutcomeDistribution(_Record):
    """Born probabilities over the distinct outcomes of one observable."""

    __slots__ = ("eigenvalues", "probabilities", "cdf")

    def __init__(self, eigenvalues: tuple[float, ...], probabilities: np.ndarray):
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (len(eigenvalues),):
            raise ValueError(f"got {probabilities.size} probabilities for {len(eigenvalues)} eigenvalues")
        self.eigenvalues = eigenvalues
        self.cdf = _cdf_table(probabilities[None])
        self.probabilities = self.cdf.probabilities[0]

    def sample_indices(self, rng: np.random.Generator, n: int, readout, mode: str) -> np.ndarray:
        """One uniform per shot over the sorted outcomes of ``readout``, measured in ``mode``."""
        return _cdf_index(self.cdf, rng.random(n), (readout,), mode)

    def as_dict(self) -> dict[float, float]:
        return {a: float(p) for a, p in zip(self.eigenvalues, self.probabilities)}


class MeasurementRecord(_Record):
    """Outcome log of a run of measurements of one observable: one eigenvalue index per shot."""

    __slots__ = ("observable", "eigenvalues", "indices", "mode")  # name, outcome values, (shots,) indices, mode
    __init__ = _Record.__init__  # a constructor of its own, which a profiler can wrap for this class alone

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


MODES = ("quantum", "passive")


class PSystem:
    """A single simulated system: state, measurement mode and RNG stream.

    The system is single-owner mutable state; in passive mode its state
    object is never replaced by a measurement, so it stays bit-identical
    across arbitrarily many measurements.
    """

    def __init__(self, state: State, mode: str, rng: np.random.Generator):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.state = state
        self.mode = mode
        self.rng = rng

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


def collapse_update(state: State, obs: Observable, outcome_index: int) -> State:
    """Project onto the observed outcome (the textbook collapse rule).

    psi -> P_r psi / |P_r psi|, rho -> P_r rho P_r / Tr(P_r rho P_r), with
    P_r = V_r V_r^dag applied as V_r (V_r^dag x), never formed.
    Applying it twice with the same outcome is a no-op.
    """
    block = obs.decomposition.block(outcome_index)
    if isinstance(state, StateVector):
        coefficients = state.amplitudes @ block.conj()  # V_r^dag psi
        probability = float(np.vdot(coefficients, coefficients).real)
    else:
        inner = block.conj().T @ state.matrix @ block  # V_r^dag rho V_r
        probability = float(np.trace(inner).real)
    _require_possible(obs, outcome_index, probability, "quantum")
    # Normalised by its own probability, the projection is a state again: no re-validation.
    if isinstance(state, StateVector):
        return StateVector._unchecked(block @ coefficients / np.sqrt(probability), state.shape)
    return DensityOperator._unchecked(block @ inner @ block.conj().T / probability, state.shape)


def passive_update(state: State, obs: Observable, outcome_index: int) -> State:
    """The no-update rule: return the input state itself, unchanged.

    The outcome must still be realizable; claiming an impossible outcome
    is an error just as in the collapse rule.
    """
    _require_possible(obs, outcome_index, obs.outcome_probabilities(state)[outcome_index], "passive")
    return state


_ZERO_PROBABILITY_CONSEQUENCE = {
    "quantum": "the post-measurement state is undefined",
    "passive": "an impossible outcome was claimed",
}


class _Readout(_Record):
    """What a zero-probability error names of a measurement: ``_require_possible`` reads only these."""

    __slots__ = ("name", "eigenvalues")  # the observable's name and its outcome values


class _PairReadout(_Record):
    """Readout of (a, b) pairs over the row-major grid: a drawn cell is refused on p(a), then on p(b | a).

    ``sides`` holds the two observables, ``first`` p(a) of each a, and ``second``
    p(b) of each b (independent sides) or a ``(ka, kb)`` array of p(b | a).
    """

    __slots__ = ("sides", "first", "second")


def _require_possible(obs: Observable | _Readout, outcome_index: int, probability: float, mode: str) -> None:
    """Refuse an outcome of zero probability: neither update rule can follow it."""
    if probability <= ZERO_PROBABILITY:
        raise ValueError(
            f"outcome {obs.eigenvalues[outcome_index]!r} of {obs.name!r} has zero "
            f"probability; {_ZERO_PROBABILITY_CONSEQUENCE[mode]}"
        )


def _refuse_drawn(readouts, rows, probabilities: np.ndarray, mode: str, outcomes: np.ndarray | None = None) -> None:
    """Refuse the least probable drawn outcome, the first among equals, of the first row that drew an impossible one.

    ``probabilities[i, j]`` is the probability of draw j in row ``rows[i]``, +inf for no draw,
    and ``outcomes[i, j]`` (j by default) its outcome.  Row r is named by ``readouts[r % len(readouts)]``.
    """
    offending = np.flatnonzero(probabilities.min(axis=1, initial=np.inf) <= ZERO_PROBABILITY)
    if offending.size:
        i = offending[0]
        j = int(np.argmin(probabilities[i]))
        readout = readouts[rows[i] % len(readouts)]
        _require_possible(readout, j if outcomes is None else int(outcomes[i, j]), probabilities[i, j], mode)


def _sample_and_update(sys: PSystem, obs: Observable) -> int:
    """Draw one outcome index from the current state and apply the mode's update rule."""
    index = int(born_distribution(obs, sys.state).sample_indices(sys.rng, 1, obs, sys.mode)[0])
    if sys.mode == "quantum":
        sys.state = collapse_update(sys.state, obs, index)
    return index


def measure(sys: PSystem, obs: Observable) -> float:
    """Measure once: sample an eigenvalue and apply the mode's update rule."""
    return obs.eigenvalues[_sample_and_update(sys, obs)]


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
        indices = born_distribution(obs, sys.state).sample_indices(sys.rng, n, obs, "passive")
    else:
        indices = np.fromiter((_sample_and_update(sys, obs) for _ in range(n)), dtype=np.intp, count=n)
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
    blend = DensityOperator._unchecked(lam * rho1.matrix + (1.0 - lam) * rho2.matrix, rho1.shape)  # a state
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
