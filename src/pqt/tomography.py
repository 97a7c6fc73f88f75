"""Single-copy state reconstruction.

Because passive measurements leave the state untouched, one system can
be interrogated with an informationally complete observable set often
enough to estimate every expectation value, and the state follows by
linear inversion.  No ensemble is needed; that is the whole point.

Inversion is expectation-based (the Bloch-vector picture): an IC set is
d^2 - 1 traceless observables, orthogonal under the trace inner product
with Tr(O_j O_k) = norm * delta_jk, so that

    estimate = I/d + sum_k <O_k> * O_k / norm.

The Pauli strings and the generalised Gell-Mann matrices have this
property by construction (Bertlmann & Krammer, J. Phys. A 41, 235303,
2008); the tests check it once instead of every build.

Pauli frames are held as masks: each string is a
:class:`~pqt.measurement.PauliString`, a bit-flip mask and d phases with
S|x> = phase[x] |x ^ x_mask>, whose matrix and projectors are derived
only on demand.  Its Born probabilities cost O(d), and inversion adds
its d nonzeros only.  :func:`ic_set_for_dimension` returns one shared,
immutable frame per dimension.

Every observable of a frame is sampled by one row-wise sampler: the
frame's Born rows on the state are computed and checked once, then
blocks of about ``SAMPLE_CHUNK`` uniforms, ``shots`` to a row, are
turned into outcome values against each row's CDF edges, and each row's
mean and spread are read off.  Philox is counter-based, so the stream
is consumed exactly as one ``repeated_measure`` per observable would
consume it, and the numbers are the same.

Statistical noise can push the raw estimate outside the state set, so a
Euclidean projection onto the probability simplex of its spectrum
restores physicality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator, State, StateVector, fidelity
from .measurement import (
    SAMPLE_CHUNK,
    ZERO_PROBABILITY,
    InsufficientShotsError,
    Observable,
    PauliString,
    PSystem,
    _checked_rows,
    _require_all_possible,
    repeated_measure,
)

CONFIDENCE_Z = 1.96
MAX_IC_DIMENSION = 64


@dataclass(frozen=True)
class ICSet:
    """Traceless observables with Tr(O_j O_k) = norm * delta_jk, d^2 - 1 of them."""

    observables: tuple[Observable, ...]
    norm: float

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    def __len__(self) -> int:
        return len(self.observables)


@dataclass
class ExpectationEstimate:
    """Sample mean of one observable with a normal-approximation half-width."""

    observable: str
    mean: float
    half_width: float


@dataclass
class ReconstructionResult:
    estimate: DensityOperator
    raw_estimate: np.ndarray
    shots_per_observable: int
    diagnostics: list[ExpectationEstimate]

    def __post_init__(self):
        trace = complex(np.trace(self.raw_estimate))
        if abs(trace - 1.0) > 1e-10:
            raise ValueError(f"raw estimate has trace {trace!r}, expected 1")


def pauli_ic_set(n_qubits: int) -> ICSet:
    """All non-identity Pauli strings on n qubits, with norm 2^n.

    Each string is a :class:`PauliString`: a bit-flip mask and d phases,
    with no dense matrix or projector stored.
    """
    if not 1 <= n_qubits <= 6:
        raise ValueError("supported range is 1..6 qubits")
    labels = ("".join(letters) for letters in itertools.product("IXYZ", repeat=n_qubits))
    return ICSet(tuple(PauliString(label) for label in labels if label.strip("I")), float(2**n_qubits))


def _gell_mann_family(dim: int) -> list[tuple[str, np.ndarray]]:
    """Traceless Hermitian basis, orthonormal under Tr(AB)."""
    out: list[tuple[str, np.ndarray]] = []
    for k in range(1, dim):
        for j in range(k):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            out.append((f"sym{j}_{k}", sym))
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1.0j / np.sqrt(2.0)
            anti[k, j] = 1.0j / np.sqrt(2.0)
            out.append((f"anti{j}_{k}", anti))
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -float(level)
        out.append((f"diag{level}", diag / np.sqrt(level * (level + 1))))
    return out


def hermitian_basis_ic_set(dim: int) -> ICSet:
    """Generalised Gell-Mann basis for arbitrary dimension, with norm 1.

    Orthonormality under the trace inner product gives
    rho = I/d + sum <G_k> G_k.
    """
    if not 2 <= dim <= MAX_IC_DIMENSION:
        raise ValueError(f"supported range is dimension 2..{MAX_IC_DIMENSION}")
    observables = tuple(Observable(name, matrix) for name, matrix in _gell_mann_family(dim))
    return ICSet(observables, 1.0)


def ic_set_for_dimension(dim: int) -> ICSet:
    """Pauli strings for a power-of-two dimension, the generalised Gell-Mann basis otherwise.

    Frames are immutable, so each dimension is built once and the same
    object is returned to every caller.
    """
    return _shared_ic_set(dim)


@functools.lru_cache(maxsize=8)
def _shared_ic_set(dim: int) -> ICSet:
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits == dim:
        return pauli_ic_set(n_qubits)
    return hermitian_basis_ic_set(dim)


def estimate_expectations(sys: PSystem, ic: ICSet, shots: int) -> list[ExpectationEstimate]:
    """Estimate every IC expectation by repeated measurement of one system.

    Only valid in passive mode: reusing a single copy requires that
    measurements leave the state alone.  The system's state is unchanged
    afterwards.
    """
    if sys.mode != "passive":
        raise ValueError("single-copy estimation requires passive mode")
    means, spreads = _sample_frame(sys, _frame_table(ic.observables, sys.state), shots, spread=True)
    half_widths = CONFIDENCE_Z * spreads / np.sqrt(shots)
    return [
        ExpectationEstimate(obs.name, float(mean), float(half_width))
        for obs, mean, half_width in zip(ic.observables, means, half_widths)
    ]


@dataclass(frozen=True)
class _FrameTable:
    """The Born distributions of every observable of a frame on one state, one padded row each.

    A row with fewer outcomes than the widest is padded with zero
    probability, a CDF edge of +inf and a value that is never selected.
    """

    observables: tuple[Observable, ...]
    probabilities: np.ndarray  # (k, m), negative roundoff clipped to zero
    totals: np.ndarray  # (k, 1) CDF total of each row
    edges: np.ndarray  # (k, m - 1) interior CDF edges
    values: np.ndarray  # (m,) outcome values shared by every row, or (k * m,) row-major
    offsets: np.ndarray | None  # (k, 1) start of each row in ``values``; None when they are shared
    risky: np.ndarray  # (k,) rows with an outcome of probability <= ZERO_PROBABILITY


def _frame_table(observables: tuple[Observable, ...], state: State) -> _FrameTable:
    """Born probabilities of every observable on ``state``, checked as :class:`OutcomeDistribution` checks them."""
    if observables[0].dim != state.dim:
        raise ValueError(f"dimension mismatch: observable {observables[0].dim}, state {state.dim}")
    sizes = np.array([len(obs.eigenvalues) for obs in observables])
    columns = np.arange(max(2, sizes.max()))
    real = columns < sizes[:, None]
    raw = np.zeros(real.shape)
    values = np.zeros(real.shape)
    for row, obs in enumerate(observables):
        raw[row, : sizes[row]] = obs.outcome_probabilities(state)
        values[row, : sizes[row]] = obs.eigenvalues
    probabilities = _checked_rows(raw)
    cdf = np.cumsum(probabilities, axis=1)
    totals = np.take_along_axis(cdf, sizes[:, None] - 1, axis=1)
    # searchsorted(side="right") clipped to a row's last index counts the edges before its last one.
    edges = np.where(columns[:-1] < sizes[:, None] - 1, cdf[:, :-1], np.inf)
    risky = np.where(real, probabilities, np.inf).min(axis=1) <= ZERO_PROBABILITY
    if all(obs.eigenvalues == observables[0].eigenvalues for obs in observables):
        values, offsets = values[0], None
    else:
        values, offsets = values.reshape(-1), np.arange(0, values.size, columns.size)[:, None]
    return _FrameTable(observables, probabilities, totals, edges, values, offsets, risky)


def _sample_frame(sys: PSystem, table: _FrameTable, shots: int, spread: bool = False):
    """Mean (and, with ``spread``, population standard deviation) of ``shots`` passive draws of every row.

    Rows are drawn in frame order, ``shots`` uniforms each, as one
    ``repeated_measure`` per observable would draw them: a block of rows
    takes one ``(rows, shots)`` draw of about ``SAMPLE_CHUNK`` uniforms,
    and Philox consumes its stream the same way either way.  One buffer
    holds each block's uniforms and then its outcome values; the index
    array lives only in between.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    count, width = table.probabilities.shape
    means = np.empty(count)
    spreads = np.empty(count) if spread else None
    step = max(1, SAMPLE_CHUNK // shots)
    buffer = np.empty((min(step, count), shots))
    for start in range(0, count, step):
        block = slice(start, min(count, start + step))
        uniforms = buffer[: block.stop - start]
        sys.rng.random(out=uniforms)
        uniforms *= table.totals[block]
        indices = np.greater_equal(uniforms, table.edges[block, :1], out=np.empty(uniforms.shape, np.intp))
        for column in range(1, width - 1):
            indices += uniforms >= table.edges[block, column : column + 1]
        for row in start + np.flatnonzero(table.risky[block]):
            drawn = indices[row - start]
            _require_all_possible(table.observables[row], drawn, table.probabilities[row][drawn], "passive")
        if table.offsets is not None:
            indices += table.offsets[block]
        values = np.take(table.values, indices, out=uniforms, mode="wrap")  # every index is in range
        del indices
        means[block] = values.mean(axis=1)
        if spread:
            spreads[block] = values.std(axis=1)
        for obs in table.observables[block]:
            sys.history[obs.name] += shots
    return means, spreads


def _frame_estimate(sys: PSystem, ic: ICSet, table: _FrameTable, shots: int) -> DensityOperator:
    """Sample every row of ``table`` on ``sys``, invert with the frame ``ic`` and restore physicality.

    ``table`` holds the Born rows of ``ic``'s observables, or of their
    lifts to a larger space (a reduced-state reconstruction).
    """
    means, _ = _sample_frame(sys, table, shots)
    return project_to_physical(linear_inversion(means, ic))


def linear_inversion(estimates, ic: ICSet) -> np.ndarray:
    """Invert estimated expectations: I/d + sum_k <O_k> O_k / norm.

    ``estimates`` is a sequence aligned with ``ic.observables``, either
    plain means or :class:`ExpectationEstimate` records.  The output has
    unit trace by construction but may fail positivity.
    """
    if len(estimates) != len(ic):
        raise ValueError(f"got {len(estimates)} estimates for {len(ic)} observables")
    means = [e.mean if isinstance(e, ExpectationEstimate) else float(e) for e in estimates]
    out = np.eye(ic.dim, dtype=complex) / ic.dim
    for mean, obs in zip(means, ic.observables):
        obs.add_scaled_to(out, mean, ic.norm)
    return out


def project_to_physical(matrix: np.ndarray) -> DensityOperator:
    """Closest density operator in Frobenius norm.

    Eigendecompose, project the spectrum onto the probability simplex
    (sort descending, keep the largest k with u_k + (1 - sum_{i<=k} u_i)/k > 0,
    shift and clip), and rebuild with the original eigenvectors.
    """
    mat = np.asarray(matrix, dtype=complex)
    mat = (mat + mat.conj().T) / 2.0
    trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > 0.1:
        raise ValueError(f"trace {trace!r} is too far from 1 to project")

    values, vectors = np.linalg.eigh(mat)
    descending = np.sort(values)[::-1]
    cumulative = np.cumsum(descending)
    k = 0
    for i in range(descending.size):
        if descending[i] + (1.0 - cumulative[i]) / (i + 1) > 0.0:
            k = i + 1
    shift = (1.0 - cumulative[k - 1]) / k
    projected = np.clip(values + shift, 0.0, None)
    rebuilt = (vectors * projected) @ vectors.conj().T
    return DensityOperator(rebuilt)


def reconstruct_single_copy(sys: PSystem, ic: ICSet, shots: int) -> ReconstructionResult:
    """Full pipeline: estimate expectations, invert, restore physicality."""
    diagnostics = estimate_expectations(sys, ic, shots)
    raw = linear_inversion(diagnostics, ic)
    estimate = project_to_physical(raw)
    return ReconstructionResult(estimate, raw, shots, diagnostics)


def discriminate(sys: PSystem, candidates: list[StateVector], ic: ICSet, shots: int) -> int:
    """Identify which candidate the system is in, from the single copy.

    Reconstructs and returns the index of the candidate with the highest
    fidelity to the estimate.  Candidates must be pairwise ray-distinct;
    a fidelity tie means the measurement record cannot separate them yet.
    """
    if sys.mode != "passive":
        raise ValueError("single-copy discrimination requires passive mode")
    for i, j in itertools.combinations(range(len(candidates)), 2):
        if candidates[i].ray_equal(candidates[j]):
            raise ValueError(f"candidates {i} and {j} are ray-equal")
    result = reconstruct_single_copy(sys, ic, shots)
    scores = np.array([fidelity(c, result.estimate) for c in candidates])
    order = np.argsort(scores)
    if scores[order[-1]] - scores[order[-2]] <= 1e-9:
        raise InsufficientShotsError("insufficient shots: candidate fidelities are tied")
    return int(order[-1])


def estimate_spectrum(sys: PSystem, obs: Observable, shots: int) -> list[float]:
    """Distinct outcome values observed in repeated passive measurement.

    With full overlap between the state and every eigenspace this
    recovers the whole spectrum; an eigenvalue of Born weight p is
    missed with probability (1 - p)^shots.
    """
    if sys.mode != "passive":
        raise ValueError("spectrum estimation by repetition requires passive mode")
    record = repeated_measure(sys, obs, shots)
    return sorted(record.counts())
