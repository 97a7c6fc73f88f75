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

Statistical noise can push the raw estimate outside the state set, so a
Euclidean projection onto the probability simplex of its spectrum
restores physicality.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator, StateVector, fidelity
from .measurement import InsufficientShotsError, Observable, PauliString, PSystem, repeated_measure

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
    estimates = []
    for obs in ic.observables:
        outcomes = repeated_measure(sys, obs, shots).outcomes
        mean = float(outcomes.mean())
        half_width = float(CONFIDENCE_Z * outcomes.std(ddof=0) / np.sqrt(shots))
        estimates.append(ExpectationEstimate(obs.name, mean, half_width))
    return estimates


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
