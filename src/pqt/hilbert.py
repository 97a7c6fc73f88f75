"""Finite-dimensional complex Hilbert space machinery.

States, operators, tensor structure, spectral decompositions, partial
traces and fidelities, all as dense numpy arrays.  Target dimensions are
small (d <= 64); everything favours clarity over scale.

All types are immutable after construction (the wrapped arrays are
marked read-only) and every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10
RAY_TOL = 1e-10
DEGENERACY_TOL = 1e-9

# Qubit constants used throughout.
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


def _as_shape(dim: int, shape: Sequence[int] | None) -> tuple[int, ...]:
    if shape is None:
        return (dim,)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != dim:
        raise ValueError(f"shape {shape} does not factor dimension {dim}")
    return shape


class StateVector:
    """A unit vector in C^d with an optional tensor factorisation.

    ``shape`` lists the subsystem dimensions; their product is d.  Global
    phase is unobservable, so equality of states is ray equality, tested
    through :func:`fidelity` and never by amplitude comparison.
    """

    __slots__ = ("amplitudes", "shape")

    def __init__(self, amplitudes: Sequence[complex], shape: Sequence[int] | None = None):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise ValueError("state vector needs dimension >= 2")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq!r}")
        self.amplitudes = _freeze(amps)
        self.shape = _as_shape(amps.size, shape)

    @classmethod
    def _unchecked(cls, amplitudes: np.ndarray, shape: tuple[int, ...]) -> "StateVector":
        """Wrap amplitudes that an invariant-preserving operation derived from a valid state.

        No check runs: the caller guarantees unit norm and a matching shape.
        """
        state = cls.__new__(cls)
        state.amplitudes = _freeze(amplitudes)
        state.shape = shape
        return state

    @classmethod
    def normalized(cls, amplitudes: Sequence[complex], shape: Sequence[int] | None = None) -> "StateVector":
        """Build a state from an unnormalized amplitude list."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(amps))
        if norm <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(amps / norm, shape)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        """|psi><psi| as a plain matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_density(self) -> "DensityOperator":
        return DensityOperator(self.projector(), self.shape)

    def ray_equal(self, other: "StateVector") -> bool:
        """True when both vectors describe the same ray (|<phi|psi>|^2 = 1)."""
        return fidelity(self, other) >= 1.0 - RAY_TOL

    def with_shape(self, shape: Sequence[int]) -> "StateVector":
        return StateVector(self.amplitudes, shape)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim}, shape={self.shape})"


class DensityOperator:
    """A positive semidefinite, unit-trace Hermitian matrix."""

    __slots__ = ("matrix", "shape")

    def __init__(self, matrix: np.ndarray, shape: Sequence[int] | None = None):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density operator must be a square matrix")
        # Finiteness first: inf - inf in the Hermiticity test would warn.
        if not np.isfinite(mat).all():
            raise ValueError("density operator entries are not finite")
        if not np.abs(mat - mat.conj().T).max() <= HERMITIAN_TOL:
            raise ValueError("density operator is not Hermitian")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= NORM_TOL:
            raise ValueError(f"density operator has trace {trace!r}, expected 1")
        if float(np.linalg.eigvalsh(mat).min()) < -PSD_TOL:
            raise ValueError("density operator has a negative eigenvalue")
        self.matrix = _freeze(mat)
        self.shape = _as_shape(mat.shape[0], shape)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray, shape: tuple[int, ...]) -> "DensityOperator":
        """Wrap a matrix that an invariant-preserving operation derived from a valid state.

        No check runs: the caller guarantees a Hermitian, unit-trace, PSD matrix and a matching shape.
        """
        state = cls.__new__(cls)
        state.matrix = _freeze(matrix)
        state.shape = shape
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2), 1 for pure states and 1/d for the maximally mixed one."""
        return float(np.trace(self.matrix @ self.matrix).real)

    def with_shape(self, shape: Sequence[int]) -> "DensityOperator":
        return DensityOperator(self.matrix, shape)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim}, shape={self.shape})"


State = Union[StateVector, DensityOperator]


class UnitaryOperator:
    """A d x d matrix with U^dag U = I within entrywise tolerance."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("unitary must be a square matrix")
        # Finiteness first: inf * 0 in U^dag U would warn.
        if not np.isfinite(mat).all():
            raise ValueError("matrix is not unitary (entries are not finite)")
        defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
        if not defect <= UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (max |U^dag U - I| = {defect:.3e})")
        self.matrix = _freeze(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryOperator(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues of a Hermitian matrix with their projectors.

    Eigenvalues are sorted ascending; eigenvalues closer than the
    degeneracy tolerance are merged into a single outcome whose projector
    is the sum over the merged eigenspaces.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "projectors", tuple(_freeze(p) for p in self.projectors))

    def reconstruct(self) -> np.ndarray:
        """Sum_r a_r P_r."""
        out = np.zeros_like(self.projectors[0])
        for value, proj in zip(self.eigenvalues, self.projectors):
            out = out + value * proj
        return out


def spectral_decompose(matrix: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix into distinct-outcome projectors.

    Consecutive eigenvalues within ``degeneracy_tol`` of each other are
    merged into one outcome; the outcome value is the mean of the merged
    eigenvalues and the projector the sum of their eigenprojectors.
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    # Finiteness first: inf - inf in the Hermiticity test would warn.
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries are not finite")
    if not np.abs(mat - mat.conj().T).max() <= 1e-10:
        raise ValueError("matrix is not Hermitian")

    values, vectors = np.linalg.eigh(mat)
    groups: list[list[int]] = [[0]]
    for i in range(1, values.size):
        if values[i] - values[groups[-1][-1]] <= degeneracy_tol:
            groups[-1].append(i)
        else:
            groups.append([i])

    eigenvalues = []
    projectors = []
    for group in groups:
        eigenvalues.append(float(values[group].mean()))
        block = vectors[:, group]
        projectors.append(block @ block.conj().T)
    return SpectralDecomposition(tuple(eigenvalues), tuple(projectors))


def tensor(a, b):
    """Kronecker product of two states, operators or raw matrices.

    Both operands must be of the same kind; the result's shape is the
    concatenation of the operand shapes.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes), a.shape + b.shape)
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(np.kron(a.matrix, b.matrix), a.shape + b.shape)
    if isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator):
        return UnitaryOperator(np.kron(a.matrix, b.matrix))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def kron_all(*matrices: np.ndarray) -> np.ndarray:
    out = np.asarray(matrices[0], dtype=complex)
    for mat in matrices[1:]:
        out = np.kron(out, mat)
    return out


def partial_trace(state: State, keep: int) -> DensityOperator:
    """Trace out every subsystem except ``keep``.

    Accepts a pure state as well; it is promoted to its projector first.
    The reduced operator satisfies Tr[(X tensor I) rho] = Tr[X Tr_B(rho)]
    for every test operator X on the kept factor.
    """
    if isinstance(state, StateVector):
        matrix, dims = state.projector(), state.shape
    else:
        matrix, dims = state.matrix, state.shape
    n = len(dims)
    if n < 2:
        raise ValueError("partial trace needs at least two subsystems")
    if not 0 <= keep < n:
        raise ValueError(f"subsystem index {keep} out of range for shape {dims}")

    tensor_form = matrix.reshape(dims + dims)
    # Einsum labels: traced subsystems share a row/column label.
    row = [chr(ord("a") + i) for i in range(n)]
    col = [row[i] if i != keep else chr(ord("a") + n) for i in range(n)]
    spec = "".join(row) + "".join(col) + "->" + row[keep] + col[keep]
    reduced = np.einsum(spec, tensor_form)
    # A partial trace of a valid state is a valid state: no re-validation.
    return DensityOperator._unchecked(reduced, (dims[keep],))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh(matrix)
    values = np.clip(values, 0.0, None)
    return (vectors * np.sqrt(values)) @ vectors.conj().T


def fidelity(x: State, y: State) -> float:
    """Fidelity between two states of equal dimension, in [0, 1].

    Pure-pure: |<x|y>|^2.  Pure-mixed: <x|rho|x>.  Mixed-mixed:
    (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.
    """
    dim_x = x.dim
    dim_y = y.dim
    if dim_x != dim_y:
        raise ValueError(f"dimension mismatch: {dim_x} vs {dim_y}")
    if isinstance(x, StateVector) and isinstance(y, StateVector):
        overlap = np.vdot(x.amplitudes, y.amplitudes)
        return float(min(abs(overlap) ** 2, 1.0))
    if isinstance(x, StateVector):
        return float(min(np.vdot(x.amplitudes, y.matrix @ x.amplitudes).real, 1.0))
    if isinstance(y, StateVector):
        return fidelity(y, x)
    root = _psd_sqrt(x.matrix)
    inner = root @ y.matrix @ root
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(min(np.sqrt(eigs).sum() ** 2, 1.0))


def evolve(state: State, unitary: UnitaryOperator) -> State:
    """Apply a unitary map: psi -> U psi, rho -> U rho U^dag."""
    if unitary.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, unitary {unitary.dim}")
    if isinstance(state, StateVector):
        return StateVector(unitary.matrix @ state.amplitudes, state.shape)
    return DensityOperator(unitary.matrix @ state.matrix @ unitary.matrix.conj().T, state.shape)


# ---------------------------------------------------------------------------
# Common states and operators
# ---------------------------------------------------------------------------

def basis_state(dim: int, index: int, shape: Sequence[int] | None = None) -> StateVector:
    """Computational basis vector |index> in C^dim."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, shape)


def plus_state(n_qubits: int = 1) -> StateVector:
    """Uniform superposition |+>^n."""
    dim = 2**n_qubits
    return StateVector(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex), (2,) * n_qubits)


_BELL_AMPLITUDES = {
    "phi+": [1.0, 0.0, 0.0, 1.0],
    "phi-": [1.0, 0.0, 0.0, -1.0],
    "psi+": [0.0, 1.0, 1.0, 0.0],
    "psi-": [0.0, 1.0, -1.0, 0.0],
}


def bell_state(which: str = "phi+") -> StateVector:
    """One of the four Bell states on C^2 tensor C^2."""
    try:
        amps = _BELL_AMPLITUDES[which]
    except KeyError:
        raise ValueError(f"unknown Bell state {which!r}; expected one of {sorted(_BELL_AMPLITUDES)}") from None
    return StateVector(np.asarray(amps) / np.sqrt(2.0), (2, 2))


def maximally_mixed(dim: int, shape: Sequence[int] | None = None) -> DensityOperator:
    return DensityOperator(np.eye(dim) / dim, shape)


def random_pure_state(dim: int, rng: np.random.Generator, shape: Sequence[int] | None = None) -> StateVector:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector.normalized(amps, shape)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random mixed state: normalized Wishart matrix of the given rank."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat).real)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _odd_parity(values: np.ndarray, n_bits: int) -> np.ndarray:
    """Whether each entry has an odd number of set bits among its low ``n_bits``; folds ``values`` in place.

    Parity by halving xor-folds (np.bitwise_count needs NumPy 2).
    """
    shift = 1 << (n_bits - 1).bit_length()
    while shift > 1:
        shift >>= 1
        values ^= values >> shift
    return (values & 1).astype(bool)


def pauli_phases(label: str) -> tuple[int, np.ndarray]:
    """Bit-flip mask and column phases of a Pauli string: S|x> = phase[x] |x ^ x_mask>.

    The first letter acts on the most significant bit, as in the Kronecker
    product.  phase[x] = i^(#Y) (-1)^popcount(x & z_mask), where X and Y
    set a bit of x_mask and Y and Z a bit of z_mask (Aaronson & Gottesman,
    quant-ph/0406196).
    """
    if not label or any(ch not in "IXYZ" for ch in label):
        raise ValueError(f"invalid Pauli label {label!r}; use letters from IXYZ")
    x_mask = z_mask = 0
    for ch in label:
        x_mask = (x_mask << 1) | (ch in "XY")
        z_mask = (z_mask << 1) | (ch in "YZ")
    odd = _odd_parity(np.arange(2 ** len(label)) & z_mask, len(label))
    return x_mask, _I_POWERS[label.count("Y") % 4] * np.where(odd, -1.0, 1.0)


def pauli_frame_phases(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit-flip masks and column phases of every non-identity Pauli string on n qubits, in label order.

    Row k - 1 is the string whose letters are the base-4 digits of k
    (I, X, Y, Z = 0..3, first letter most significant), as
    ``itertools.product("IXYZ", repeat=n)`` lists them.  Each row equals
    :func:`pauli_phases` of its label, bit for bit.
    """
    index = np.arange(1, 4**n_qubits)
    digits = (index[:, None] >> (2 * np.arange(n_qubits - 1, -1, -1))) & 3
    weights = 1 << np.arange(n_qubits - 1, -1, -1)
    x_masks = ((digits == 1) | (digits == 2)) @ weights
    z_masks = (digits >= 2) @ weights
    y_counts = np.count_nonzero(digits == 2, axis=1)
    # Masks are below 2^6, so the (k, d) fold runs on bytes.
    odd = _odd_parity(np.arange(2**n_qubits, dtype=np.uint8) & z_masks[:, None].astype(np.uint8), n_qubits)
    return x_masks, np.asarray(_I_POWERS)[y_counts % 4, None] * np.where(odd, -1.0, 1.0)


def pauli_dense(x_mask: int, phase: np.ndarray) -> np.ndarray:
    """Dense matrix of the Pauli string with the given bit-flip mask and column phases."""
    columns = np.arange(phase.size)
    out = np.zeros((phase.size, phase.size), dtype=complex)
    out[columns ^ x_mask, columns] = phase
    return out


def pauli_matrix(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"ZX"`` -> Z tensor X."""
    return pauli_dense(*pauli_phases(label))
