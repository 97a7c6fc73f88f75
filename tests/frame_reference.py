"""Dense references for frames: every observable made from its name alone, and measured on its own.

A frame's names say what each observable is: a Pauli label, or a generalised
Gell-Mann name (``symj_k``, ``antij_k``, ``diagl``, whose dense matrices
``_gell_mann_family`` defines), with ``xI`` appended when it is side A's
observable, measured as A tensor I.  ``frame_matrices`` gives each
observable's dense matrix, and ``frame_observables`` an object to measure it
with (for a side-A frame, its ``lift_local`` to the whole bipartite space), so
a test can compare the library's whole-frame arrays with the dense definitions.

A :class:`ReferencePauliString` holds one string's bit-flip mask, column
phases and rows x ^ x_mask, built from ``hilbert.pauli_phases(label)``.  Its
expectation is one ``np.vdot`` (state vector) or ``np.sum`` (density
operator) over them, and its Born probabilities are (1 -/+ <S>)/2.  It has
the ``name``, ``dim``, ``eigenvalues`` and ``outcome_probabilities`` that
``born_distribution`` and ``repeated_measure`` read.

``column_pauli_frame(n)`` is the Pauli frame as a ``ColumnFrame``: the
``(k, d)`` byte codes and rows every string had before Pauli frames ran a
Walsh-Hadamard transform, so its ``born_rows`` is the block loop of O(d)
products and its ``add_terms`` the unbuffered ``np.add.at`` per block, the
references that ``PauliFrame``'s transforms are checked against.
"""

import functools

import numpy as np

from pqt.composite import LocalSetting, lift_local
from pqt.hilbert import _I_POWERS, StateVector, _odd_parity, pauli_matrix, pauli_phases
from pqt.measurement import Observable
from pqt.tomography import ColumnFrame, pauli_ic_set


class ReferencePauliString:
    """One Pauli string, S|x> = phase[x] |x ^ x_mask>, with outcomes -1 and +1."""

    eigenvalues = (-1.0, 1.0)

    def __init__(self, label):
        self.name = label
        self.x_mask, self.phase = pauli_phases(label)
        self.rows = np.arange(self.phase.size) ^ self.x_mask

    @property
    def dim(self):
        return self.phase.size

    def expectation(self, state):
        """<S> on ``state``: one O(d) product with the rows and phases."""
        if isinstance(state, StateVector):
            amps = state.amplitudes
            return np.vdot(amps[self.rows], self.phase * amps).real
        return np.sum(self.phase * state.matrix[np.arange(self.dim), self.rows]).real

    def outcome_probabilities(self, state):
        expectation = self.expectation(state)
        return np.array([(1.0 - expectation) / 2, (1.0 + expectation) / 2])


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


@functools.cache
def _gell_mann_matrices(dim):
    """The dense generalised Gell-Mann matrices of a dimension, by name."""
    return dict(_gell_mann_family(dim))


def _by_name(ic, pauli, gell_mann, lift=None):
    """One reference per observable of ``ic``, in frame order, chosen by its name alone.

    A name with the suffix ``xI`` is side A's observable: ``lift`` makes the
    reference of A tensor I from that of side A.
    """

    def reference(name):
        if name.endswith("xI"):
            return lift(reference(name[:-2]))
        if set(name) <= set("IXYZ"):
            return pauli(name)
        return gell_mann(name, _gell_mann_matrices(ic.dim)[name])

    return [reference(name) for name in ic.names]


def frame_matrices(ic):
    """The dense matrix of every observable of a frame: a Pauli product or a Gell-Mann matrix."""
    return _by_name(ic, pauli_matrix, lambda name, matrix: matrix)


def frame_observables(ic, shape=None):
    """Every observable of a frame, measured one by one: a reference string, a dense ``Observable``, or its ``lift_local`` to ``shape``."""
    return _by_name(ic, ReferencePauliString, Observable, lambda obs: lift_local(LocalSetting("A", obs), shape))


def pauli_frame_phases(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit-flip masks and column phases of every non-identity Pauli string on n qubits, in label order.

    Row k - 1 is the string whose letters are the base-4 digits of k
    (I, X, Y, Z = 0..3, first letter most significant), as
    ``itertools.product("IXYZ", repeat=n)`` lists them.  The phases come as
    ``(levels, codes)``: phase[x] = levels[codes[x]], with the ``(k, d)``
    byte codes 2 (#Y mod 4) + popcount(x & z_mask) mod 2 into the eight
    products i^(#Y) (+1 or -1), taken as ``pauli_phases`` takes them, so
    ``levels[codes]`` equals each label's phases bit for bit, signed zeros
    included.
    """
    index = np.arange(1, 4**n_qubits)
    digits = (index[:, None] >> (2 * np.arange(n_qubits - 1, -1, -1))) & 3
    weights = 1 << np.arange(n_qubits - 1, -1, -1)
    x_masks = ((digits == 1) | (digits == 2)) @ weights
    z_masks = (digits >= 2) @ weights
    y_counts = np.count_nonzero(digits == 2, axis=1)
    levels = (np.asarray(_I_POWERS)[:, None] * np.array([1.0, -1.0])).ravel()
    # Masks are below 2^6, so the (k, d) fold runs on bytes and leaves the codes in place.
    codes = _odd_parity(np.arange(2**n_qubits, dtype=np.uint8) & z_masks[:, None].astype(np.uint8), n_qubits)
    codes |= (2 * (y_counts % 4)).astype(np.uint8)[:, None]
    return x_masks, levels, codes


@functools.cache
def column_pauli_frame(n_qubits):
    """The Pauli frame on n qubits as a ``ColumnFrame``: rows x ^ x_mask and phase codes, one ``(k, d)`` row per string."""
    ic = pauli_ic_set(n_qubits)
    x_masks, levels, codes = pauli_frame_phases(n_qubits)
    rows = np.arange(ic.dim, dtype=np.uint8) ^ x_masks.astype(np.uint8)[:, None]
    return ColumnFrame(ic.names, ic.norm, ic.values, ic.lagrange, levels, codes, rows)
