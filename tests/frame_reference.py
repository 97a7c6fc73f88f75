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
"""

import functools

import numpy as np

from pqt.composite import LocalSetting, lift_local
from pqt.hilbert import StateVector, pauli_matrix, pauli_phases
from pqt.measurement import Observable


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
