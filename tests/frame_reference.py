"""A per-string reference for Pauli frames: every string measured on its own.

A :class:`ReferencePauliString` holds one string's bit-flip mask, column
phases and rows x ^ x_mask, built from ``hilbert.pauli_phases(label)``.  Its
expectation is one ``np.vdot`` (state vector) or ``np.sum`` (density
operator) over them, and its Born probabilities are (1 -/+ <S>)/2.  It has
the ``name``, ``dim``, ``eigenvalues`` and ``outcome_probabilities`` that
``born_distribution`` and ``repeated_measure`` read, so a test can measure a
frame string by string and compare the library's whole-frame arrays with it.
"""

import numpy as np

from pqt.hilbert import StateVector, pauli_phases
from pqt.tomography import PauliFrame


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


def frame_observables(ic):
    """The observables of a frame one by one: a reference string per Pauli label, or a dense frame's own."""
    if isinstance(ic, PauliFrame):
        return [ReferencePauliString(name) for name in ic.names]
    return list(ic.observables)
