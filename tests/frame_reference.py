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

A :class:`ColumnFrame` is the column kernel both frame families ran before
they had plans of their own: an observable with at most one nonzero per
column, O|x> = phase[x] |rows[x]>, held as ``(k, d)`` byte arrays, with Born
rows from a block loop of O(d) products and inversion by one unbuffered
``np.add.at`` per block.  It is the reference for both kernels of the library.
``column_pauli_frame(n)`` is the Pauli frame as a ``ColumnFrame``, the
reference that ``PauliFrame``'s transforms are checked against within 4 n eps;
``column_gell_mann_frame(ic)`` is a Gell-Mann frame as one, the reference that
``GellMannFrame``'s entry plan is checked against: inversion bit for bit, Born
rows within 2 d eps.
"""

import functools

import numpy as np

from pqt.composite import LocalSetting, lift_local
from pqt.hilbert import _I_POWERS, State, StateVector, _odd_parity, pauli_matrix, pauli_phases
from pqt.measurement import Observable
from pqt.tomography import Frame, pauli_ic_set

# Entries each temporary of ColumnFrame.born_rows and ColumnFrame.add_terms holds at most: 64 KiB as complex.  At 2**14 a
# column frame of 4095 observables on d = 64 peaked 0.7 MB higher in RSS and ran no faster (numpy 2.4.6, glibc malloc).
_BORN_BLOCK_ENTRIES = 2**12


class ColumnFrame(Frame):
    """Observables with at most one nonzero per column, one per row of ``(k, d)`` arrays: O|x> = phase[x] |rows[x]>.

    The phases take few distinct values, so a frame holds them as ``levels``
    and byte ``codes``, phase[x] = levels[codes[x]]; ``rows`` holds bytes, and
    every entry index is computed in ``intp``.
    A column with no nonzero has phase 0 and row x.
    """

    __slots__ = (
        "names",
        "norm",
        "values",  # (k, m) outcome values, ascending, each row zero-padded to the widest
        "lagrange",  # (3, k, m) coefficients of each outcome's projector, zero on padding
        "levels",  # (n,) complex: the values the column phases take
        "codes",  # (k, d) uint8: phase[x] = levels[codes[x]], one observable per row
        "rows",  # (k, d) uint8: row of each column's nonzero
    )

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    def born_rows(self, state: State) -> np.ndarray:
        """The ``(k, m)`` Born probabilities c0 + c1 <O> + c2 <O^2> of every observable on ``state``, O(d) each.

        <O> = sum_x conj(psi[rows[x]]) phase[x] psi[x] on a state vector, a
        stack of (1, d) @ (d, 1) products with the bits of ``np.vdot``, and
        sum_x phase[x] rho[x, rows[x]] on a density operator, with the bits of
        ``np.sum`` of each observable's d terms.  O^2 is diagonal with entries
        |phase[x]|^2, so <O^2> weighs the populations |psi[x]|^2 (or rho[x, x]);
        it is taken only when ``values`` has three columns.  Observables are taken
        a block at a time, so that no temporary holds more than
        ``_BORN_BLOCK_ENTRIES`` entries.
        """
        squares, vector = self.values.shape[1] > 2, isinstance(state, StateVector)
        if squares:
            populations = np.abs(state.amplitudes) ** 2 if vector else state.matrix.diagonal().real
        if vector:
            conj = state.amplitudes.conj()
        else:
            entries = state.matrix.ravel()
            firsts = np.arange(0, entries.size, self.dim)  # entry x * d + rows[x] is rho[x, rows[x]]
        moments = np.empty((2, len(self), 1))  # <O> and, for three outcomes, <O^2>
        step = max(1, _BORN_BLOCK_ENTRIES // self.dim)
        for start in range(0, len(self), step):
            rows, phase = self.rows[start : start + step], self.levels.take(self.codes[start : start + step])
            if vector:
                block = (conj.take(rows)[:, None, :] @ (phase * state.amplitudes)[:, :, None])[:, 0, 0]
            else:
                block = (phase * entries.take(firsts + rows)).sum(axis=1)
            moments[0, start : start + step, 0] = block.real
            if squares:
                moments[1, start : start + step, 0] = np.abs(phase) ** 2 @ populations
        c0, c1, c2 = self.lagrange
        out = c0 + c1 * moments[0]
        return out + c2 * moments[1] if squares else out

    def add_terms(self, out: np.ndarray, means: np.ndarray) -> None:
        """Add sum_k means[..., k] * O_k / norm to each matrix of the C-contiguous ``(..., d, d)`` stack ``out``, in place.

        Term k adds means[..., k] * phase[k, x] / norm to entry (rows[k, x], x),
        with phase / norm looked up from levels / norm.  ``np.add.at`` is
        unbuffered and adds in index order, so every entry takes its terms in
        frame order, with the bits of the observable-by-observable dense sum.
        Observables are added a block at a time, so that no temporary holds
        more than ``_BORN_BLOCK_ENTRIES`` entries per matrix.
        """
        k, d = self.codes.shape
        flat, means = out.reshape(-1), means.reshape(-1, k)
        firsts = np.arange(0, flat.size, d * d)[:, None, None] + np.arange(d)  # entry (0, x) of each matrix
        scaled = self.levels / self.norm
        step = max(1, _BORN_BLOCK_ENTRIES // (len(means) * d))
        for start in range(0, k, step):
            block = slice(start, start + step)
            entries = firsts + np.multiply(self.rows[block], d, dtype=np.intp)
            terms = means[:, block, None] * scaled.take(self.codes[block])
            np.add.at(flat, entries.ravel(), terms.ravel())  # one-dimensional: numpy's fast path


def column_gell_mann_frame(ic):
    """A Gell-Mann frame (or side A's, named ``xI``) as a ``ColumnFrame``: its names, values and projector coefficients,
    with the phase codes and rows of each matrix.  Its 2d + 2 phase levels are 0, 1/sqrt(2), +-i/sqrt(2), then
    1/sqrt(l(l+1)) and -l/sqrt(l(l+1)) for each level l, as each diag row's ``weights`` hold them."""
    dim, low, high = ic.dim, ic.low, ic.high
    pairs, columns, ls = np.arange(len(high)), np.arange(dim), np.arange(1, dim)
    sym, anti, diag = 2 * pairs, 2 * pairs + 1, 2 * len(high) + columns[:-1]
    plus, minus = ic.weights[ls - 1, 0], ic.weights[ls - 1, ls]
    levels = np.concatenate(([0.0, 1.0 / np.sqrt(2.0), 1.0j / np.sqrt(2.0), -1.0j / np.sqrt(2.0)], plus, minus))
    codes = np.zeros((len(ic), dim), dtype=np.uint8)
    codes[sym, low] = codes[sym, high] = 1
    codes[anti, low], codes[anti, high] = 2, 3
    level = ls[:, None]  # diag_l takes plus[l - 1] (code 3 + l) left of column l and minus[l - 1] (code 2 + d + l) at it
    codes[diag] = np.where(columns < level, 3 + level, np.where(columns == level, 2 + dim + level, 0))
    rows = np.tile(columns.astype(np.uint8), (len(codes), 1))
    for members in (sym, anti):
        rows[members, low], rows[members, high] = high, low
    return ColumnFrame(ic.names, ic.norm, ic.values, ic.lagrange, levels, codes, rows)


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
