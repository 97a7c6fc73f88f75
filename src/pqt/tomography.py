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

Every frame is a :class:`Frame`: one observable per row, with the
``(k, m)`` outcome ``values`` and ``names``, and no observable has an
object, a dense matrix or a projector of its own.  Each has at most three
outcomes, so the projector onto each is a Lagrange polynomial in O,
c0 + c1 O + c2 O^2, and its Born probability is c0 + c1 <O> + c2 <O^2>.
The factory that builds a frame picks its kernel for <O> and for the
inversion terms:

- A :class:`PauliFrame` (power-of-two dimension): the strings that share
  an x-mask differ only by Walsh signs, so every <S> on a state is read
  off one unnormalised Walsh-Hadamard transform of a d x d array, and the
  terms of a linear inversion are one transform back (Hantzko, Binkowski
  & Gupta, arXiv:2310.13421): n butterfly passes over d^2 entries,
  O(d^2 log d), from a d x d plan.
- A :class:`GellMannFrame` (the generalised Gell-Mann basis): each
  observable reads at most two entries of rho (Bertlmann & Krammer), so a
  plan of the ``(low, high)`` index arrays of the pairs and the ``(d - 1,
  d)`` weight block of the diag rows gives every <O> from those entries and
  the populations, O(d^2) in all, and inversion scatters each pair's means
  into its two entries and adds the diag block to the diagonal.

A Gell-Mann inversion has the bits of the dense observable-by-observable
sum, and Gell-Mann Born rows agree with the dense definitions within 2 d eps
(d the dimension, eps the float64 epsilon), as the plan sums entries and
populations in another order.  Pauli inversions and Born rows sum in
butterfly order and agree with the dense definitions within 4 n eps (n qubits).
Inversion adds to a stack of matrices at once, one per row of a ``(T, k)``
array of means, each row by the same operations as alone, so a single
reconstruction is a stack of one, bit for bit.
:func:`ic_set_for_dimension` returns one shared, immutable frame per
dimension.  Estimates come back as ``(k,)`` arrays of means and
half-widths aligned with ``names``.

Every observable of a frame is sampled by one row-wise sampler: the
frame's Born rows on each state are checked once into one CDF table (see
:mod:`pqt.measurement`), the counting kernel draws every row's outcome
counts of ``shots`` measurements in one multinomial draw, and each row's
mean and spread are computed from its counts.  Neither time nor memory
grows with ``shots``.  Rows for a block of trials are gathered from the
checked table, never checked again.  A frame names its own rows: its row
r is the readout ``frame[r]``, made only when a refusal names it, and
under the sampler's rule (row r of a table is named by ``readouts[r %
len(readouts)]``) the frame names each block of its k rows gathered state
after state.  The counts of a block of trials become ``_frame_purities``,
proper-vs-improper's purity of each trial's physical estimate.

Statistical noise can push the raw estimate outside the state set, so a
Euclidean projection onto the probability simplex of its spectrum restores
physicality: a ``(T, d, d)`` stack takes one batched ``eigh`` and one simplex
search over every spectrum.  A purity needs only the projected spectrum p,
sum_i p_i^2, so ``_frame_purities`` takes ``eigvalsh`` and builds no estimate.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .hilbert import _I_POWERS, DensityOperator, State, StateVector, _Record, fidelity
from .measurement import (
    InsufficientShotsError,
    Observable,
    PSystem,
    _cdf_counts,
    _cdf_table,
    _CdfTable,
    _Readout,
    born_distribution,
)

CONFIDENCE_Z = 1.96
MAX_IC_DIMENSION = 64
_HALF_ROOT = 1.0 / np.sqrt(2.0)  # the nonzero entries of sym and anti, up to i
_HALF_SQUARE = _HALF_ROOT**2  # their squared magnitudes: 0.4999999999999999, not 0.5


class Frame(_Record):
    """Traceless observables, one per row, with ``names``, ``norm``, outcome ``values`` and projector ``lagrange``.

    Each observable has at most three outcomes, so each outcome's projector
    is a Lagrange polynomial in O: P_j = c0 + c1 O + c2 O^2, with
    (c0, c1, c2) the ``lagrange`` entries of its row and column.  A subclass
    names these four slots first, then the arrays its kernel reads, and
    gives ``dim``, ``born_rows`` and ``add_terms``.
    """

    __slots__ = ()

    def __init__(self, *fields):
        _Record.__init__(self, *fields)
        for array in fields[2:]:  # every array, read-only: a frame is shared by every run that asks for it
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, row: int) -> _Readout:
        """What a refusal names of observable ``row``: its name and outcome values, zero-padded to the widest row."""
        return _Readout(self.names[row], tuple(self.values[row].tolist()))


class PauliFrame(Frame):
    """The non-identity Pauli strings on n qubits, with norm d = 2^n and outcomes -1 and +1, served by a Walsh-Hadamard plan.

    The string S_{m,z} with x-mask m and z-mask z maps |x> to
    i^popcount(m & z) (-1)^popcount(x & z) |x ^ m>.  Its row of the frame
    reads entry (z, m) of a d x d grid, flat index ``order`` = z * d + m,
    with the power of i in ``powers``; ``flips`` is the d x d table x ^ m.
    """

    __slots__ = (
        "names",
        "norm",
        "values",  # (k, 2): -1 and +1 in every row
        "lagrange",  # (3, k, 2): P_-+ = (1 -/+ S) / 2, the same in every row
        "order",  # (k,) intp: z * d + m of each string, in frame order
        "powers",  # (k,) complex: i^popcount(m & z) of each string, in frame order
        "flips",  # (d, d) intp: x ^ m at (x, m)
    )

    @property
    def dim(self) -> int:
        return self.flips.shape[0]

    def born_rows(self, state: State) -> np.ndarray:
        """The ``(k, 2)`` Born probabilities (1 -/+ <S>)/2 of every string on ``state``, from one transform: O(d^2 log d).

        <S_{m,z}> is i^popcount(m & z) times entry (z, m) of the transform
        over x of W[x, m]: conj(psi[x ^ m]) psi[x] on a state vector, and
        rho[x, x ^ m] on a density operator.
        """
        if isinstance(state, StateVector):
            terms = state.amplitudes.conj().take(self.flips) * state.amplitudes[:, None]
        else:
            terms = np.take_along_axis(state.matrix, self.flips, axis=1)
        expectations = (_walsh_hadamard(terms).take(self.order) * self.powers).real
        c0, c1 = self.lagrange[:2, 0]  # the same in every row
        rows = np.multiply.outer(c1, expectations)  # (2, k): each outcome a contiguous run, not k runs of 2
        rows += c0[:, None]
        return rows.T

    def add_terms(self, out: np.ndarray, means: np.ndarray) -> None:
        """Add sum_k means[..., k] * S_k / norm to each matrix of the C-contiguous ``(..., d, d)`` stack ``out``, in place.

        The strings with x-mask m add to the entries (x ^ m, x) the transform
        over z of i^popcount(m & z) means[..., (m, z)] / norm: one transform
        of a d x d grid per matrix, each by the operations it takes alone.
        """
        d = self.dim
        grids = np.zeros((means.size // len(self), d * d), dtype=complex)
        grids[:, self.order] = means.reshape(len(grids), -1) * (self.powers / self.norm)  # norm is a power of two: exact
        terms = _walsh_hadamard(grids.reshape(-1, d, d))
        stack = out.reshape(terms.shape)
        stack += terms[:, np.arange(d), self.flips]  # entry (r, c) takes (x, m) = (c, c ^ r)


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """The unnormalised Walsh-Hadamard transform over axis -2 of the C-contiguous ``(..., d, c)`` array ``a``, in place.

    Row z becomes sum_x (-1)^popcount(x & z) a[..., x, :], by one butterfly
    pass per bit: rows x + h and x for each x with bit h clear become their
    sum and difference.  The c columns ride along as one contiguous run, and
    every matrix of the stack takes the operations it takes alone.  Returns ``a``.
    """
    half = 1
    while half < a.shape[-2]:
        pairs = a.reshape(-1, 2, half * a.shape[-1])
        low, high = pairs[:, 0], pairs[:, 1]
        total = low + high
        np.subtract(low, high, out=high)
        low[...] = total
        half *= 2
    return a


class GellMannFrame(Frame):
    """The generalised Gell-Mann basis in dimension d, with norm 1, served by an entry plan.

    Rows 2p and 2p + 1 are sym and anti of the pair (j, k) = (``low[p]``,
    ``high[p]``), and read only rho[j, k] and rho[k, j]; the last d - 1 rows
    are diag_l, l = 1..d-1, and read only the populations, weighted by row
    l - 1 of ``weights``: 1/sqrt(l(l+1)) left of column l, -l/sqrt(l(l+1)) at it.
    """

    __slots__ = (
        "names",
        "norm",
        "values",  # (k, m) outcome values, ascending, each row zero-padded to the widest
        "lagrange",  # (3, k, m) coefficients of each outcome's projector, zero on padding
        "low",  # (d(d-1)/2,) intp: j of each pair, in frame order
        "high",  # (d(d-1)/2,) intp: k > j of each pair, in frame order
        "weights",  # (d - 1, d) float: diag_l's diagonal in row l - 1
    )

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    def born_rows(self, state: State) -> np.ndarray:
        """The ``(k, m)`` Born probabilities c0 + c1 <O> + c2 <O^2> of every observable on ``state``: O(d^2) in all.

        <sym_jk> and <anti_jk> are the real and imaginary parts of
        (rho[k, j] + conj(rho[j, k])) / sqrt(2), each entry scaled before the
        sum, and 2 psi[k] conj(psi[j]) / sqrt(2) on a state vector.  O^2 is
        diagonal: |1/sqrt(2)|^2 at j and k for a pair, and the squared weights
        for diag_l.  <diag_l> and <diag_l^2> are products of the weight block
        with the populations |psi[x]|^2 (or rho[x, x]); the squares are taken
        only when ``values`` has three columns.
        """
        pairs = 2 * len(self.low)
        if isinstance(state, StateVector):
            amplitudes = state.amplitudes
            populations = np.abs(amplitudes) ** 2
            entries = amplitudes[self.high] * amplitudes[self.low].conj() * (2.0 * _HALF_ROOT)
        else:
            scaled = state.matrix * _HALF_ROOT
            populations = state.matrix.diagonal().real
            entries = (scaled + scaled.T.conj())[self.high, self.low]
        moments = np.empty((2, len(self), 1))  # <O> and, for three outcomes, <O^2>
        moments[0, :pairs, 0] = entries.view(float)  # sym and anti of each pair, in frame order
        moments[0, pairs:, 0] = self.weights @ populations
        out = self.lagrange[0] + self.lagrange[1] * moments[0]
        if self.values.shape[1] == 2:
            return out
        weighted = _HALF_SQUARE * populations
        moments[1, :pairs:2, 0] = moments[1, 1:pairs:2, 0] = weighted[self.low] + weighted[self.high]
        moments[1, pairs:, 0] = np.square(self.weights) @ populations
        return out + self.lagrange[2] * moments[1]

    def add_terms(self, out: np.ndarray, means: np.ndarray) -> None:
        """Add sum_k means[..., k] * O_k / norm to each matrix of the C-contiguous ``(..., d, d)`` stack ``out``, in place.

        A pair's two means over sqrt(2) are the real and imaginary parts of its
        term at (k, j), and their conjugate is its term at (j, k): one stack of
        these is added to ``out``.  The diag terms add to the real diagonal with
        one unbuffered ``np.add.at`` in frame order.  Each entry takes the terms
        of the observables that reach it in frame order, with the bits of the
        observable-by-observable dense sum, and every matrix of the stack takes
        the operations it takes alone.
        """
        d, pairs = self.dim, 2 * len(self.low)
        entries = (means[..., :pairs] * _HALF_ROOT).view(complex)  # norm is 1: (sym + i anti) / sqrt(2) per pair
        scattered = np.zeros_like(out)
        scattered[..., self.high, self.low] = entries
        scattered[..., self.low, self.high] = entries.conj()
        out += scattered
        terms = means[..., pairs:, None] * self.weights  # (..., d - 1, d): diag_l's terms in row l - 1
        reals = out.reshape(-1).view(float)
        columns = np.arange((d - 1) * d) % d  # x of each term, level after level; 2 (d + 1) x is the real part of (x, x)
        np.add.at(reals, (np.arange(0, reals.size, 2 * d * d)[:, None] + 2 * (d + 1) * columns).ravel(), terms.ravel())


def _lagrange(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ``(3, k, m)`` coefficients of P_j = prod_{i != j} (O - v_i) / (v_j - v_i), over the first ``sizes`` outcomes of each row.

    Each factor multiplies by the reciprocal 1 / (v_j - v_i), so a state with
    <O> = v_i gives P_j weight exactly 0 when O has two outcomes.
    Coefficients are multiplied in place, c2 before c1 before c0, so that each
    update reads the coefficients below it before they change, and no
    temporary is larger than ``values``.
    """
    columns = np.arange(values.shape[1])
    real = columns < sizes[:, None]
    lagrange = np.zeros((3, *values.shape))
    c0, c1, c2 = lagrange
    c0[real] = 1.0
    for i in columns:
        factor = real & real[:, i, None] & (columns != i)
        v = values[:, i, None]
        scale = 1.0 / np.where(factor, values - v, 1.0)
        np.copyto(c2, (c1 - v * c2) * scale, where=factor)
        np.copyto(c1, (c0 - v * c1) * scale, where=factor)
        np.copyto(c0, -v * c0 * scale, where=factor)
    return lagrange


class ReconstructionResult(_Record):
    """``raw_estimate`` has unit trace by construction (see linear_inversion); ``means`` and ``half_widths`` are
    (k,): the estimated expectation of each observable, in frame order, and its normal-approximation half-width."""

    __slots__ = ("estimate", "raw_estimate", "means", "half_widths")


def pauli_ic_set(n_qubits: int) -> PauliFrame:
    """All non-identity Pauli strings on n qubits, with norm 2^n, in label order.

    Row k - 1 is the string whose letters are the base-4 digits of k
    (I, X, Y, Z = 0..3, first letter most significant), as
    ``itertools.product("IXYZ", repeat=n)`` lists them.  X and Y set a bit
    of its x-mask and Y and Z a bit of its z-mask (Aaronson & Gottesman,
    quant-ph/0406196), so its power of i counts its Ys.  The plan is built
    as whole arrays; no string has an object, a dense matrix or a projector
    of its own.  Every string has outcomes -1 and +1, with Born
    probabilities (1 -/+ <S>)/2.
    """
    if not 1 <= n_qubits <= 6:
        raise ValueError("supported range is 1..6 qubits")
    names = tuple(map("".join, itertools.islice(itertools.product("IXYZ", repeat=n_qubits), 1, None)))
    dim = 2**n_qubits
    index = np.arange(1, dim * dim, dtype=np.uint16)  # below 2^12: the loop's temporaries take 8 KB each
    x_masks = z_masks = y_counts = 0
    for shift in range(2 * n_qubits - 2, -1, -2):
        digit = (index >> shift) & 3
        z_bit = digit >> 1
        x_masks = 2 * x_masks + ((digit ^ z_bit) & 1)
        z_masks = 2 * z_masks + z_bit
        y_counts = y_counts + (digit == 2)
    columns = np.arange(dim)
    values = np.broadcast_to([-1.0, 1.0], (len(index), 2))
    lagrange = np.broadcast_to(_lagrange(values[:1], np.array([2])), (3, *values.shape))
    order, powers = np.add(z_masks * dim, x_masks, dtype=np.intp), np.array(_I_POWERS).take(y_counts % 4)
    return PauliFrame(names, float(dim), values, lagrange, order, powers, columns ^ columns[:, None])


def hermitian_basis_ic_set(dim: int) -> GellMannFrame:
    """Generalised Gell-Mann basis for arbitrary dimension, with norm 1.

    Orthonormality under the trace inner product gives
    rho = I/d + sum <G_k> G_k.  For each pair j < k (k outer, j inner),
    sym_jk = (|j><k| + |k><j|)/sqrt(2) and anti_jk = i(|k><j| - |j><k|)/sqrt(2),
    with outcomes -1/sqrt(2), 0 (for d >= 3) and 1/sqrt(2); then for each level
    l, diag_l = (sum_{x<l} |x><x| - l |l><l|)/sqrt(l(l+1)), with outcomes
    -l/sqrt(l(l+1)), 0 (for l < d - 1) and 1/sqrt(l(l+1)).  The frame is built
    as its entry plan, with no dense matrix and no eigendecomposition.  Every
    pair has the outcomes of the first, so the projector coefficients are
    computed for d distinct rows, the pairs' and each diag_l's, and taken into
    frame order.
    """
    if not 2 <= dim <= MAX_IC_DIMENSION:
        raise ValueError(f"supported range is dimension 2..{MAX_IC_DIMENSION}")
    high, low = np.tril_indices(dim, -1)
    columns, ls = np.arange(dim), np.arange(1, dim)
    # Divided as complex, as the dense matrices are: each numerator times 1/sqrt(l(l+1)).
    plus, minus = (np.stack((np.ones(dim - 1), -ls.astype(float))).astype(complex) / np.sqrt(ls * (ls + 1))).real

    digits = list(map(str, range(dim)))  # names joined from these take ~0.6 of the time of f-strings
    pairs = (digits[j] + "_" + digits[k] for j, k in zip(low.tolist(), high.tolist()))
    names = [kind + pair for pair in pairs for kind in ("sym", "anti")]
    names += [f"diag{level}" for level in range(1, dim)]

    sizes = np.full(dim, min(dim, 3))  # the pairs' row, then diag_1 .. diag_{d-1}
    sizes[-1] = 2  # diag_{d-1} has no zero outcome
    distinct = np.zeros((dim, sizes[0]))
    distinct[0, 0], distinct[0, -1] = -_HALF_ROOT, _HALF_ROOT
    distinct[1:, 0], distinct[ls, sizes[1:] - 1] = minus, plus
    shared = np.concatenate((np.zeros(2 * len(low), dtype=np.intp), ls))  # each observable's row of ``distinct``
    weights = np.where(columns < ls[:, None], plus[:, None], np.where(columns == ls[:, None], minus[:, None], 0.0))
    return GellMannFrame(tuple(names), 1.0, distinct[shared], _lagrange(distinct, sizes)[:, shared], low, high, weights)


@functools.lru_cache(maxsize=8)
def ic_set_for_dimension(dim: int) -> Frame:
    """Pauli strings for a power-of-two dimension, the generalised Gell-Mann basis otherwise.

    Frames are immutable, so each dimension is built once and the same
    object is returned to every caller.
    """
    if not 2 <= dim <= MAX_IC_DIMENSION:
        raise ValueError(f"supported range is dimension 2..{MAX_IC_DIMENSION}")
    n_qubits = dim.bit_length() - 1
    if 2**n_qubits == dim:
        return pauli_ic_set(n_qubits)
    return hermitian_basis_ic_set(dim)


def estimate_expectations(sys: PSystem, ic: Frame, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimate every IC expectation by repeated measurement of one system.

    Returns the sample means and their normal-approximation half-widths,
    two ``(k,)`` arrays aligned with ``ic.names``.  Only valid in passive
    mode: reusing a single copy requires that measurements leave the state
    alone.  The system's state is unchanged afterwards.
    """
    if sys.mode != "passive":
        raise ValueError("single-copy estimation requires passive mode")
    means, spreads = _sample_frame(sys, ic, shots)
    return means, CONFIDENCE_Z * spreads / np.sqrt(shots)


def _frame_table(frame: Frame, *states: State) -> _CdfTable:
    """Born probabilities of every observable of ``frame`` on each state in turn, checked once into one table.

    The k rows of state s are rows s*k to s*k + k - 1.  A row with fewer
    outcomes than the widest is padded with zero weight and value: the
    padding is never drawn, so it adds nothing to a row's sums.
    """
    for state in states:
        if frame.dim != state.dim:
            raise ValueError(f"dimension mismatch: observable {frame.dim}, state {state.dim}")
    return _cdf_table(np.concatenate([frame.born_rows(state) for state in states]))


def _frame_means(counts: np.ndarray, values: np.ndarray, shots: int) -> np.ndarray:
    """The mean outcome of each row of ``shots`` draws from its counts c_j of values v_j: sum_j c_j v_j / shots."""
    return (counts * values).sum(axis=-1) / shots


def _sample_frame(sys: PSystem, ic: Frame, shots: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation of ``shots`` passive draws of every observable of ``ic`` on the system.

    Rows are drawn and counted by ``_cdf_counts`` in frame order.  From the counts
    c_j of a row's values v_j, mean = sum_j c_j v_j / shots and spread =
    sqrt(sum_j c_j (v_j - mean)^2 / shots).  A Pauli mean is exact, so it equals
    ``np.mean`` of the outcomes; other means and the spreads can differ from
    ``np.mean`` and ``np.std`` in the last bits, as their sums run in another order.
    """
    counts = _cdf_counts(_frame_table(ic, sys.state), sys.rng, shots, ic, "passive")
    means = _frame_means(counts, ic.values, shots)
    return means, np.sqrt((counts * (ic.values - means[:, None]) ** 2).sum(axis=1) / shots)


def _frame_purities(counts: np.ndarray, ic: Frame, shots: int) -> np.ndarray:
    """``_projected_purities`` of each trial's linear inversion, a ``(T,)`` array, from ``(T * k, m)`` counts of
    ``shots`` per row: trial t holds rows t*k to t*k + k - 1, one per observable of ``ic``, with that row's values."""
    means = _frame_means(counts.reshape(-1, *ic.values.shape), ic.values, shots)
    return _projected_purities(_inversion_stack(means, ic))


def _inversion_stack(means: np.ndarray, ic: Frame) -> np.ndarray:
    """I/d + sum_k means[..., k] O_k / norm for each row of a ``(..., k)`` array of means: a ``(..., d, d)`` stack."""
    out = np.broadcast_to(np.eye(ic.dim, dtype=complex) / ic.dim, (*means.shape[:-1], ic.dim, ic.dim)).copy()
    ic.add_terms(out, means)
    return out


def linear_inversion(means, ic: Frame) -> np.ndarray:
    """Invert estimated expectations: I/d + sum_k <O_k> O_k / norm.

    ``means`` holds one estimated expectation per observable, aligned with
    ``ic.names``.  The output has unit trace by construction but may fail
    positivity.
    """
    means = np.asarray(means, dtype=float)
    if means.shape != (len(ic),):
        raise ValueError(f"got {means.size} estimates for {len(ic)} observables")
    return _inversion_stack(means, ic)


def _checked_hermitian(matrices: np.ndarray) -> np.ndarray:
    """The Hermitian part of each matrix of a ``(..., d, d)`` stack; the first with a non-finite entry, or with a
    trace further than 0.1 from 1, raises."""
    mats = np.asarray(matrices, dtype=complex)
    if not np.isfinite(mats).all():
        raise ValueError("density operator entries are not finite")
    mats = (mats + mats.conj().swapaxes(-1, -2)) / 2.0
    traces = np.trace(mats, axis1=-2, axis2=-1).real
    far = np.abs(traces - 1.0) > 0.1
    if far.any():
        raise ValueError(f"trace {float(traces[far].flat[0])!r} is too far from 1 to project")
    return mats


def _simplex(values: np.ndarray) -> np.ndarray:
    """Each ascending spectrum of a ``(..., d)`` array projected onto the probability simplex: sort descending, keep
    the largest k with u_k + (1 - sum_{i<=k} u_i)/k > 0, shift by (1 - sum_{i<=k} u_i)/k and clip at 0."""
    descending = values[..., ::-1]
    cumulative = np.cumsum(descending, axis=-1)
    kept = descending + (1.0 - cumulative) / np.arange(1, descending.shape[-1] + 1) > 0.0
    k = descending.shape[-1] - np.argmax(kept[..., ::-1], axis=-1)[..., None]  # the largest k that is kept
    shift = (1.0 - np.take_along_axis(cumulative, k - 1, axis=-1)) / k
    return np.clip(values + shift, 0.0, None)


def _projection_stack(matrices: np.ndarray) -> np.ndarray:
    """The closest density operator in Frobenius norm to each matrix of a ``(..., d, d)`` stack: its checked Hermitian
    part's spectrum, projected by ``_simplex``, rebuilt with the original eigenvectors."""
    values, vectors = np.linalg.eigh(_checked_hermitian(matrices))  # ascending, as _simplex takes them
    return (vectors * _simplex(values)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def _projected_purities(matrices: np.ndarray) -> np.ndarray:
    """Tr(P^2) of each ``P = _projection_stack(matrices)``: the projection moves only the spectrum, so sum_i p_i^2."""
    projected = _simplex(np.linalg.eigvalsh(_checked_hermitian(matrices)))
    return (projected**2).sum(axis=-1)


def project_to_physical(matrix: np.ndarray) -> DensityOperator:
    """Closest density operator in Frobenius norm: ``_projection_stack`` of one matrix."""
    rebuilt = _projection_stack(matrix)
    # A state by construction, so no re-check: the spectrum is clipped non-negative with sum 1,
    # and V diag(p) V^dag with unitary V is Hermitian and unit-trace up to rounding.
    return DensityOperator._unchecked(rebuilt, (rebuilt.shape[0],))


def reconstruct_single_copy(sys: PSystem, ic: Frame, shots: int) -> ReconstructionResult:
    """Full pipeline: estimate expectations, invert, restore physicality."""
    means, half_widths = estimate_expectations(sys, ic, shots)
    raw = linear_inversion(means, ic)
    return ReconstructionResult(project_to_physical(raw), raw, means, half_widths)


def discriminate(sys: PSystem, candidates: list[StateVector], ic: Frame, shots: int) -> int:
    """Identify which candidate the system is in, from the single copy.

    Reconstructs and returns the index of the candidate with the highest
    fidelity to the estimate.  Candidates must be pairwise ray-distinct;
    a fidelity tie means the measurement record cannot separate them yet.
    """
    if sys.mode != "passive":
        raise ValueError("single-copy discrimination requires passive mode")
    if len(candidates) < 2:
        raise ValueError(f"need at least two candidates, got {len(candidates)}")
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
    missed with probability (1 - p)^shots.  Only the shots' outcome
    counts are drawn, as one multinomial draw, so neither time nor
    memory grows with ``shots``.
    """
    if sys.mode != "passive":
        raise ValueError("spectrum estimation by repetition requires passive mode")
    drawn = np.flatnonzero(_cdf_counts(born_distribution(obs, sys.state).cdf, sys.rng, shots, (obs,), "passive")[0])
    return sorted(obs.eigenvalues[index] for index in drawn.tolist())
