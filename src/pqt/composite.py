"""Bipartite machinery: local vs. global measurements and their statistics.

A local observable O acts on one subsystem only: O tensor I has the
statistics of O on the reduced state Tr_B rho, so local statistics are
read from the reduced states.  Without collapse, two local
passive measurements cannot become correlated, so their joint table is
the product of the marginals; joint outcome probabilities
Tr[(P_a tensor Q_b) rho] are only accessible to a single global device.
Both devices are sampled the same way, from their analytic table: the
counts of all shots over the row-major (a, b) grid are one multinomial
draw, and CHSH's four tables are one draw of rows A1B1, A1B2, A2B1, A2B2.
Kronecker products are ``hilbert._kron``.  The analytic tables also serve
the no-signalling and local-indistinguishability checks, which are exact.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .hilbert import DensityOperator, SpectralDecomposition, State, StateVector, _kron, _Record, partial_trace
from .measurement import (
    Observable,
    PSystem,
    _basis_weights,
    _cdf_counts,
    _cdf_table,
    _PairReadout,
    _Readout,
    born_distribution,
)
from .tomography import GellMannFrame, hermitian_basis_ic_set, reconstruct_single_copy

PURITY_PRODUCT_THRESHOLD = 0.95
PURITY_ENTANGLED_THRESHOLD = 0.90
DICHOTOMIC_TOL = 1e-9
CHSH_SOURCES = ("global", "local-passive")
SIGNALLING_ACTIONS = ("none", "passive-measure", "quantum-measure-nonselective")


class LocalSetting(_Record):
    """An observable measured on one side of a bipartite system."""

    __slots__ = ("side", "observable")

    def __init__(self, side: str, observable: Observable):
        if side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
        self.side, self.observable = side, observable


class JointFrequencyTable(_Record):
    """Counts of joint (a, b) outcomes: ``counts`` is (len(a_values), len(b_values)) integers summing to ``shots``."""

    __slots__ = ("a_values", "b_values", "counts", "shots")
    __init__ = _Record.__init__  # a constructor of its own, which a profiler can wrap for this class alone

    def empirical(self) -> np.ndarray:
        return self.counts / self.shots

    def columns(self) -> list[list]:
        """The (a, b, count) table as three columns, one row per cell of ``counts`` in row-major order."""
        a = [value for value in self.a_values for _ in self.b_values]
        return [a, list(self.b_values) * len(self.a_values), self.counts.ravel().tolist()]


def lift_local(setting: LocalSetting, shape: tuple[int, int]) -> Observable:
    """Embed a subsystem observable into the bipartite space.

    The outcome structure is inherited: the eigenvectors V become
    V tensor I (side A) or I tensor V (side B, its columns regrouped so
    that each outcome's stay adjacent), with the subsystem eigenvalues
    unchanged.
    """
    if len(shape) != 2:
        raise ValueError(f"expected a bipartite shape, got {shape}")
    dim_a, dim_b = shape
    obs = setting.observable
    local = obs.decomposition
    if setting.side == "A":
        if obs.dim != dim_a:
            raise ValueError(f"observable dimension {obs.dim} does not match subsystem A ({dim_a})")
        vectors, copies = _kron(local.vectors, np.eye(dim_b)), dim_b
        name = f"{obs.name}xI"
    else:
        if obs.dim != dim_b:
            raise ValueError(f"observable dimension {obs.dim} does not match subsystem B ({dim_b})")
        vectors, copies = _kron(np.eye(dim_a), local.vectors), dim_a  # column i * dim_b + j is e_i tensor v_j
        vectors = vectors.reshape(-1, dim_a, dim_b).transpose(0, 2, 1).reshape(vectors.shape)  # now j * dim_a + i
        name = f"Ix{obs.name}"
    bounds = tuple(copies * bound for bound in local.bounds)
    return Observable.from_decomposition(name, SpectralDecomposition(local.eigenvalues, vectors, bounds))


def joint_distribution_global(state: State, a_obs: Observable, b_obs: Observable) -> np.ndarray:
    """Analytic joint probabilities p(a, b) = Tr[(P_a tensor Q_b) rho], refused as ``_check_sides`` refuses.

    The state's weight on each column of the product eigenbasis V_A tensor V_B, summed over the columns of each (a, b).
    """
    _check_sides(state.shape, a_obs, b_obs)
    side_a, side_b = a_obs.decomposition, b_obs.decomposition
    weights = _basis_weights(_kron(side_a.vectors, side_b.vectors), state).reshape(state.shape)
    cells = np.add.reduceat(np.add.reduceat(weights, side_a.bounds[:-1], axis=0), side_b.bounds[:-1], axis=1)
    return np.clip(cells, 0.0, None)


def joint_distribution_local_passive(state: State, a_obs: Observable, b_obs: Observable) -> np.ndarray:
    """Analytic joint table of two independent local passive measurements.

    Passive measurements do not correlate the sides, so the table is the
    product of the two local marginals.
    """
    (marg_a,), (marg_b,) = _local_marginals(state, (a_obs,), (b_obs,))
    return np.outer(marg_a, marg_b)


def _local_marginals(state: State, alice: tuple, bob: tuple) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Born probabilities of each of ``alice`` on side A and each of ``bob`` on side B, each side's reduced state taken once.

    Every pairing (a, b), in ``itertools.product`` order, is first refused as ``_check_sides`` refuses.
    """
    for a_obs, b_obs in itertools.product(alice, bob):
        _check_sides(state.shape, a_obs, b_obs)
    sides = ((alice, partial_trace(state, 0)), (bob, partial_trace(state, 1)))
    return tuple([born_distribution(obs, reduced).probabilities for obs in side] for side, reduced in sides)


def _check_sides(shape: tuple[int, ...], a_obs: Observable, b_obs: Observable) -> None:
    """Refuse, as ``lift_local`` does, a shape that is not bipartite or an observable of another dimension than its side."""
    if len(shape) != 2:
        raise ValueError(f"expected a bipartite shape, got {shape}")
    for side, obs, dim in zip("AB", (a_obs, b_obs), shape):
        if obs.dim != dim:
            raise ValueError(f"observable dimension {obs.dim} does not match subsystem {side} ({dim})")


def global_joint_sample(
    sys: PSystem,
    a_obs: Observable,
    b_obs: Observable,
    shots: int,
    ensemble: bool = False,
) -> JointFrequencyTable:
    """Sample joint outcomes with a single global device.

    Passive mode reuses the one system, which is left unchanged.  In
    quantum mode every shot collapses the state, so gathering statistics
    needs a fresh copy per shot; pass ``ensemble=True`` to consume
    copies of the current state (the system itself is not touched).
    """
    if len(sys.state.shape) != 2:
        raise ValueError("global joint sampling needs a bipartite system")
    if sys.mode == "quantum" and not ensemble:
        raise ValueError("ensemble required in quantum mode: a single copy collapses on the first shot")
    return _joint_samples(((a_obs, b_obs),), (_global_table(sys.state, a_obs, b_obs),), sys.rng, shots, sys.mode)[0]


def local_passive_joint_sample(
    sys: PSystem,
    a_setting: LocalSetting,
    b_setting: LocalSetting,
    shots: int,
) -> JointFrequencyTable:
    """Sample two local passive measurements per shot, independently.

    Without collapse the first local measurement cannot steer the
    second, so the shots' (a, b) pairs are counted over the row-major
    grid of the product of the two local marginals (the table of
    ``joint_distribution_local_passive``).  A drawn pair is refused as
    measuring A tensor I or I tensor B alone would refuse it.
    """
    if sys.mode != "passive":
        raise ValueError(
            "local joint sampling is passive-only: local quantum measurements "
            "collapse the state and correlate the sides"
        )
    if a_setting.side != "A" or b_setting.side != "B":
        raise ValueError("expected one setting for side A and one for side B")
    a_obs, b_obs = a_setting.observable, b_setting.observable
    (marg_a,), (marg_b,) = _local_marginals(sys.state, (a_obs,), (b_obs,))
    table = _local_passive_table((a_obs, marg_a), (b_obs, marg_b))
    return _joint_samples(((a_obs, b_obs),), (table,), sys.rng, shots, sys.mode)[0]


def _global_table(state: State, a_obs: Observable, b_obs: Observable) -> tuple[np.ndarray, _Readout]:
    """The joint table of one global device, and the readout naming its cells."""
    cells = _Readout(f"{a_obs.name}x{b_obs.name}", tuple(itertools.product(a_obs.eigenvalues, b_obs.eigenvalues)))
    return joint_distribution_global(state, a_obs, b_obs), cells


def _local_passive_table(a_side: tuple, b_side: tuple) -> tuple[np.ndarray, _PairReadout]:
    """The product of two local marginals, and the ``_PairReadout`` of the two sides: each side is (observable, marginal)."""
    (a_obs, marg_a), (b_obs, marg_b) = a_side, b_side
    sides = (_Readout(f"{a_obs.name}xI", a_obs.eigenvalues), _Readout(f"Ix{b_obs.name}", b_obs.eigenvalues))
    return np.outer(marg_a, marg_b), _PairReadout(sides, marg_a, marg_b)


def _joint_samples(settings, tables, rng: np.random.Generator, shots: int, mode: str) -> list[JointFrequencyTable]:
    """Count ``shots`` draws from each setting's ``_global_table`` or ``_local_passive_table``, as one multinomial draw.

    A narrower table is padded with zero weight before its cells (a cell readout with ``None``): numpy's multinomial
    draws a binomial for every column but the last unless its weight is zero, so each row draws as a call of its own.
    """
    width = max(probs.size for probs, _ in tables)
    rows, readouts = np.zeros((len(tables), width)), []
    for row, (probs, readout) in zip(rows, tables):
        row[width - probs.size :] = probs.ravel()
        if not isinstance(readout, _PairReadout):  # a pair reads the last columns of its row
            readout = _Readout(readout.name, (None,) * (width - probs.size) + readout.eigenvalues)
        readouts.append(readout)
    counts = _cdf_counts(_cdf_table(rows), rng, shots, readouts, mode)
    return [
        JointFrequencyTable(a_obs.eigenvalues, b_obs.eigenvalues, row[width - probs.size :].reshape(probs.shape), shots)
        for (a_obs, b_obs), (probs, _), row in zip(settings, tables, counts)
    ]


def non_dichotomic(values) -> list[float]:
    """The values further than ``DICHOTOMIC_TOL`` from both +1 and -1."""
    return [value for value in values if min(abs(value - 1.0), abs(value + 1.0)) > DICHOTOMIC_TOL]


def correlator(table: JointFrequencyTable) -> float:
    """E(a, b) = sum a.b.count / shots for dichotomic (+-1) outcomes."""
    offending = non_dichotomic((*table.a_values, *table.b_values))
    if offending:
        raise ValueError(f"correlator needs +-1 outcomes, got {offending[0]!r}")
    a = np.asarray(table.a_values)
    b = np.asarray(table.b_values)
    return float(np.einsum("i,j,ij->", a, b, table.empirical()))


def chsh_value(
    state: State,
    alice: tuple[Observable, Observable],
    bob: tuple[Observable, Observable],
    source: str,
    shots: int,
    rng: np.random.Generator,
) -> float:
    """S = E(A1 B1) + E(A1 B2) + E(A2 B1) - E(A2 B2) from sampled tables.

    ``source`` selects the sampling model: ``"global"`` draws from the
    joint outcome probabilities, ``"local-passive"`` from independent
    local marginals.  The four passive tables, A1B1, A1B2, A2B1, A2B2,
    are one draw from the provided stream, row after row, so each takes
    the stretch of the stream a sampler call of its own would take.
    """
    if source not in CHSH_SOURCES:
        raise ValueError(f"unknown source {source!r}; expected one of {CHSH_SOURCES}")
    settings = tuple(itertools.product(alice, bob))
    if source == "global":
        tables = [_global_table(state, *setting) for setting in settings]
    else:
        marg_a, marg_b = _local_marginals(state, alice, bob)  # each side reduced once, each marginal taken once
        tables = [_local_passive_table(*pair) for pair in itertools.product(zip(alice, marg_a), zip(bob, marg_b))]
    samples = _joint_samples(settings, tables, rng, shots, "passive")
    e11, e12, e21, e22 = (correlator(sample) for sample in samples)
    return e11 + e12 + e21 - e22


class EntanglementVerdict(_Record):
    __slots__ = ("verdict", "reduced_estimate", "purity")


def reconstruct_reduced_single_copy(sys: PSystem, shots: int) -> DensityOperator:
    """Estimate the reduced state of side A using local measurements only.

    Every observable O of side A's Gell-Mann frame is measured as
    O tensor I, ``shots`` times on the one passive system: its statistics
    are those of O on the reduced state, which follows by linear inversion
    and physicality projection.
    """
    if sys.mode != "passive":
        raise ValueError("single-copy reconstruction requires passive mode")
    shape = sys.state.shape
    if len(shape) != 2:
        raise ValueError("expected a bipartite system")
    reduced = PSystem(partial_trace(sys.state, 0), "passive", sys.rng)
    return reconstruct_single_copy(reduced, _local_ic_set(shape[0]), shots).estimate


@functools.lru_cache(maxsize=8)
def _local_ic_set(dim_a: int) -> GellMannFrame:
    """The Gell-Mann frame of side A, each name suffixed ``xI`` for the A tensor I it is measured as, on the same plan;
    built once per dimension."""
    ic = hermitian_basis_ic_set(dim_a)
    return GellMannFrame(tuple(f"{name}xI" for name in ic.names), *ic._fields()[1:])


def detect_entanglement_single_copy(sys: PSystem, shots: int) -> EntanglementVerdict:
    """Classify a bipartite pure state as product or entangled, from one copy.

    Reconstructs the reduced state of side A by repeated passive
    measurement of local observables only, then thresholds its purity:
    >= 0.95 product, <= 0.90 entangled, otherwise inconclusive (no guess
    is made near the statistical boundary).
    """
    if not isinstance(sys.state, StateVector) or len(sys.state.shape) != 2:
        raise ValueError("expected a bipartite pure state")
    estimate = reconstruct_reduced_single_copy(sys, shots)
    purity = estimate.purity()
    if purity >= PURITY_PRODUCT_THRESHOLD:
        verdict = "product"
    elif purity <= PURITY_ENTANGLED_THRESHOLD:
        verdict = "entangled"
    else:
        verdict = "inconclusive"
    return EntanglementVerdict(verdict, estimate, purity)


class SignallingReport(_Record):
    __slots__ = ("marginal_without", "marginal_with", "tv_distance")


def signalling_check(
    state: State,
    action: str,
    b_obs: Observable,
    a_obs: Observable | None = None,
) -> SignallingReport:
    """Compare B's outcome distribution with and without A's action, analytically.

    A passive measurement on side A leaves the state object untouched,
    so the two marginals are the same floats and the distance is zero
    exactly.  A non-selective quantum measurement replaces the state by
    sum_r (P_r tensor I) rho (P_r tensor I), whose B marginal agrees up
    to roundoff.
    """
    if action not in SIGNALLING_ACTIONS:
        raise ValueError(f"unknown action {action!r}; expected one of {SIGNALLING_ACTIONS}")
    if action != "none" and a_obs is None:
        raise ValueError(f"action {action!r} needs an observable on side A")
    shape = state.shape
    if len(shape) != 2:
        raise ValueError("signalling check needs a bipartite state")

    lifted_b = lift_local(LocalSetting("B", b_obs), shape)
    without = born_distribution(lifted_b, state)

    if action in ("none", "passive-measure"):
        with_action = without  # no state update in either case: same state, same marginal
    else:
        lifted_a = lift_local(LocalSetting("A", a_obs), shape)
        matrix = state.projector() if isinstance(state, StateVector) else state.matrix
        blocks = (lifted_a.decomposition.block(r) for r in range(len(lifted_a.eigenvalues)))
        updated = sum(block @ (block.conj().T @ matrix @ block) @ block.conj().T for block in blocks)  # P_r rho P_r
        with_action = born_distribution(lifted_b, DensityOperator._unchecked(updated, shape))  # a state

    tv = 0.5 * float(np.abs(without.probabilities - with_action.probabilities).sum())
    return SignallingReport(without, with_action, tv)
