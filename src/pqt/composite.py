"""Bipartite machinery: local vs. global measurements and their statistics.

A local observable acts on one subsystem only and is lifted to the full
space as A tensor I (or I tensor B).  Without collapse, two local
passive measurements cannot become correlated, so their joint table is
sampled from the product of the marginals; joint outcome probabilities
Tr[(P_a tensor Q_b) rho] are only accessible to a single global device.
Both samplers have analytic counterparts used by the no-signalling and
local-indistinguishability checks, which are exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .hilbert import DensityOperator, SpectralDecomposition, State, StateVector
from .measurement import (
    Observable,
    OutcomeDistribution,
    PSystem,
    _cdf_counts,
    _cdf_index,
    _skipped_ahead,
    _uniform_chunks,
    born_distribution,
    repeated_measure,
)
from .tomography import ICSet, hermitian_basis_ic_set, linear_inversion, project_to_physical

PURITY_PRODUCT_THRESHOLD = 0.95
PURITY_ENTANGLED_THRESHOLD = 0.90
DICHOTOMIC_TOL = 1e-9


@dataclass(frozen=True)
class LocalSetting:
    """An observable measured on one side of a bipartite system."""

    side: str
    observable: Observable

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {self.side!r}")


@dataclass
class JointFrequencyTable:
    """Counts of joint (a, b) outcomes over a number of shots."""

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    counts: np.ndarray = field(repr=False)
    shots: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        if counts.shape != (len(self.a_values), len(self.b_values)):
            raise ValueError("counts shape does not match outcome grids")
        if int(counts.sum()) != self.shots:
            raise ValueError(f"counts sum to {counts.sum()}, expected {self.shots} shots")
        self.counts = counts

    def empirical(self) -> np.ndarray:
        return self.counts / self.shots

    def rows(self) -> list[tuple[float, float, int]]:
        return [
            (a, b, int(self.counts[i, j]))
            for i, a in enumerate(self.a_values)
            for j, b in enumerate(self.b_values)
        ]


def lift_local(setting: LocalSetting, shape: tuple[int, int]) -> Observable:
    """Embed a subsystem observable into the bipartite space.

    The degenerate outcome structure is inherited: every projector
    becomes P_r tensor I (side A) or I tensor P_r (side B), with the
    subsystem eigenvalues unchanged.
    """
    if len(shape) != 2:
        raise ValueError(f"expected a bipartite shape, got {shape}")
    dim_a, dim_b = shape
    obs = setting.observable
    if setting.side == "A":
        if obs.dim != dim_a:
            raise ValueError(f"observable dimension {obs.dim} does not match subsystem A ({dim_a})")
        projectors = tuple(np.kron(p, np.eye(dim_b)) for p in obs.projectors)
        name = f"{obs.name}xI"
    else:
        if obs.dim != dim_b:
            raise ValueError(f"observable dimension {obs.dim} does not match subsystem B ({dim_b})")
        projectors = tuple(np.kron(np.eye(dim_a), p) for p in obs.projectors)
        name = f"Ix{obs.name}"
    decomposition = SpectralDecomposition(obs.decomposition.eigenvalues, projectors)
    return Observable.from_decomposition(name, decomposition)


def joint_distribution_global(state: State, a_obs: Observable, b_obs: Observable) -> np.ndarray:
    """Analytic joint probabilities p(a, b) = Tr[(P_a tensor Q_b) rho]."""
    matrix = state.projector() if isinstance(state, StateVector) else state.matrix
    probs = np.empty((len(a_obs.eigenvalues), len(b_obs.eigenvalues)))
    for i, pa in enumerate(a_obs.projectors):
        for j, qb in enumerate(b_obs.projectors):
            probs[i, j] = np.trace(np.kron(pa, qb) @ matrix).real
    return np.clip(probs, 0.0, None)


def joint_distribution_local_passive(state: State, a_obs: Observable, b_obs: Observable) -> np.ndarray:
    """Analytic joint table of two independent local passive measurements.

    Passive measurements do not correlate the sides, so the table is the
    product of the two lifted marginals.
    """
    shape = state.shape
    marg_a = born_distribution(lift_local(LocalSetting("A", a_obs), shape), state)
    marg_b = born_distribution(lift_local(LocalSetting("B", b_obs), shape), state)
    return np.outer(marg_a.probabilities, marg_b.probabilities)


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
    probs = joint_distribution_global(sys.state, a_obs, b_obs)
    # One draw per shot over the row-major (a, b) grid.
    counts = _cdf_counts(probs.reshape(-1), sys.rng, shots).reshape(probs.shape)
    return JointFrequencyTable(a_obs.eigenvalues, b_obs.eigenvalues, counts, shots)


def local_passive_joint_sample(
    sys: PSystem,
    a_setting: LocalSetting,
    b_setting: LocalSetting,
    shots: int,
) -> JointFrequencyTable:
    """Sample two local passive measurements per shot, independently.

    Outcome a is drawn from the Born distribution of A tensor I and b,
    independently, from I tensor B: without collapse the first local
    measurement cannot steer the second, so the empirical table
    factorises into the marginals in expectation.

    Side A takes the stream's next ``shots`` uniforms and side B the
    ``shots`` after them.  Both sides are drawn chunk by chunk, B from a
    copy of the stream skipped ahead past A's draws, and the stream ends
    where B's copy ends.
    """
    if sys.mode != "passive":
        raise ValueError(
            "local joint sampling is passive-only: local quantum measurements "
            "collapse the state and correlate the sides"
        )
    if a_setting.side != "A" or b_setting.side != "B":
        raise ValueError("expected one setting for side A and one for side B")
    shape = sys.state.shape
    marg_a = born_distribution(lift_local(a_setting, shape), sys.state)
    marg_b = born_distribution(lift_local(b_setting, shape), sys.state)
    n_a, n_b = len(marg_a.eigenvalues), len(marg_b.eigenvalues)
    b_rng = _skipped_ahead(sys.rng, shots)
    counts = np.zeros(n_a * n_b, dtype=np.int64)
    for a_uniforms, b_uniforms in zip(_uniform_chunks(sys.rng, shots), _uniform_chunks(b_rng, shots)):
        pairs = _cdf_index(marg_a.probabilities, a_uniforms)
        pairs *= n_b
        pairs += _cdf_index(marg_b.probabilities, b_uniforms)
        counts += np.bincount(pairs, minlength=n_a * n_b)
    sys.rng.bit_generator.state = b_rng.bit_generator.state
    return JointFrequencyTable(marg_a.eigenvalues, marg_b.eigenvalues, counts.reshape(n_a, n_b), shots)


def correlator(table: JointFrequencyTable) -> float:
    """E(a, b) = sum a.b.count / shots for dichotomic (+-1) outcomes."""
    for value in (*table.a_values, *table.b_values):
        if min(abs(value - 1.0), abs(value + 1.0)) > DICHOTOMIC_TOL:
            raise ValueError(f"correlator needs +-1 outcomes, got {value!r}")
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
    local marginals.  Each correlator runs on a fresh passive system
    sharing the provided stream.
    """
    if source not in ("global", "local-passive"):
        raise ValueError(f"unknown source {source!r}; expected 'global' or 'local-passive'")
    a1, a2 = alice
    b1, b2 = bob

    def estimate(a_obs: Observable, b_obs: Observable) -> float:
        sys = PSystem(state, "passive", rng)
        if source == "global":
            table = global_joint_sample(sys, a_obs, b_obs, shots)
        else:
            table = local_passive_joint_sample(sys, LocalSetting("A", a_obs), LocalSetting("B", b_obs), shots)
        return correlator(table)

    return estimate(a1, b1) + estimate(a1, b2) + estimate(a2, b1) - estimate(a2, b2)


@dataclass
class EntanglementVerdict:
    verdict: str
    reduced_estimate: DensityOperator
    purity: float


def reconstruct_reduced_single_copy(sys: PSystem, shots: int) -> DensityOperator:
    """Estimate the reduced state of side A using local measurements only.

    Every observable of an IC set on subsystem A is lifted to A tensor I
    and measured ``shots`` times on the one passive system; the reduced
    state follows by linear inversion and physicality projection.
    """
    if sys.mode != "passive":
        raise ValueError("single-copy reconstruction requires passive mode")
    shape = sys.state.shape
    if len(shape) != 2:
        raise ValueError("expected a bipartite system")
    ic, lifted = _local_ic_set(shape)
    means = [float(np.mean(repeated_measure(sys, obs, shots).outcomes)) for obs in lifted]
    return project_to_physical(linear_inversion(means, ic))


@functools.lru_cache(maxsize=8)
def _local_ic_set(shape: tuple[int, int]) -> tuple[ICSet, tuple[Observable, ...]]:
    """Gell-Mann frame of side A and its lifts to A tensor I, built once per shape (both are immutable)."""
    ic = hermitian_basis_ic_set(shape[0])
    return ic, tuple(lift_local(LocalSetting("A", obs), shape) for obs in ic.observables)


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


@dataclass
class SignallingReport:
    marginal_without: OutcomeDistribution
    marginal_with: OutcomeDistribution
    tv_distance: float


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
    actions = ("none", "passive-measure", "quantum-measure-nonselective")
    if action not in actions:
        raise ValueError(f"unknown action {action!r}; expected one of {actions}")
    if action != "none" and a_obs is None:
        raise ValueError(f"action {action!r} needs an observable on side A")
    shape = state.shape
    if len(shape) != 2:
        raise ValueError("signalling check needs a bipartite state")

    lifted_b = lift_local(LocalSetting("B", b_obs), shape)
    without = born_distribution(lifted_b, state)

    if action in ("none", "passive-measure"):
        # No state update in either case: same state, same marginal.
        with_action = born_distribution(lifted_b, state)
    else:
        lifted_a = lift_local(LocalSetting("A", a_obs), shape)
        matrix = state.projector() if isinstance(state, StateVector) else state.matrix
        updated = np.zeros_like(matrix)
        for projector in lifted_a.projectors:
            updated = updated + projector @ matrix @ projector
        with_action = born_distribution(lifted_b, DensityOperator(updated, shape))

    tv = 0.5 * float(np.abs(without.probabilities - with_action.probabilities).sum())
    return SignallingReport(without, with_action, tv)
