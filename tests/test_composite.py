import itertools
import json
import tracemalloc

import numpy as np
import pytest

from pqt import composite, rng
from pqt.composite import (
    JointFrequencyTable,
    LocalSetting,
    chsh_value,
    correlator,
    detect_entanglement_single_copy,
    global_joint_sample,
    joint_distribution_global,
    joint_distribution_local_passive,
    lift_local,
    local_passive_joint_sample,
    reconstruct_reduced_single_copy,
    signalling_check,
)
from pqt.hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    basis_state,
    bell_state,
    maximally_mixed,
    partial_trace,
    plus_state,
    random_hermitian,
    random_pure_state,
    tensor,
)
from pqt.measurement import SAMPLE_CHUNK, Observable, PSystem, born_distribution

Z = Observable("Z", PAULI_Z)
X = Observable("X", PAULI_X)
Y = Observable("Y", PAULI_Y)
PAULIS = {"Z": Z, "X": X, "Y": Y}


def analytic_joint_oracle(state, a_obs, b_obs):
    """Independent outer-product construction of Tr[(P_a x Q_b) rho]."""
    rho = state.projector() if isinstance(state, StateVector) else state.matrix
    table = {}
    for (a, pa), (b, qb) in itertools.product(
        zip(a_obs.eigenvalues, a_obs.projectors), zip(b_obs.eigenvalues, b_obs.projectors)
    ):
        table[(a, b)] = float(np.trace(np.kron(pa, qb) @ rho).real)
    return table


class TestLiftLocal:
    def test_side_a_structure(self):
        lifted = lift_local(LocalSetting("A", Z), (2, 2))
        assert lifted.eigenvalues == (-1.0, 1.0)
        np.testing.assert_allclose(lifted.matrix, np.kron(PAULI_Z, np.eye(2)), atol=1e-12)
        np.testing.assert_allclose(lifted.projectors[1], np.kron(basis_state(2, 0).projector(), np.eye(2)), atol=1e-12)

    def test_side_b_structure(self):
        lifted = lift_local(LocalSetting("B", X), (2, 2))
        np.testing.assert_allclose(lifted.matrix, np.kron(np.eye(2), PAULI_X), atol=1e-12)

    def test_lifted_marginal_matches_partial_trace(self):
        # born(Z x I, Phi+) equals born(Z, Tr_B Phi+).
        bell = bell_state("phi+")
        lifted = lift_local(LocalSetting("A", Z), (2, 2))
        joint_side = born_distribution(lifted, bell).probabilities
        reduced_side = born_distribution(Z, partial_trace(bell, 0)).probabilities
        np.testing.assert_allclose(joint_side, reduced_side, atol=1e-12)

    def test_lifted_collapse_matches_hand_projection(self):
        # Collapsing a partially entangled state on a lifted observable
        # reproduces (P_r x I)|Phi> / sqrt(p) computed by hand.
        from pqt.measurement import collapse_update

        amps = np.array([np.sqrt(0.7), 0.0, 0.0, np.sqrt(0.3)])
        state = StateVector(amps, (2, 2))
        lifted = lift_local(LocalSetting("A", Z), (2, 2))
        for index, projector in enumerate(lifted.projectors):
            projected = projector @ amps
            expected = projected / np.linalg.norm(projected)
            post = collapse_update(state, lifted, index)
            np.testing.assert_allclose(post.amplitudes, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            lift_local(LocalSetting("A", Z), (3, 2))

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            LocalSetting("C", Z)


class TestGlobalJointSample:
    def test_bell_zz_perfectly_correlated(self):
        # Analytic oracle: only (+1,+1) and (-1,-1) carry weight 1/2 each.
        oracle = analytic_joint_oracle(bell_state("phi+"), Z, Z)
        assert oracle[(1.0, 1.0)] == pytest.approx(0.5)
        assert oracle[(-1.0, -1.0)] == pytest.approx(0.5)
        assert oracle[(1.0, -1.0)] == pytest.approx(0.0, abs=1e-12)

        sys = PSystem(bell_state("phi+"), "passive", rng.stream(42, "gj/zz"))
        table = global_joint_sample(sys, Z, Z, 10_000)
        empirical = table.empirical()
        assert empirical[0, 1] == 0.0 and empirical[1, 0] == 0.0
        assert empirical[0, 0] == pytest.approx(0.5, abs=0.02)
        assert correlator(table) == 1.0

    def test_product_eigenstate_single_row(self):
        state = tensor(basis_state(2, 0), plus_state())
        sys = PSystem(state, "passive", rng.stream(1, "gj/prod"))
        table = global_joint_sample(sys, Z, X, 1000)
        assert table.counts[1, 1] == 1000  # (+1, +1) cell

    def test_bell_zx_uniform(self):
        oracle = analytic_joint_oracle(bell_state("phi+"), Z, X)
        for value in oracle.values():
            assert value == pytest.approx(0.25, abs=1e-12)
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(2, "gj/zx"))
        table = global_joint_sample(sys, Z, X, 40_000)
        np.testing.assert_allclose(table.empirical(), 0.25, atol=0.02)

    def test_passive_leaves_state(self):
        state = bell_state("phi+")
        sys = PSystem(state, "passive", rng.stream(3, "gj"))
        global_joint_sample(sys, Z, X, 100)
        assert sys.state is state

    def test_quantum_single_copy_rejected(self):
        sys = PSystem(bell_state("phi+"), "quantum", rng.stream(4, "gj"))
        with pytest.raises(ValueError, match="ensemble required in quantum mode"):
            global_joint_sample(sys, Z, Z, 100)

    def test_quantum_ensemble_allowed(self):
        state = bell_state("phi+")
        sys = PSystem(state, "quantum", rng.stream(5, "gj"))
        table = global_joint_sample(sys, Z, Z, 2000, ensemble=True)
        assert sys.state is state
        assert table.counts[0, 1] == 0 and table.counts[1, 0] == 0

    def test_product_state_table_factorizes(self):
        # TV between the table and the product of its marginals <= 5/sqrt(n).
        n = 10_000
        state = tensor(plus_state(), plus_state())
        sys = PSystem(state, "passive", rng.stream(6, "gj/fact"))
        table = global_joint_sample(sys, Z, Z, n)
        empirical = table.empirical()
        product = np.outer(empirical.sum(axis=1), empirical.sum(axis=0))
        tv = 0.5 * np.abs(empirical - product).sum()
        assert tv <= 5.0 / np.sqrt(n)


class TestLocalPassiveJointSample:
    def test_bell_zz_uncorrelated(self):
        # Independent-marginal model: all four cells 1/4, correlator ~ 0.
        n = 100_000
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(42, "lj/zz"))
        table = local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", Z), n)
        np.testing.assert_allclose(table.empirical(), 0.25, atol=0.01)
        assert abs(correlator(table)) <= 0.02

    def test_deterministic_marginals(self):
        state = tensor(basis_state(2, 0), basis_state(2, 0))
        sys = PSystem(state, "passive", rng.stream(1, "lj/det"))
        table = local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", Z), 500)
        assert table.counts[1, 1] == 500

    def test_quantum_mode_rejected(self):
        sys = PSystem(bell_state("phi+"), "quantum", rng.stream(2, "lj"))
        with pytest.raises(ValueError, match="passive-only"):
            local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", Z), 10)

    def test_wrong_sides_rejected(self):
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(3, "lj"))
        with pytest.raises(ValueError, match="side A"):
            local_passive_joint_sample(sys, LocalSetting("B", Z), LocalSetting("B", Z), 10)

    def test_distance_between_global_and_local_tables(self):
        # Analytic tables: global Bell Z,Z is diag(1/2, 1/2); the local
        # product table is uniform 1/4 -> TV exactly 1/2.
        bell = bell_state("phi+")
        global_probs = joint_distribution_global(bell, Z, Z)
        local_probs = joint_distribution_local_passive(bell, Z, Z)
        tv = 0.5 * np.abs(global_probs - local_probs).sum()
        assert tv == pytest.approx(0.5, abs=1e-12)

    def test_marginals_match_lifted_born(self):
        # Empirical marginals converge to the lifted Born distributions.
        n = 10_000
        state = bell_state("psi-")
        sys = PSystem(state, "passive", rng.stream(4, "lj/marg"))
        table = local_passive_joint_sample(sys, LocalSetting("A", X), LocalSetting("B", Y), n)
        marg_a = born_distribution(lift_local(LocalSetting("A", X), (2, 2)), state).probabilities
        marg_b = born_distribution(lift_local(LocalSetting("B", Y), (2, 2)), state).probabilities
        tv_a = 0.5 * np.abs(table.empirical().sum(axis=1) - marg_a).sum()
        tv_b = 0.5 * np.abs(table.empirical().sum(axis=0) - marg_b).sum()
        assert tv_a <= 5.0 / np.sqrt(n) and tv_b <= 5.0 / np.sqrt(n)


# local_passive_joint_sample as written before chunked sampling: all of
# side A's uniforms, then all of side B's, each indexed by searchsorted.
# The chunked version must give equal counts and leave the generator at
# the same position.


def reference_local_passive_counts(sys, a_setting, b_setting, shots):
    shape = sys.state.shape
    marg_a = born_distribution(lift_local(a_setting, shape), sys.state).probabilities
    marg_b = born_distribution(lift_local(b_setting, shape), sys.state).probabilities
    a_indices = one_shot_indices(marg_a, sys.rng.random(shots))
    b_indices = one_shot_indices(marg_b, sys.rng.random(shots))
    counts = np.bincount(a_indices * marg_b.size + b_indices, minlength=marg_a.size * marg_b.size)
    return counts.reshape(marg_a.size, marg_b.size)


def one_shot_indices(weights, uniforms):
    cdf = np.cumsum(weights)
    return np.minimum(np.searchsorted(cdf, uniforms * cdf[-1], side="right"), cdf.size - 1)


def position(gen):
    """The generator's full state (key, counter, buffer) as comparable text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


class TestChunkedSamplingMatchesOneShot:
    @pytest.mark.parametrize("shots", [1, 3, 5, SAMPLE_CHUNK + 3, 3 * SAMPLE_CHUNK + 1])
    def test_local_passive_joint_sample(self, shots):
        # Three outcomes on side A, two on side B, from every start position in a 4-draw Philox block.
        g = rng.stream(shots, "chunk/inputs")
        state = random_pure_state(6, g, (3, 2))
        a_setting = LocalSetting("A", Observable("HA", random_hermitian(3, g)))
        b_setting = LocalSetting("B", Observable("HB", random_hermitian(2, g)))
        for skip in range(4):
            expected_gen, actual_gen = rng.stream(skip, "chunk/draws"), rng.stream(skip, "chunk/draws")
            expected_gen.random(skip)
            actual_gen.random(skip)
            expected = reference_local_passive_counts(PSystem(state, "passive", expected_gen), a_setting, b_setting, shots)
            table = local_passive_joint_sample(PSystem(state, "passive", actual_gen), a_setting, b_setting, shots)
            assert table.counts.tolist() == expected.tolist()
            assert position(actual_gen) == position(expected_gen)

    def test_local_passive_chsh_on_one_shared_stream(self):
        # The four correlators take consecutive stretches of one stream.
        shots = SAMPLE_CHUNK + 3
        state = random_pure_state(4, rng.stream(2, "chunk/chsh"), (2, 2))
        b1, b2 = TestCHSH.B1, TestCHSH.B2
        expected_gen, actual_gen = rng.stream(3, "chunk/chsh"), rng.stream(3, "chunk/chsh")

        def estimate(a_obs, b_obs):
            sys = PSystem(state, "passive", expected_gen)
            counts = reference_local_passive_counts(sys, LocalSetting("A", a_obs), LocalSetting("B", b_obs), shots)
            return correlator(JointFrequencyTable(a_obs.eigenvalues, b_obs.eigenvalues, counts, shots))

        expected = estimate(Z, b1) + estimate(Z, b2) + estimate(X, b1) - estimate(X, b2)
        assert chsh_value(state, (Z, X), (b1, b2), "local-passive", shots, actual_gen) == expected
        assert position(actual_gen) == position(expected_gen)


class TestFlatMemory:
    @pytest.mark.parametrize("sampler", ["local-passive", "global"])
    def test_peak_does_not_grow_with_shots(self, sampler):
        b_obs = Observable("B", (PAULI_Z + PAULI_X) / np.sqrt(2))
        state = random_pure_state(4, rng.stream(1, "flat/state"), (2, 2))
        peaks = {}
        for shots in (10**5, 10**7):
            sys = PSystem(state, "passive", rng.stream(shots, "flat"))
            tracemalloc.start()
            try:
                if sampler == "global":
                    global_joint_sample(sys, Z, b_obs, shots)
                else:
                    local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", b_obs), shots)
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**7] < 8_000_000
        assert peaks[10**7] - peaks[10**5] < 1_000_000


class TestCorrelator:
    def test_perfect_correlation(self):
        table = JointFrequencyTable((-1.0, 1.0), (-1.0, 1.0), np.array([[50, 0], [0, 50]]), 100)
        assert correlator(table) == 1.0

    def test_uniform_table(self):
        table = JointFrequencyTable((-1.0, 1.0), (-1.0, 1.0), np.array([[25, 25], [25, 25]]), 100)
        assert correlator(table) == 0.0

    def test_non_dichotomic_rejected(self):
        table = JointFrequencyTable((0.0, 1.0), (-1.0, 1.0), np.array([[25, 25], [25, 25]]), 100)
        with pytest.raises(ValueError, match="needs \\+-1"):
            correlator(table)


class TestCHSH:
    B1 = Observable("B1", (PAULI_Z + PAULI_X) / np.sqrt(2))
    B2 = Observable("B2", (PAULI_Z - PAULI_X) / np.sqrt(2))

    def test_analytic_tsirelson_point(self):
        # Oracle: each correlator from the analytic joint distribution.
        bell = bell_state("phi+")

        def exact_e(a_obs, b_obs):
            probs = joint_distribution_global(bell, a_obs, b_obs)
            a = np.asarray(a_obs.eigenvalues)
            b = np.asarray(b_obs.eigenvalues)
            return float(np.einsum("i,j,ij->", a, b, probs))

        s = exact_e(Z, self.B1) + exact_e(Z, self.B2) + exact_e(X, self.B1) - exact_e(X, self.B2)
        assert s == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_global_sampling_hits_tsirelson(self):
        value = chsh_value(
            bell_state("phi+"), (Z, X), (self.B1, self.B2), "global", 100_000, rng.stream(42, "chsh/g")
        )
        assert value == pytest.approx(2 * np.sqrt(2), abs=0.05)

    def test_local_passive_shows_no_violation(self):
        value = chsh_value(
            bell_state("phi+"), (Z, X), (self.B1, self.B2), "local-passive", 100_000, rng.stream(42, "chsh/l")
        )
        assert abs(value) <= 0.05

    def test_product_state_respects_classical_bound(self):
        state = tensor(basis_state(2, 0), basis_state(2, 0))
        n = 10_000
        value = chsh_value(state, (Z, X), (self.B1, self.B2), "global", n, rng.stream(1, "chsh/p"))
        assert abs(value) <= 2.0 + 6 * (4.0 / np.sqrt(n))

    def test_local_passive_never_beats_classical_bound(self):
        # Independent marginals factorize every correlator, so |S| <= 2
        # exactly in expectation; allow the statistical slack on samples.
        n = 10_000
        for seed in range(5):
            g = rng.stream(seed, "chsh/bound")
            state = random_pure_state(4, g, (2, 2))
            value = chsh_value(state, (Z, X), (self.B1, self.B2), "local-passive", n, g)
            assert abs(value) <= 2.0 + 6 * (4.0 / np.sqrt(n))

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown source"):
            chsh_value(bell_state("phi+"), (Z, X), (self.B1, self.B2), "telepathy", 10, rng.stream(0, "x"))


class TestEntanglementDetection:
    def test_bell_state_entangled(self):
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(42, "ent/bell"))
        result = detect_entanglement_single_copy(sys, 10_000)
        assert result.verdict == "entangled"
        assert result.purity == pytest.approx(0.5, abs=0.05)

    def test_product_state(self):
        sys = PSystem(tensor(basis_state(2, 0), plus_state()), "passive", rng.stream(42, "ent/prod"))
        result = detect_entanglement_single_copy(sys, 10_000)
        assert result.verdict == "product"
        assert result.reduced_estimate.purity() >= 0.95

    def test_partially_entangled(self):
        # sqrt(0.9)|00> + sqrt(0.1)|11>: reduced purity 0.81 + 0.01 = 0.82.
        amps = np.zeros(4)
        amps[0], amps[3] = np.sqrt(0.9), np.sqrt(0.1)
        state = StateVector(amps, (2, 2))
        sys = PSystem(state, "passive", rng.stream(42, "ent/partial"))
        result = detect_entanglement_single_copy(sys, 10_000)
        assert result.verdict == "entangled"
        assert result.purity == pytest.approx(0.82, abs=0.05)

    def test_inconclusive_band_is_reported_not_guessed(self):
        # Schmidt weight tuned so the reduced purity sits mid-band (0.925).
        weight = (1 + np.sqrt(0.85)) / 2
        amps = np.zeros(4)
        amps[0], amps[3] = np.sqrt(weight), np.sqrt(1 - weight)
        sys = PSystem(StateVector(amps, (2, 2)), "passive", rng.stream(0, "ent/band"))
        result = detect_entanglement_single_copy(sys, 10_000)
        assert result.verdict == "inconclusive"
        assert 0.90 < result.purity < 0.95

    def test_mixed_state_rejected(self):
        sys = PSystem(maximally_mixed(4, (2, 2)), "passive", rng.stream(0, "ent"))
        with pytest.raises(ValueError, match="pure"):
            detect_entanglement_single_copy(sys, 100)

    def test_local_frame_is_built_once_per_shape(self, monkeypatch):
        # The reduced-state frame and its lifts are immutable, so repeated
        # trials reuse them instead of rebuilding per call.
        builds = []
        real = composite.hermitian_basis_ic_set
        monkeypatch.setattr(composite, "hermitian_basis_ic_set", lambda dim: builds.append(dim) or real(dim))
        composite._local_ic_set.cache_clear()
        estimates = []
        for _ in range(3):
            sys = PSystem(bell_state("phi+"), "passive", rng.stream(7, "ent/frame"))
            estimates.append(reconstruct_reduced_single_copy(sys, 100).matrix)
        composite._local_ic_set.cache_clear()
        assert builds == [2]
        for estimate in estimates[1:]:
            np.testing.assert_array_equal(estimate, estimates[0])


class TestSignalling:
    def test_passive_action_exact_zero(self):
        report = signalling_check(bell_state("phi+"), "passive-measure", X, Z)
        assert report.tv_distance == 0.0

    def test_quantum_nonselective_within_roundoff(self):
        report = signalling_check(bell_state("phi+"), "quantum-measure-nonselective", X, Z)
        assert report.tv_distance <= 1e-12

    def test_no_action_baseline(self):
        report = signalling_check(bell_state("phi+"), "none", X)
        assert report.tv_distance == 0.0

    def test_all_pauli_pairs(self):
        for a_name, b_name in itertools.product("XYZ", repeat=2):
            passive = signalling_check(bell_state("phi+"), "passive-measure", PAULIS[b_name], PAULIS[a_name])
            quantum = signalling_check(
                bell_state("phi+"), "quantum-measure-nonselective", PAULIS[b_name], PAULIS[a_name]
            )
            assert passive.tv_distance == 0.0
            assert quantum.tv_distance <= 1e-12

    def test_action_needs_observable(self):
        with pytest.raises(ValueError, match="needs an observable"):
            signalling_check(bell_state("phi+"), "passive-measure", X)


class TestLocalTomographyFailure:
    def test_bell_and_product_share_all_local_passive_statistics(self):
        # Phi+ and I/2 x I/2 have identical local-passive tables for every
        # Pauli setting pair (zero TV in exact arithmetic; the two analytic
        # pipelines agree to the last ulp here), yet their global Z,Z
        # tables differ at TV = 1/2: the theory is not locally tomographic.
        bell = bell_state("phi+")
        mixed = maximally_mixed(4, (2, 2))
        for a_name, b_name in itertools.product("XYZ", repeat=2):
            local_bell = joint_distribution_local_passive(bell, PAULIS[a_name], PAULIS[b_name])
            local_mixed = joint_distribution_local_passive(mixed, PAULIS[a_name], PAULIS[b_name])
            assert 0.5 * np.abs(local_bell - local_mixed).sum() <= 1e-14
        global_bell = joint_distribution_global(bell, Z, Z)
        global_mixed = joint_distribution_global(mixed, Z, Z)
        assert 0.5 * np.abs(global_bell - global_mixed).sum() == pytest.approx(0.5, abs=1e-12)
