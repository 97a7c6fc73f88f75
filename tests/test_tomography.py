import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqt import rng, tomography
from pqt.harness import parse_config, run
from pqt.hilbert import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    basis_state,
    bell_state,
    maximally_mixed,
    plus_state,
    random_density,
    random_hermitian,
    random_pure_state,
    fidelity,
    kron_all,
    pauli_matrix,
)
from pqt.composite import LocalSetting, _local_ic_set, lift_local
from pqt.measurement import (
    Observable,
    PauliString,
    PSystem,
    _inverse_cdf,
    born_distribution,
    collapse_update,
    repeated_measure,
)
from pqt.protocols import proper_vs_improper
from pqt.tomography import (
    CONFIDENCE_Z,
    ICSet,
    _frame_table,
    estimate_expectations,
    estimate_spectrum,
    discriminate,
    hermitian_basis_ic_set,
    ic_set_for_dimension,
    linear_inversion,
    pauli_ic_set,
    project_to_physical,
    reconstruct_single_copy,
)


class TestPauliICSet:
    def test_single_qubit_is_xyz(self):
        ic = pauli_ic_set(1)
        assert [o.name for o in ic.observables] == ["X", "Y", "Z"]

    def test_two_qubits_count(self):
        assert len(pauli_ic_set(2)) == 15

    def test_gram_matrix_is_diagonal(self):
        # Direct Gram computation under Tr(AB)/2 for the qubit set.
        ic = pauli_ic_set(1)
        mats = [o.matrix for o in ic.observables]
        gram = np.array([[np.trace(a @ b).real / 2 for b in mats] for a in mats])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="1..6"):
            pauli_ic_set(7)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_closed_form_projectors_match_eigensolver(self, n_qubits):
        # (I - S)/2 and (I + S)/2 against the general eigh path.
        for obs in pauli_ic_set(n_qubits).observables:
            reference = Observable(obs.name, pauli_matrix(obs.name))
            assert obs.eigenvalues == reference.eigenvalues == (-1.0, 1.0)
            for mine, theirs in zip(obs.projectors, reference.projectors):
                np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(obs.matrix, pauli_matrix(obs.name))


def kronecker_pauli(label: str) -> np.ndarray:
    """A Pauli string as the Kronecker product of its letters."""
    letters = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    return kron_all(*(letters[ch] for ch in label))


class TestPauliMasks:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_derived_matrix_equals_kronecker_product(self, n_qubits):
        for obs in pauli_ic_set(n_qubits).observables:
            np.testing.assert_array_equal(obs.matrix, kronecker_pauli(obs.name))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_born_probabilities_match_dense_projectors(self, n_qubits):
        dim = 2**n_qubits
        g = rng.stream(n_qubits, "pauli/born")
        pure = [random_pure_state(dim, g) for _ in range(3)]
        mixed = [random_density(dim, g) for _ in range(2)] + [random_density(dim, g, rank=2)]
        identity = np.eye(dim)
        for obs in pauli_ic_set(n_qubits).observables:
            matrix = kronecker_pauli(obs.name)
            projectors = ((identity - matrix) / 2, (identity + matrix) / 2)
            for psi in pure:
                dense = [np.vdot(psi.amplitudes, p @ psi.amplitudes).real for p in projectors]
                np.testing.assert_allclose(born_distribution(obs, psi).probabilities, dense, rtol=0, atol=1e-14)
            for rho in mixed:
                dense = [np.trace(p @ rho.matrix).real for p in projectors]
                np.testing.assert_allclose(born_distribution(obs, rho).probabilities, dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_collapse_matches_dense_projectors(self, n_qubits):
        dim = 2**n_qubits
        g = rng.stream(n_qubits, "pauli/collapse")
        states = [random_pure_state(dim, g) for _ in range(3)] + [basis_state(dim, 0)]
        identity = np.eye(dim)
        for obs in pauli_ic_set(n_qubits).observables:
            matrix = kronecker_pauli(obs.name)
            for index, projector in enumerate(((identity - matrix) / 2, (identity + matrix) / 2)):
                for psi in states:
                    projected = projector @ psi.amplitudes
                    probability = np.vdot(psi.amplitudes, projected).real
                    if probability <= 1e-12:
                        continue
                    collapsed = collapse_update(psi, obs, index)
                    np.testing.assert_array_equal(collapsed.amplitudes, projected / np.sqrt(probability))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
    def test_linear_inversion_equals_dense_sum_bit_for_bit(self, n_qubits):
        ic = pauli_ic_set(n_qubits)
        means = [float(m) for m in rng.stream(n_qubits, "pauli/inversion").uniform(-1.0, 1.0, size=len(ic))]
        dense = np.eye(ic.dim, dtype=complex) / ic.dim
        for mean, obs in zip(means, ic.observables):
            dense = dense + mean * (kronecker_pauli(obs.name) / ic.norm)
        fast = linear_inversion(means, ic)
        np.testing.assert_array_equal(fast, dense)
        assert fast.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("frame", ["gell-mann-3", "lifted-pauli-1"])
    def test_dense_frames_invert_as_the_dense_sum(self, frame):
        if frame == "gell-mann-3":
            ic = hermitian_basis_ic_set(3)
        else:
            # Lifted Pauli strings are dense observables: the frame takes the default, one-by-one path.
            ic = ICSet(tuple(lift_local(LocalSetting("A", obs), (2, 3)) for obs in pauli_ic_set(1).observables), 2.0)
        means = [float(m) for m in rng.stream(ic.dim, "dense/inversion").uniform(-1.0, 1.0, size=len(ic))]
        dense = np.eye(ic.dim, dtype=complex) / ic.dim
        for mean, obs in zip(means, ic.observables):
            dense = dense + mean * (obs.matrix / ic.norm)
        assert linear_inversion(means, ic).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
    def test_array_built_frame_equals_strings_built_from_labels(self, n_qubits):
        labels = ["".join(letters) for letters in itertools.product("IXYZ", repeat=n_qubits)][1:]
        ic = pauli_ic_set(n_qubits)
        assert [obs.name for obs in ic.observables] == labels
        for obs, label in zip(ic.observables, labels):
            reference = PauliString(label)
            assert obs.x_mask == reference.x_mask
            assert obs.phase.dtype == reference.phase.dtype and obs.phase.tobytes() == reference.phase.tobytes()
            assert obs.rows.dtype == reference.rows.dtype and obs.rows.tobytes() == reference.rows.tobytes()
            assert not obs.phase.flags.writeable and not obs.rows.flags.writeable

    @pytest.mark.parametrize("n_qubits", [1, 3, 6])
    def test_frame_born_rows_equal_each_strings_probabilities(self, n_qubits):
        dim = 2**n_qubits
        g = rng.stream(n_qubits, "pauli/frame-rows")
        ic = pauli_ic_set(n_qubits)
        for state in (random_pure_state(dim, g), random_density(dim, g), random_density(dim, g, rank=2)):
            table = _frame_table(ic.observables, state)
            expected = np.stack([obs.outcome_probabilities(state) for obs in ic.observables])
            assert table.probabilities.tobytes() == np.clip(expected, 0.0, None).tobytes()
            assert table.values.tolist() == [-1.0, 1.0] and table.offsets is None

    def test_frames_are_shared(self):
        assert ic_set_for_dimension(64) is ic_set_for_dimension(64)
        assert ic_set_for_dimension(3) is ic_set_for_dimension(3)

    def test_six_qubit_frame_build_is_small(self):
        tracemalloc.start()
        try:
            pauli_ic_set(6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_six_qubit_run_stores_no_dense_string(self, monkeypatch):
        # 4095 dense 64x64 strings with two projectors each would take ~0.8 GB.
        kron_calls = []
        real_kron = np.kron
        monkeypatch.setattr(np, "kron", lambda *args: kron_calls.append(args) or real_kron(*args))
        tomography._shared_ic_set.cache_clear()
        config = {"name": "r6", "protocol": "reconstruct", "shape": [2] * 6, "initial_state": "random-pure:1", "shots": 10}
        tracemalloc.start()
        try:
            run(parse_config(json.dumps(config)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kron_calls == []
        assert peak < 32 * 2**20
        assert all(isinstance(obs, PauliString) for obs in ic_set_for_dimension(64).observables)


@pytest.mark.parametrize(
    "factory, size",
    [(pauli_ic_set, n) for n in (1, 2, 3)] + [(hermitian_basis_ic_set, d) for d in range(2, 10)],
)
def test_every_built_set_is_an_orthogonal_frame(factory, size):
    # The promise linear inversion relies on: d^2 - 1 traceless observables
    # with Tr(O_j O_k) = norm * delta_jk.
    ic = factory(size)
    assert len(ic) == ic.dim**2 - 1
    np.testing.assert_allclose([np.trace(obs.matrix) for obs in ic.observables], 0.0, atol=1e-12)
    rows = np.stack([obs.matrix.reshape(-1) for obs in ic.observables])
    gram = rows.conj() @ rows.T
    np.testing.assert_allclose(gram, ic.norm * np.eye(len(ic)), rtol=0, atol=1e-12)


class TestHermitianBasisICSet:
    def test_dimension_two_reduces_to_paulis(self):
        ic = hermitian_basis_ic_set(2)
        mats = sorted((o.matrix for o in ic.observables), key=lambda m: abs(m[0, 0]))
        targets = [PAULI_X / np.sqrt(2), PAULI_Y / np.sqrt(2), PAULI_Z / np.sqrt(2)]
        for mat in mats:
            assert any(np.allclose(mat, t, atol=1e-12) or np.allclose(mat, -t, atol=1e-12) for t in targets)

    def test_count_for_qutrit(self):
        assert len(hermitian_basis_ic_set(3)) == 8

    def test_orthonormal_under_trace(self):
        ic = hermitian_basis_ic_set(4)
        mats = [o.matrix for o in ic.observables]
        for i, a in enumerate(mats):
            assert abs(np.trace(a)) < 1e-12
            for j, b in enumerate(mats):
                expected = 1.0 if i == j else 0.0
                assert np.trace(a @ b).real == pytest.approx(expected, abs=1e-12)

    def test_exact_round_trip_on_random_states(self):
        # Dual-frame identity: exact expectations reproduce rho.
        for dim in (2, 3, 5):
            ic = hermitian_basis_ic_set(dim)
            g = rng.stream(dim, "ic/roundtrip")
            for _ in range(3):
                rho = random_density(dim, g)
                means = [np.trace(obs.matrix @ rho.matrix).real for obs in ic.observables]
                np.testing.assert_allclose(linear_inversion(means, ic), rho.matrix, atol=1e-12)


class TestEstimateExpectations:
    def test_requires_passive_mode(self):
        sys = PSystem(basis_state(2, 0), "quantum", rng.stream(0, "est"))
        with pytest.raises(ValueError, match="passive mode"):
            estimate_expectations(sys, pauli_ic_set(1), 10)

    def test_deterministic_observable_is_exact(self):
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(1, "est"))
        estimates = estimate_expectations(sys, pauli_ic_set(1), 100)
        by_name = {e.observable: e for e in estimates}
        assert by_name["Z"].mean == 1.0
        assert by_name["Z"].half_width == 0.0

    def test_plus_state_x_exact(self):
        ic = pauli_ic_set(1)
        sys = PSystem(plus_state(), "passive", rng.stream(2, "est"))
        estimates = estimate_expectations(sys, ic, 100)
        assert {e.observable: e.mean for e in estimates}["X"] == 1.0

    def test_noisy_mean_within_3_sigma(self):
        # Binomial oracle: <Z> estimate on |+> has sd 1/sqrt(n).
        n = 10_000
        sys = PSystem(plus_state(), "passive", rng.stream(42, "est/noise"))
        estimates = estimate_expectations(sys, pauli_ic_set(1), n)
        z_mean = {e.observable: e.mean for e in estimates}["Z"]
        assert abs(z_mean) <= 3.0 / np.sqrt(n)

    def test_state_object_unchanged(self):
        state = random_pure_state(2, rng.stream(3, "est"))
        sys = PSystem(state, "passive", rng.stream(4, "est"))
        estimate_expectations(sys, pauli_ic_set(1), 500)
        assert sys.state is state


class TestLinearInversion:
    def test_bloch_formula_pure(self):
        ic = pauli_ic_set(1)
        out = linear_inversion([1.0, 0.0, 0.0], ic)
        np.testing.assert_allclose(out, plus_state().projector(), atol=1e-12)

    def test_zero_vector_is_maximally_mixed(self):
        out = linear_inversion([0.0, 0.0, 0.0], pauli_ic_set(1))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_noisy_bloch_leaves_state_set(self):
        # <Z> = 1.04 gives diag(1.02, -0.02): Hermitian, unit trace, not PSD.
        out = linear_inversion([0.0, 0.0, 1.04], pauli_ic_set(1))
        np.testing.assert_allclose(out, np.diag([1.02, -0.02]), atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(out).min() < 0

    def test_missing_estimates_rejected(self):
        with pytest.raises(ValueError, match="estimates"):
            linear_inversion([1.0], pauli_ic_set(1))

    def test_exact_round_trip_random(self):
        g = rng.stream(5, "inv")
        for n_qubits in (1, 2):
            ic = pauli_ic_set(n_qubits)
            for _ in range(3):
                rho = random_density(2**n_qubits, g)
                means = [np.trace(o.matrix @ rho.matrix).real for o in ic.observables]
                np.testing.assert_allclose(linear_inversion(means, ic), rho.matrix, atol=1e-10)


class TestProjectToPhysical:
    def test_fixed_point(self):
        rho = random_density(3, rng.stream(6, "proj"))
        out = project_to_physical(rho.matrix)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-10)

    def test_two_level_hand_value(self):
        # Simplex projection by hand: (1.2, -0.2) -> (1.0, 0.0).
        out = project_to_physical(np.diag([1.2, -0.2]).astype(complex))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_three_level_hand_value(self):
        # (0.7, 0.5, -0.2): keep k = 2, shift -0.1 -> (0.6, 0.4, 0.0).
        out = project_to_physical(np.diag([0.7, 0.5, -0.2]).astype(complex))
        np.testing.assert_allclose(np.sort(np.diag(out.matrix).real)[::-1], [0.6, 0.4, 0.0], atol=1e-12)

    def test_trace_far_from_one_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            project_to_physical(np.diag([2.0, 0.5]).astype(complex))

    def test_idempotent_and_trace_preserving(self):
        g = rng.stream(7, "proj/idem")
        for _ in range(10):
            noise = random_hermitian(3, g) * 0.2
            matrix = random_density(3, g).matrix + noise
            matrix = matrix / np.trace(matrix).real
            out = project_to_physical(matrix)
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-10)
            again = project_to_physical(out.matrix)
            np.testing.assert_allclose(again.matrix, out.matrix, atol=1e-10)

    def test_closest_in_frobenius_norm_spot_check(self):
        # Grid search over qubit density matrices cannot beat the projection.
        g = rng.stream(8, "proj/grid")
        matrix = np.diag([1.3, -0.3]).astype(complex)
        projected = project_to_physical(matrix)
        best = np.linalg.norm(projected.matrix - matrix)
        for _ in range(500):
            candidate = random_density(2, g)
            assert np.linalg.norm(candidate.matrix - matrix) >= best - 1e-9


def smolin_gambetta_smith(matrix: np.ndarray) -> np.ndarray:
    """Closest density matrix by the closed form of Smolin, Gambetta and Smith (PRL 108, 070502)."""
    values, vectors = np.linalg.eigh(matrix)
    mu, vectors = values[::-1], vectors[:, ::-1]
    kept, deficit = mu.size, 0.0
    while mu[kept - 1] + deficit / kept < 0.0:
        deficit += mu[kept - 1]
        kept -= 1
    lam = np.zeros(mu.size)
    lam[:kept] = mu[:kept] + deficit / kept
    return (vectors * lam) @ vectors.conj().T


@st.composite
def unit_trace_hermitian(draw) -> np.ndarray:
    dim = draw(st.integers(2, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    parts = np.array(draw(st.lists(entries, min_size=2 * dim * dim, max_size=2 * dim * dim))).reshape(2, dim, dim)
    g = parts[0] + 1j * parts[1]
    h = (g + g.conj().T) / 2.0
    return h + (1.0 - np.trace(h).real) / dim * np.eye(dim)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matrix=unit_trace_hermitian())
def test_projection_satisfies_kkt_conditions(matrix):
    # The minimiser keeps the input's eigenvectors and maps each eigenvalue
    # l_i to max(l_i + s, 0) for one shift s, with unit trace.
    out = project_to_physical(matrix).matrix
    values, vectors = np.linalg.eigh(matrix)
    in_eigenbasis = vectors.conj().T @ out @ vectors
    np.testing.assert_allclose(in_eigenbasis - np.diag(np.diag(in_eigenbasis)), 0.0, atol=1e-9)
    kept = np.diag(in_eigenbasis).real
    support = kept > 1e-9
    shift = float(np.mean(kept[support] - values[support]))
    np.testing.assert_allclose(kept, np.maximum(values + shift, 0.0), atol=1e-9)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    closed_form = smolin_gambetta_smith(matrix)
    assert np.linalg.norm(out - matrix) <= np.linalg.norm(closed_form - matrix) + 1e-12


class TestReconstructSingleCopy:
    def test_basis_state_high_fidelity(self):
        state = basis_state(2, 0)
        sys = PSystem(state, "passive", rng.stream(42, "reco/basis"))
        result = reconstruct_single_copy(sys, pauli_ic_set(1), 10_000)
        assert fidelity(state, result.estimate) >= 0.999
        assert sys.state is state

    def test_raw_estimate_has_unit_trace(self):
        sys = PSystem(plus_state(), "passive", rng.stream(1, "reco"))
        result = reconstruct_single_copy(sys, pauli_ic_set(1), 1000)
        assert np.trace(result.raw_estimate).real == pytest.approx(1.0, abs=1e-10)

    def test_improper_reduced_state_reconstructs_mixed(self):
        # The full Bell pair measured with a local IC set on side A only:
        # estimate close to I/2 with purity well below pure.
        from pqt.composite import reconstruct_reduced_single_copy

        sys = PSystem(bell_state("phi+"), "passive", rng.stream(42, "reco/bell"))
        estimate = reconstruct_reduced_single_copy(sys, 10_000)
        assert fidelity(estimate, maximally_mixed(2)) >= 0.99
        assert estimate.purity() <= 0.55

    def test_error_decreases_with_shots(self):
        # Mean infidelity over random pure qubit states drops
        # monotonically through 1e2, 1e3, 1e4 shots (seeded).
        mean_infidelity = []
        for shots in (100, 1000, 10_000):
            infidelities = []
            for index in range(20):
                state = random_pure_state(2, rng.stream(index, "reco/scaling/state"))
                sys = PSystem(state, "passive", rng.stream(index, f"reco/scaling/{shots}"))
                result = reconstruct_single_copy(sys, pauli_ic_set(1), shots)
                infidelities.append(1.0 - fidelity(state, result.estimate))
            mean_infidelity.append(np.mean(infidelities))
        assert mean_infidelity[0] > mean_infidelity[1] > mean_infidelity[2]

    def test_quantum_mode_rejected(self):
        sys = PSystem(plus_state(), "quantum", rng.stream(2, "reco"))
        with pytest.raises(ValueError, match="passive mode"):
            reconstruct_single_copy(sys, pauli_ic_set(1), 100)


class TestDiscriminate:
    def test_separates_zero_from_plus(self):
        candidates = [basis_state(2, 0), plus_state()]
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(42, "disc/0"))
        assert discriminate(sys, candidates, pauli_ic_set(1), 10_000) == 0
        sys = PSystem(plus_state(), "passive", rng.stream(42, "disc/+"))
        assert discriminate(sys, candidates, pauli_ic_set(1), 10_000) == 1

    def test_ray_equal_candidates_rejected(self):
        state = basis_state(2, 0)
        phased = state.amplitudes * np.exp(0.4j)
        from pqt.hilbert import StateVector

        candidates = [state, StateVector(phased)]
        sys = PSystem(state, "passive", rng.stream(3, "disc"))
        with pytest.raises(ValueError, match="ray-equal"):
            discriminate(sys, candidates, pauli_ic_set(1), 100)


class TestEstimateSpectrum:
    def test_plus_state_sees_both_outcomes(self):
        # Miss probability 2 * 2^-100 at 100 shots; the seeded run sees both.
        sys = PSystem(plus_state(), "passive", rng.stream(4, "spec"))
        values = estimate_spectrum(sys, Observable("Z", PAULI_Z), 100)
        assert values == [-1.0, 1.0]

    def test_zero_overlap_eigenvalue_invisible(self):
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(5, "spec"))
        values = estimate_spectrum(sys, Observable("Z", PAULI_Z), 500)
        assert values == [1.0]

    def test_shots_are_drawn_as_repeated_measure_draws_them(self):
        state = random_pure_state(3, rng.stream(6, "spec/state"))
        obs = Observable("H", random_hermitian(3, rng.stream(6, "spec/obs")))
        expected_sys = PSystem(state, "passive", rng.stream(6, "spec"))
        actual_sys = PSystem(state, "passive", rng.stream(6, "spec"))
        expected = sorted(repeated_measure(expected_sys, obs, 20).counts())
        assert estimate_spectrum(actual_sys, obs, 20) == expected
        assert actual_sys.history == expected_sys.history
        assert _position(actual_sys.rng) == _position(expected_sys.rng)

    def test_a_drawn_zero_probability_outcome_raises_as_repeated_measure_does(self):
        # A zero uniform draws the first outcome (-1 on |1>), whose weight 1e-13 is below ZERO_PROBABILITY.
        state = StateVector(np.array([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)]))
        obs = Observable("Z", PAULI_Z)
        errors = []
        for estimate in (repeated_measure, estimate_spectrum):
            with pytest.raises(ValueError, match="zero probability") as caught:
                estimate(PSystem(state, "passive", _ZeroUniforms()), obs, 3)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_memory_does_not_grow_with_shots(self):
        obs = Observable("H", random_hermitian(3, rng.stream(7, "spec/obs")))
        state = random_pure_state(3, rng.stream(7, "spec/state"))
        peaks = []
        for shots in (10**5, 4 * 10**6):
            sys = PSystem(state, "passive", rng.stream(7, "spec"))
            tracemalloc.start()
            try:
                estimate_spectrum(sys, obs, shots)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2**20

    def test_random_qutrit_matches_eigensolver(self):
        # Full-overlap state: every eigenvalue has weight >= 0.1, so 1000
        # shots miss one with probability <= 3 * 0.9^1000 ~ 5e-46.
        for seed in range(5):
            g = rng.stream(seed, "spec/qutrit")
            while True:
                matrix = random_hermitian(3, g)
                obs = Observable("H", matrix)
                psi = random_pure_state(3, g)
                if born_distribution(obs, psi).probabilities.min() >= 0.1:
                    break
            sys = PSystem(psi, "passive", g)
            values = estimate_spectrum(sys, obs, 1000)
            np.testing.assert_allclose(values, np.linalg.eigvalsh(matrix), atol=1e-12)


# The estimation loop as it was written observable by observable, one
# repeated_measure per observable.  The row-wise frame sampler must return
# equal numbers and leave the system's history and generator as it did.


def reference_estimates(sys, observables, shots):
    estimates = []
    for obs in observables:
        outcomes = repeated_measure(sys, obs, shots).outcomes
        half_width = float(CONFIDENCE_Z * outcomes.std(ddof=0) / np.sqrt(shots))
        estimates.append((obs.name, float(outcomes.mean()), half_width))
    return estimates


def reference_frame_estimate(sys, ic, observables, shots):
    means = [mean for _, mean, _ in reference_estimates(sys, observables, shots)]
    return project_to_physical(linear_inversion(means, ic))


def reference_proper_vs_improper(trials, shots, gen, mixture=None, purification=None):
    purities = []
    for _ in range(trials):
        if mixture is not None:
            weights = np.array([w for _, w in mixture], dtype=float)
            state = mixture[int(_inverse_cdf(weights, gen, 1)[0])][0]
            ic = ic_set_for_dimension(state.dim)
            estimate = reference_frame_estimate(PSystem(state, "passive", gen), ic, ic.observables, shots)
        else:
            ic, lifted = _local_ic_set(purification.shape)
            estimate = reference_frame_estimate(PSystem(purification, "passive", gen), ic, lifted, shots)
        purities.append(estimate.purity())
    return purities


def _position(gen):
    """The generator's full state (key, counter, buffer) as comparable text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


class _ZeroUniforms:
    """Stands in for a generator whose every uniform draw is 0.0."""

    def random(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


FRAMES = {
    "pauli-1": lambda: pauli_ic_set(1),
    "pauli-2": lambda: pauli_ic_set(2),
    "pauli-3": lambda: pauli_ic_set(3),
    "gell-mann-3": lambda: hermitian_basis_ic_set(3),
}
# 5000 shots put 13 rows in a block: 15 and 63 rows are not multiples of it.
SHOTS = (1, 7, 5000, 2**16 - 1, 2**16, 2**16 + 1)


class TestFrameSamplerMatchesReference:
    @staticmethod
    def assert_same_run(state, ic, shots, seed):
        expected_sys = PSystem(state, "passive", rng.stream(seed, "eq/frame"))
        actual_sys = PSystem(state, "passive", rng.stream(seed, "eq/frame"))
        expected = reference_estimates(expected_sys, ic.observables, shots)
        actual = [(e.observable, e.mean, e.half_width) for e in estimate_expectations(actual_sys, ic, shots)]
        assert actual == expected
        assert actual_sys.history == expected_sys.history
        assert _position(actual_sys.rng) == _position(expected_sys.rng)

    @pytest.mark.parametrize("shots", SHOTS)
    @pytest.mark.parametrize("frame", FRAMES)
    def test_estimates_equal_the_per_observable_loop(self, frame, shots):
        ic = FRAMES[frame]()
        self.assert_same_run(random_pure_state(ic.dim, rng.stream(shots, f"eq/{frame}")), ic, shots, seed=shots)

    @pytest.mark.parametrize("frame", FRAMES)
    def test_mixed_state(self, frame):
        ic = FRAMES[frame]()
        self.assert_same_run(random_density(ic.dim, rng.stream(1, f"eq/mixed/{frame}")), ic, 5000, seed=1)

    @pytest.mark.parametrize("frame", FRAMES)
    def test_rows_with_a_zero_probability_outcome(self, frame):
        # A basis state gives every diagonal observable an outcome of probability zero.
        ic = FRAMES[frame]()
        self.assert_same_run(basis_state(ic.dim, ic.dim - 1), ic, 5000, seed=2)

    @pytest.mark.parametrize("frame", FRAMES)
    def test_a_drawn_zero_probability_outcome_raises_in_both(self, frame):
        # A zero uniform draws the first outcome, whose weight 1e-13 is below ZERO_PROBABILITY.
        ic = FRAMES[frame]()
        amplitudes = np.zeros(ic.dim)
        amplitudes[:2] = np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)
        state = StateVector(amplitudes)
        errors = []
        for estimate in (reference_estimates, lambda sys, obs, shots: estimate_expectations(sys, ic, shots)):
            with pytest.raises(ValueError, match="zero probability") as caught:
                estimate(PSystem(state, "passive", _ZeroUniforms()), ic.observables, 3)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("shots", SHOTS)
    def test_lifted_qutrit_frame_of_a_reduced_reconstruction(self, shots):
        # Side A of a 3x3 system: lifted Gell-Mann rows with three and with two outcomes.
        from pqt.composite import reconstruct_reduced_single_copy

        state = random_pure_state(9, rng.stream(shots, "eq/lifted/state"), (3, 3))
        ic, lifted = _local_ic_set((3, 3))
        assert {len(obs.eigenvalues) for obs in lifted} == {2, 3}
        expected_sys = PSystem(state, "passive", rng.stream(shots, "eq/lifted"))
        actual_sys = PSystem(state, "passive", rng.stream(shots, "eq/lifted"))
        expected = reference_frame_estimate(expected_sys, ic, lifted, shots)
        actual = reconstruct_reduced_single_copy(actual_sys, shots)
        assert actual.matrix.tobytes() == expected.matrix.tobytes()
        assert actual_sys.history == expected_sys.history
        assert _position(actual_sys.rng) == _position(expected_sys.rng)

    @pytest.mark.parametrize("presentation", ["mixture", "purification"])
    def test_proper_vs_improper(self, presentation):
        if presentation == "mixture":
            kwargs = {"mixture": [(basis_state(2, 0), 0.3), (plus_state(), 0.5), (basis_state(2, 1), 0.2)]}
        else:
            kwargs = {"purification": random_pure_state(6, rng.stream(1, "eq/purification"), (3, 2))}
        expected_gen, actual_gen = rng.stream(3, "eq/pvi"), rng.stream(3, "eq/pvi")
        expected = reference_proper_vs_improper(40, 500, expected_gen, **kwargs)
        report = proper_vs_improper(40, 500, actual_gen, **kwargs)
        assert [entry["purity"] for entry in report.log] == expected
        assert _position(actual_gen) == _position(expected_gen)


class TestFrameSamplerMemory:
    def test_two_qubits_at_a_million_shots(self):
        # One 10^6-shot row per block; the per-observable loop peaked at 22.9 MB.
        state = random_pure_state(4, rng.stream(1, "mem/state"))
        sys = PSystem(state, "passive", rng.stream(1, "mem"))
        tracemalloc.start()
        try:
            estimate_expectations(sys, pauli_ic_set(2), 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_six_qubits_at_a_thousand_shots(self):
        state = random_pure_state(64, rng.stream(2, "mem/state"))
        sys = PSystem(state, "passive", rng.stream(2, "mem"))
        ic = pauli_ic_set(6)
        tracemalloc.start()
        try:
            estimate_expectations(sys, ic, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
