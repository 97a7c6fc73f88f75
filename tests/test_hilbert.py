import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import called_name, enclosing_function, parsed_sources

import pqt
from pqt import rng
from pqt.hilbert import (
    DensityOperator,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    UnitaryOperator,
    _kron,
    basis_state,
    bell_state,
    evolve,
    fidelity,
    kron_all,
    maximally_mixed,
    partial_trace,
    pauli_matrix,
    plus_state,
    random_density,
    random_pure_state,
    spectral_decompose,
    tensor,
)


def brute_force_partial_trace(matrix, dims, keep):
    """Elementwise index-contraction oracle for the partial trace."""
    n = len(dims)
    out = np.zeros((dims[keep], dims[keep]), dtype=complex)
    indices = list(np.ndindex(*dims))
    for row in indices:
        for col in indices:
            if all(row[k] == col[k] for k in range(n) if k != keep):
                r = int(np.ravel_multi_index(row, dims))
                c = int(np.ravel_multi_index(col, dims))
                out[row[keep], col[keep]] += matrix[r, c]
    return out


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitude(self, bad):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector([bad, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not factor"):
            StateVector([1.0, 0.0], shape=(3,))

    def test_normalized_classmethod(self):
        state = StateVector.normalized([1.0, 1.0])
        assert state.ray_equal(plus_state())

    def test_amplitudes_are_read_only(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_ray_equality_ignores_global_phase(self):
        state = plus_state()
        rotated = StateVector(np.exp(0.37j) * state.amplitudes)
        assert state.ray_equal(rotated)
        assert not state.ray_equal(basis_state(2, 0))


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]]))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_nan_entry(self, entry):
        matrix = np.eye(2, dtype=complex) / 2
        matrix[entry] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            DensityOperator(matrix)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_entry_raises_without_a_warning(self, bad, entry):
        matrix = np.eye(2, dtype=complex) / 2
        matrix[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                DensityOperator(matrix)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_purity(self):
        assert maximally_mixed(2).purity() == pytest.approx(0.5)
        assert basis_state(2, 0).to_density().purity() == pytest.approx(1.0)


class TestUnitary:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOperator(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_non_finite_entry_raises_without_a_warning(self, bad, entry):
        matrix = np.eye(2, dtype=complex)
        matrix[entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary.*not finite"):
                UnitaryOperator(matrix)

    def test_hadamard_is_unitary(self):
        UnitaryOperator(HADAMARD)


class TestTensor:
    def test_basis_kronecker(self):
        result = tensor(basis_state(2, 0), basis_state(2, 1))
        np.testing.assert_allclose(result.amplitudes, [0, 1, 0, 0])
        assert result.shape == (2, 2)

    def test_identity_matrices(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_plus_plus_uniform(self):
        result = tensor(plus_state(), plus_state())
        np.testing.assert_allclose(result.amplitudes, [0.5] * 4)

    def test_density_shapes_concatenate(self):
        result = tensor(maximally_mixed(2), maximally_mixed(3))
        assert result.shape == (2, 3)
        np.testing.assert_allclose(result.matrix, np.eye(6) / 6)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(basis_state(2, 0), maximally_mixed(2))


def same_bytes(actual, expected):
    return actual.dtype == expected.dtype and actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


class TestKron:
    # _kron takes np.kron's products as one broadcast multiply: the same operand pairs under the same ufunc.

    @staticmethod
    def signed_zeros(array):
        """Zeros of both signs: every third entry scaled by -0.0, every fourth complex one -0.0 - 0.0j, every fifth +0.0."""
        flat = array.reshape(-1).copy()
        flat[::3] *= -0.0
        if np.iscomplexobj(flat):
            flat[1::4] = complex(-0.0, -0.0)
        flat[::5] = 0.0
        return flat.reshape(array.shape)

    def test_vectors(self):
        g = rng.stream(0, "kron/vectors")
        for da, db in [(1, 1), (2, 3), (3, 2), (4, 4), (8, 5)]:
            a = g.normal(size=da) + 1j * g.normal(size=da)
            b = g.normal(size=db) + 1j * g.normal(size=db)
            for pair in [(a, b), (self.signed_zeros(a), b), (a.real, b), (a, self.signed_zeros(b).real)]:
                assert same_bytes(_kron(*pair), np.kron(*pair))

    @pytest.mark.parametrize("da", range(2, 9))
    def test_square_matrices(self, da):
        g = rng.stream(da, "kron/matrices")
        for db in range(2, 9):
            a = g.normal(size=(da, da)) + 1j * g.normal(size=(da, da))
            b = g.normal(size=(db, db)) + 1j * g.normal(size=(db, db))
            cases = [(a, b), (a.real, b), (a, b.real), (a, np.eye(db)), (np.eye(da), b), (self.signed_zeros(a), b)]
            cases += [(a, self.signed_zeros(b)), (self.signed_zeros(a).real, self.signed_zeros(b))]
            for pair in cases:
                assert same_bytes(_kron(*pair), np.kron(*pair))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_kron_all_of_hadamards(self, n):
        expected = np.asarray(HADAMARD, dtype=complex)
        for _ in range(n - 1):
            expected = np.kron(expected, HADAMARD)
        assert same_bytes(kron_all(*([HADAMARD] * n)), expected)

    def test_tensor_of_every_kind(self):
        g = rng.stream(1, "kron/tensor")
        psi, phi = random_pure_state(2, g), random_pure_state(3, g)
        rho, sigma = random_density(2, g), random_density(3, g)
        assert same_bytes(tensor(psi, phi).amplitudes, np.kron(psi.amplitudes, phi.amplitudes))
        assert same_bytes(tensor(rho, sigma).matrix, np.kron(rho.matrix, sigma.matrix))
        h = UnitaryOperator(HADAMARD)
        assert same_bytes(tensor(h, h).matrix, np.kron(h.matrix, h.matrix))
        assert same_bytes(tensor(rho.matrix, np.eye(3)), np.kron(rho.matrix, np.eye(3)))


def test_no_module_calls_np_kron():
    # Every Kronecker product goes through hilbert._kron, which skips np.kron's per-call axis bookkeeping.
    places = [
        (module, enclosing_function(node, parents))
        for module, tree, parents in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "kron"
    ]
    assert places == []


class TestSpectralDecompose:
    def test_pauli_z(self):
        dec = spectral_decompose(PAULI_Z)
        assert dec.eigenvalues == (-1.0, 1.0)
        np.testing.assert_allclose(dec.projectors[0], basis_state(2, 1).projector(), atol=1e-12)
        np.testing.assert_allclose(dec.projectors[1], basis_state(2, 0).projector(), atol=1e-12)

    def test_identity_merges_to_one_outcome(self):
        dec = spectral_decompose(np.eye(2, dtype=complex))
        assert dec.eigenvalues == (1.0,)
        np.testing.assert_allclose(dec.projectors[0], np.eye(2), atol=1e-12)

    def test_near_degenerate_merge(self):
        # Two eigenvalues 1e-12 apart merge under a 1e-9 tolerance; the
        # merged projector must be idempotent with rank 2 (direct check).
        dec = spectral_decompose(np.diag([2.0, 2.0 + 1e-12, 5.0]).astype(complex))
        assert len(dec.eigenvalues) == 2
        assert dec.eigenvalues[0] == pytest.approx(2.0, abs=1e-11)
        assert dec.eigenvalues[1] == pytest.approx(5.0)
        merged = dec.projectors[0]
        np.testing.assert_allclose(merged @ merged, merged, atol=1e-10)
        assert np.trace(merged).real == pytest.approx(2.0, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            spectral_decompose(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_projector_algebra_on_random_matrices(self):
        # Completeness, orthogonality and reconstruction for random inputs.
        for seed in range(10):
            g = rng.stream(seed, "spectral")
            dim = int(g.integers(2, 9))
            matrix = np.asarray(g.normal(size=(dim, dim)) + 1j * g.normal(size=(dim, dim)))
            matrix = (matrix + matrix.conj().T) / 2
            dec = spectral_decompose(matrix)
            total = sum(dec.projectors)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
            for i, p in enumerate(dec.projectors):
                np.testing.assert_allclose(p @ p, p, atol=1e-10)
                for q in dec.projectors[i + 1 :]:
                    np.testing.assert_allclose(p @ q, 0, atol=1e-10)
            np.testing.assert_allclose(dec.reconstruct(), matrix, atol=1e-9)


class TestPartialTrace:
    def test_bell_state_is_maximally_mixed(self):
        reduced = partial_trace(bell_state("phi+"), keep=0)
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self):
        state = tensor(basis_state(2, 0), plus_state())
        reduced = partial_trace(state, keep=0)
        np.testing.assert_allclose(reduced.matrix, basis_state(2, 0).projector(), atol=1e-12)

    def test_mixture_against_contraction_oracle(self):
        zero_zero = tensor(basis_state(2, 0), basis_state(2, 0))
        one_plus = tensor(basis_state(2, 1), plus_state())
        rho = DensityOperator(0.5 * zero_zero.projector() + 0.5 * one_plus.projector(), (2, 2))
        reduced = partial_trace(rho, keep=1)
        expected = 0.5 * basis_state(2, 0).projector() + 0.5 * plus_state().projector()
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)
        oracle = brute_force_partial_trace(rho.matrix, (2, 2), keep=1)
        np.testing.assert_allclose(reduced.matrix, oracle, atol=1e-12)

    def test_random_states_match_oracle(self):
        for seed in range(6):
            g = rng.stream(seed, "ptrace")
            dims = (2, 3) if seed % 2 else (3, 2)
            rho = random_density(dims[0] * dims[1], g).with_shape(dims)
            for keep in (0, 1):
                reduced = partial_trace(rho, keep)
                oracle = brute_force_partial_trace(rho.matrix, dims, keep)
                np.testing.assert_allclose(reduced.matrix, oracle, atol=1e-12)

    def test_expectation_compatibility(self):
        # Tr[(X tensor I) rho] = Tr[X Tr_B rho] for random rho and X.
        g = rng.stream(3, "ptrace/compat")
        rho = random_density(4, g).with_shape((2, 2))
        reduced = partial_trace(rho, keep=0)
        for _ in range(5):
            x = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
            x = (x + x.conj().T) / 2
            lhs = np.trace(np.kron(x, np.eye(2)) @ rho.matrix)
            rhs = np.trace(x @ reduced.matrix)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_tensor_then_trace_recovers_factors(self):
        g = rng.stream(5, "ptrace/roundtrip")
        a = random_density(2, g)
        b = random_density(3, g)
        product = tensor(a, b)
        np.testing.assert_allclose(partial_trace(product, 0).matrix, a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(product, 1).matrix, b.matrix, atol=1e-12)

    def test_invalid_subsystem_index(self):
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(bell_state("phi+"), keep=2)
        with pytest.raises(ValueError, match="two subsystems"):
            partial_trace(maximally_mixed(2), keep=0)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 0)) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_half_overlap(self):
        assert fidelity(basis_state(2, 0), plus_state()) == pytest.approx(0.5)

    def test_pure_mixed_agrees_with_pure_pure(self):
        psi = random_pure_state(3, rng.stream(1, "fid"))
        phi = random_pure_state(3, rng.stream(2, "fid"))
        assert fidelity(psi, phi.to_density()) == pytest.approx(fidelity(psi, phi), abs=1e-12)

    def test_mixed_mixed_symmetric_and_bounded(self):
        g = rng.stream(4, "fid/mixed")
        for _ in range(5):
            a = random_density(3, g)
            b = random_density(3, g)
            f_ab = fidelity(a, b)
            f_ba = fidelity(b, a)
            assert f_ab == pytest.approx(f_ba, abs=1e-10)
            assert 0.0 <= f_ab <= 1.0
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fidelity(basis_state(2, 0), basis_state(3, 0))


class TestEvolve:
    def test_hadamard_on_zero(self):
        result = evolve(basis_state(2, 0), UnitaryOperator(HADAMARD))
        assert result.ray_equal(plus_state())

    def test_identity_on_density(self):
        rho = maximally_mixed(2)
        result = evolve(rho, UnitaryOperator(np.eye(2)))
        np.testing.assert_allclose(result.matrix, rho.matrix)

    def test_z_flips_plus_to_minus(self):
        result = evolve(plus_state(), UnitaryOperator(PAULI_Z))
        minus = StateVector(np.array([1.0, -1.0]) / np.sqrt(2))
        assert result.ray_equal(minus)

    def test_invariants_preserved_on_random_input(self):
        g = rng.stream(8, "evolve")
        for _ in range(5):
            mat = g.normal(size=(4, 4)) + 1j * g.normal(size=(4, 4))
            q, _ = np.linalg.qr(mat)
            unitary = UnitaryOperator(q)
            psi = random_pure_state(4, g)
            assert abs(np.linalg.norm(evolve(psi, unitary).amplitudes) - 1) < 1e-12
            rho = random_density(4, g)
            out = evolve(rho, unitary)
            assert abs(np.trace(out.matrix).real - 1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            evolve(basis_state(2, 0), UnitaryOperator(np.eye(4)))


# Admitted at UNITARY_TOL, not at NORM_TOL: the state U|0> has |psi|^2 = 0.9999999999814809.
_H = 0.70710678118
_C = np.sqrt((1 + 0.9e-10) / 2)  # a unitary defect of 9.0e-11, whose Kronecker square has 1.8e-10


def near_h():
    return UnitaryOperator([[_H, _H], [_H, -_H]])


def near_h_state():
    return evolve(basis_state(2, 0), near_h())


class TestDerivedValuesAreNotCheckedAgain:
    @pytest.mark.parametrize(
        "derive",
        [
            lambda: tensor(near_h_state(), basis_state(2, 0)),
            lambda: near_h_state().with_shape((2,)),
            lambda: near_h_state().to_density(),
            lambda: evolve(basis_state(2, 0).to_density(), near_h()).with_shape((2,)),
            lambda: tensor(*[UnitaryOperator([[_C, _C], [_C, -_C]])] * 2),
        ],
        ids=["tensor-state", "state-with-shape", "to-density", "density-with-shape", "tensor-unitary"],
    )
    def test_a_value_derived_from_an_accepted_one_is_returned(self, derive):
        assert derive().dim in (2, 4)

    @pytest.mark.parametrize("state", [basis_state(4, 0), maximally_mixed(4)], ids=["vector", "density"])
    def test_with_shape_still_checks_the_shape(self, state):
        with pytest.raises(ValueError, match="does not factor"):
            state.with_shape((3,))

    def test_derived_values_keep_the_constructor_bytes(self):
        psi = StateVector(np.array([3.0, 4.0j]) / 5.0, (2,))
        assert psi.with_shape((2,)).amplitudes.tobytes() == StateVector(psi.amplitudes).amplitudes.tobytes()
        assert not psi.to_density().matrix.flags.writeable
        assert repr(tensor(psi, psi)) == "StateVector(dim=4, shape=(2, 2))"
        assert repr(near_h()) == "UnitaryOperator(dim=2)"

    @pytest.mark.parametrize("amplitudes", [[np.inf, 1.0], [np.nan, 1.0], [0.0, 0.0]], ids=["inf", "nan", "zero"])
    def test_normalized_refuses_a_norm_not_finite_and_positive_without_a_warning(self, amplitudes):
        with pytest.raises(ValueError, match="norm"):
            StateVector.normalized(amplitudes)

    def test_random_density_refuses_rank_zero_without_a_warning(self):
        with pytest.raises(ValueError, match="rank"):
            random_density(2, rng.stream(0, "rank"), rank=0)


VALUE_TYPES = {"StateVector", "DensityOperator", "UnitaryOperator"}
# Where data enters: the presets and the config resolvers (no-cloning's unitary is resolved next to its record).
# Everything else derives and wraps with _unchecked.
ENTRY_POINTS = {
    *(("hilbert.py", preset) for preset in ("basis_state", "plus_state", "bell_state", "maximally_mixed")),
    ("harness/config.py", "resolve_state"),
    ("harness/runner.py", "resolve_unitary"),
}


def test_value_type_constructors_run_only_where_data_enters():
    # Observable is out of scope: its constructor computes the spectral decomposition.
    places = {
        (module, enclosing_function(call, parents))
        for module, tree, parents in parsed_sources()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and (called_name(call) in VALUE_TYPES or (module == "hilbert.py" and called_name(call) == "cls"))
    }
    assert places == ENTRY_POINTS


def test_no_module_builds_its_classes_with_generated_code():
    # Records are plain slotted classes (hilbert._Record): decorating 19 classes and 3 named tuples cost ~15 ms at import.
    offending = set()
    for module, tree, _ in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module, *(alias.name for alias in node.names)}
            elif isinstance(node, ast.ClassDef):
                names = {base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None) for base in node.bases}
            elif isinstance(node, ast.Call):
                names = {called_name(node)}
            else:
                continue
            offending.update((module, name) for name in names & {"dataclasses", "NamedTuple", "namedtuple"})
    assert not offending


def test_importing_the_harness_leaves_dataclasses_unimported():
    # numpy does not import dataclasses, so a fresh process that imports pqt never pays for the module.
    env = {**os.environ, "PYTHONPATH": str(Path(pqt.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", "import sys, pqt.harness.runner; print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout.split() == ["['numpy']"]


def test_pauli_matrix_strings():
    np.testing.assert_allclose(pauli_matrix("ZX"), np.kron(PAULI_Z, PAULI_X))
    with pytest.raises(ValueError, match="invalid Pauli label"):
        pauli_matrix("Q")


def test_pauli_matrix_runs_without_numpy2_popcount(monkeypatch):
    # pyproject allows numpy>=1.24; np.bitwise_count only exists from NumPy 2.0.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    letters = {"I": np.eye(2), "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    for label in ("YZXZ", "ZYIXZY"):
        expected = np.array([[1.0]])
        for ch in label:
            expected = np.kron(expected, letters[ch])
        np.testing.assert_array_equal(pauli_matrix(label), expected)


def test_bell_states_are_orthonormal():
    names = ["phi+", "phi-", "psi+", "psi-"]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            overlap = abs(np.vdot(bell_state(a).amplitudes, bell_state(b).amplitudes)) ** 2
            assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
