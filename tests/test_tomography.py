import ast
import functools
import inspect
import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import _ZeroUniforms, position
from frame_reference import (
    ReferencePauliString,
    column_gell_mann_frame,
    column_pauli_frame,
    frame_matrices,
    frame_observables,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import pqt
from pqt import composite, hilbert, rng, tomography
from pqt.harness import parse_config, run
from pqt.hilbert import (
    DensityOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    basis_state,
    bell_state,
    maximally_mixed,
    partial_trace,
    plus_state,
    random_density,
    random_hermitian,
    random_pure_state,
    fidelity,
    kron_all,
)
from pqt.composite import _local_ic_set
from pqt.measurement import (
    Observable,
    PSystem,
    _cdf_index,
    _cdf_table,
    born_distribution,
    repeated_measure,
)
from pqt.protocols import proper_vs_improper
from pqt.tomography import (
    CONFIDENCE_Z,
    _frame_table,
    _inversion_stack,
    _projected_purities,
    _projection_stack,
    _sample_frame,
    estimate_expectations,
    estimate_spectrum,
    discriminate,
    hermitian_basis_ic_set,
    ic_set_for_dimension,
    linear_inversion,
    pauli_ic_set,
    GellMannFrame,
    PauliFrame,
    project_to_physical,
    reconstruct_single_copy,
)


class TestPauliICSet:
    def test_single_qubit_is_xyz(self):
        ic = pauli_ic_set(1)
        assert ic.names == ("X", "Y", "Z")

    def test_two_qubits_count(self):
        assert len(pauli_ic_set(2)) == 15

    def test_gram_matrix_is_diagonal(self):
        # Direct Gram computation under Tr(AB)/2 for the qubit set.
        mats = dense_matrices(pauli_ic_set(1))
        gram = np.array([[np.trace(a @ b).real / 2 for b in mats] for a in mats])
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="1..6"):
            pauli_ic_set(7)

    @pytest.mark.parametrize("dim", [1, 65, 128])
    def test_a_dimension_out_of_range_is_named_as_a_dimension(self, dim):
        with pytest.raises(ValueError, match=r"^supported range is dimension 2\.\.64$"):
            ic_set_for_dimension(dim)


def kronecker_pauli(label: str) -> np.ndarray:
    """A Pauli string as the Kronecker product of its letters."""
    letters = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    return kron_all(*(letters[ch] for ch in label))


def dense_matrices(ic):
    """The dense matrix of every observable of a frame, in frame order, from its own arrays.

    A ``PauliFrame`` string at grid entry z * d + m is i^popcount(m & z) (-1)^popcount(x & z) at (x ^ m, x), with its
    power of i from ``powers`` and its rows from ``flips``.  A ``GellMannFrame`` pair (j, k) = (``low``, ``high``)
    is sym, 1/sqrt(2) at (k, j) and (j, k), then anti, i/sqrt(2) at (k, j) and -i/sqrt(2) at (j, k); diag_l is row
    l - 1 of ``weights`` on the diagonal.
    """
    matrices = np.zeros((len(ic), ic.dim, ic.dim), dtype=complex)
    strings, columns = np.arange(len(ic))[:, None], np.arange(ic.dim)
    if isinstance(ic, PauliFrame):
        z_masks, x_masks = np.divmod(ic.order, ic.dim)
        signs = np.where(hilbert._odd_parity(columns & z_masks[:, None], ic.dim.bit_length() - 1), -1.0, 1.0)
        matrices[strings, ic.flips[x_masks], columns] = ic.powers[:, None] * signs
    else:
        sym = 2 * np.arange(len(ic.low))
        matrices[sym, ic.high, ic.low] = matrices[sym, ic.low, ic.high] = 1.0 / np.sqrt(2.0)
        matrices[sym + 1, ic.high, ic.low] = 1.0j / np.sqrt(2.0)
        matrices[sym + 1, ic.low, ic.high] = -1.0j / np.sqrt(2.0)
        matrices[2 * len(ic.low) :, columns, columns] = ic.weights
    return list(matrices)


GELL_MANN_FRAMES = {f"gell-mann-{dim}": functools.partial(hermitian_basis_ic_set, dim) for dim in range(2, 10)}


def dense_sum(means, ic):
    """I/d + sum_k means[k] O_k / norm over the dense reference matrices, one term at a time in frame order."""
    dense = np.eye(ic.dim, dtype=complex) / ic.dim
    for mean, matrix in zip(means, frame_matrices(ic), strict=True):
        dense = dense + mean * (matrix / ic.norm)
    return dense


@pytest.mark.parametrize("frame", GELL_MANN_FRAMES)
class TestGellMannFramesEqualTheDenseDefinition:
    @staticmethod
    def states(ic):
        g = rng.stream(ic.dim, "gell-mann/states")
        return random_pure_state(ic.dim, g), random_density(ic.dim, g), random_density(ic.dim, g, rank=2)

    def test_arrays_are_the_dense_matrices(self, frame):
        ic = GELL_MANN_FRAMES[frame]()
        for matrix, expected in zip(dense_matrices(ic), frame_matrices(ic), strict=True):
            np.testing.assert_array_equal(matrix, expected)

    def test_born_rows_equal_the_dense_projector_probabilities(self, frame):
        ic = GELL_MANN_FRAMES[frame]()
        observables = frame_observables(ic)
        for values, obs in zip(ic.values, observables, strict=True):
            # Analytic outcome values and eigh's can differ in the last bit (1 of 63 rows at d = 8, 1 of 80 at d = 9).
            np.testing.assert_allclose(values[: len(obs.eigenvalues)], obs.eigenvalues, rtol=0, atol=1e-12)
            assert not values[len(obs.eigenvalues) :].any()
        for state in self.states(ic):
            for row, obs in zip(ic.born_rows(state), observables, strict=True):
                expected = obs.outcome_probabilities(state)
                np.testing.assert_allclose(row[: len(expected)], expected, rtol=0, atol=gell_mann_tolerance(ic.dim))
                assert not row[len(obs.eigenvalues) :].any()


def gell_mann_tolerance(dim):
    """How far a Gell-Mann frame's Born rows may lie from the dense definitions: 2 d eps, set by the float64 epsilon."""
    return 2 * dim * np.finfo(float).eps


@pytest.mark.parametrize("dim", [3, 5, 6, 7, 48, 63])
class TestGellMannPlan:
    """A Gell-Mann frame's entry plan against the column kernel it replaced: inversion and projector coefficients
    bit for bit, Born rows within 2 d eps."""

    def test_born_rows_equal_the_column_kernel(self, dim):
        ic, g = hermitian_basis_ic_set(dim), rng.stream(dim, "gell-mann/plan/born")
        reference = column_gell_mann_frame(ic)
        for state in (random_pure_state(dim, g), random_density(dim, g), random_density(dim, g, rank=2)):
            rows = ic.born_rows(state)
            assert rows.shape == ic.values.shape
            np.testing.assert_allclose(rows, reference.born_rows(state), rtol=0, atol=gell_mann_tolerance(dim))

    def test_projector_coefficients_are_those_of_every_row(self, dim):
        # Taken from the d distinct rows into frame order: _lagrange on the whole table gives the same bits.
        ic = hermitian_basis_ic_set(dim)
        sizes = np.full(len(ic), ic.values.shape[1])
        sizes[-1] = 2  # diag_{d-1} has no zero outcome
        assert ic.lagrange.tobytes() == tomography._lagrange(np.ascontiguousarray(ic.values), sizes).tobytes()

    def test_inversion_is_the_column_kernel_bit_for_bit(self, dim):
        # Exact zeros of either sign too: every entry takes the column kernel's additions, signed zeros included.
        ic = hermitian_basis_ic_set(dim)
        means = rng.stream(dim, "gell-mann/plan/inversion").uniform(-1.0, 1.0, size=(3, len(ic)))
        means[1, ::3], means[2, ::5] = 0.0, -0.0
        expected = _inversion_stack(means, column_gell_mann_frame(ic))
        assert _inversion_stack(means, ic).tobytes() == expected.tobytes()
        for row, matrix in zip(means, expected, strict=True):
            assert linear_inversion(row.tolist(), ic).tobytes() == matrix.tobytes()


@pytest.mark.parametrize("method", ["born_rows", "add_terms"])
def test_gell_mann_kernels_run_no_python_loop(method):
    tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(GellMannFrame, method))))
    loops = (ast.For, ast.AsyncFor, ast.While, ast.comprehension)
    assert not [type(node).__name__ for node in ast.walk(tree) if isinstance(node, loops)]


def walsh_tolerance(n_qubits):
    """How far a Pauli frame's transforms may lie from the dense definitions: 4 n eps, set by the float64 epsilon."""
    return 4 * n_qubits * np.finfo(float).eps


def kronecker_sums(means, ic):
    """I/d + sum_k means[t, k] S_k / norm for each row t of ``means``, over the Kronecker products, string by string."""
    dense = np.broadcast_to(np.eye(ic.dim, dtype=complex) / ic.dim, (len(means), ic.dim, ic.dim)).copy()
    for column, name in zip(means.T, ic.names, strict=True):
        dense += column[:, None, None] * (kronecker_pauli(name) / ic.norm)
    return dense


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
class TestWalshHadamardKernel:
    """A Pauli frame's transforms against the Kronecker definition and the column kernel it replaced, within 4 n eps."""

    def test_born_rows_equal_the_kronecker_probabilities_and_the_column_kernel(self, n_qubits):
        dim = 2**n_qubits
        g = rng.stream(n_qubits, "walsh/born")
        ic, reference = pauli_ic_set(n_qubits), column_pauli_frame(n_qubits)
        states = (random_pure_state(dim, g), random_density(dim, g), random_density(dim, g, rank=2))
        rows = [ic.born_rows(state) for state in states]
        for row, state in zip(rows, states):
            np.testing.assert_allclose(row, reference.born_rows(state), rtol=0, atol=walsh_tolerance(n_qubits))
        expectations = np.empty((len(ic), len(states)))
        for k, name in enumerate(ic.names):
            matrix = kronecker_pauli(name)
            psi = states[0].amplitudes
            expectations[k] = [np.vdot(psi, matrix @ psi).real] + [np.trace(matrix @ rho.matrix).real for rho in states[1:]]
        for row, expectation in zip(rows, expectations.T):
            expected = np.stack([(1.0 - expectation) / 2, (1.0 + expectation) / 2], axis=1)
            np.testing.assert_allclose(row, expected, rtol=0, atol=walsh_tolerance(n_qubits))

    def test_inversion_equals_the_kronecker_sum_and_the_column_kernel(self, n_qubits):
        ic, reference = pauli_ic_set(n_qubits), column_pauli_frame(n_qubits)
        means = rng.stream(n_qubits, "walsh/inversion").uniform(-1.0, 1.0, size=(4, len(ic)))
        stack, expected = _inversion_stack(means, ic), _inversion_stack(means, reference)
        dense = kronecker_sums(means, ic)
        for row, matrix, column_sum, dense_sum in zip(means, stack, expected, dense, strict=True):
            single = linear_inversion(row.tolist(), ic)
            for fast in (matrix, single):
                np.testing.assert_allclose(fast, column_sum, rtol=0, atol=walsh_tolerance(n_qubits))
                np.testing.assert_allclose(fast, dense_sum, rtol=0, atol=walsh_tolerance(n_qubits))

    def test_transform_is_the_walsh_sign_sum(self, n_qubits):
        dim = 2**n_qubits
        columns = np.arange(dim)
        signs = np.where(hilbert._odd_parity(columns & columns[:, None], n_qubits), -1.0, 1.0)
        data = rng.stream(n_qubits, "walsh/signs").normal(size=(3, dim, 5, 2)).view(complex)[..., 0]
        np.testing.assert_allclose(tomography._walsh_hadamard(data.copy()), signs @ data, rtol=0, atol=1e-12)


class TestPauliMasks:
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_derived_matrix_equals_kronecker_product(self, n_qubits):
        ic = pauli_ic_set(n_qubits)
        for matrix, name in zip(dense_matrices(ic), ic.names, strict=True):
            np.testing.assert_array_equal(matrix, kronecker_pauli(name))

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_born_probabilities_match_dense_projectors(self, n_qubits):
        dim = 2**n_qubits
        g = rng.stream(n_qubits, "pauli/born")
        pure = [random_pure_state(dim, g) for _ in range(3)]
        mixed = [random_density(dim, g) for _ in range(2)] + [random_density(dim, g, rank=2)]
        identity = np.eye(dim)
        ic = pauli_ic_set(n_qubits)
        rows = {id(state): ic.born_rows(state) for state in pure + mixed}
        for k, name in enumerate(ic.names):
            matrix = kronecker_pauli(name)
            projectors = ((identity - matrix) / 2, (identity + matrix) / 2)
            for psi in pure:
                dense = [np.vdot(psi.amplitudes, p @ psi.amplitudes).real for p in projectors]
                np.testing.assert_allclose(rows[id(psi)][k], dense, rtol=0, atol=1e-14)
            for rho in mixed:
                dense = [np.trace(p @ rho.matrix).real for p in projectors]
                np.testing.assert_allclose(rows[id(rho)][k], dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_linear_inversion_equals_dense_sum_bit_for_bit(self, n_qubits):
        # One butterfly pass or two take the dense sum's operations; from three qubits on, see TestWalshHadamardKernel.
        ic = pauli_ic_set(n_qubits)
        means = [float(m) for m in rng.stream(n_qubits, "pauli/inversion").uniform(-1.0, 1.0, size=len(ic))]
        dense = np.eye(ic.dim, dtype=complex) / ic.dim
        for mean, name in zip(means, ic.names):
            dense = dense + mean * (kronecker_pauli(name) / ic.norm)
        fast = linear_inversion(means, ic)
        np.testing.assert_array_equal(fast, dense)
        assert fast.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("frame", GELL_MANN_FRAMES)
    def test_dense_frames_invert_as_the_dense_sum(self, frame):
        # Singly and as a stack, every entry takes its terms in frame order, as the dense sum does.
        ic = GELL_MANN_FRAMES[frame]()
        means = rng.stream(ic.dim, "dense/inversion").uniform(-1.0, 1.0, size=(3, len(ic)))
        for row, matrix in zip(means, _inversion_stack(means, ic), strict=True):
            expected = dense_sum(row.tolist(), ic).tobytes()
            assert linear_inversion(row.tolist(), ic).tobytes() == expected
            assert matrix.tobytes() == expected

    @pytest.mark.parametrize("frame", ["pauli-1", "pauli-3", "pauli-6", "gell-mann-3"])
    def test_a_stack_of_means_inverts_as_each_row_alone_bit_for_bit(self, frame):
        ic = pauli_ic_set(int(frame[-1])) if frame.startswith("pauli") else hermitian_basis_ic_set(3)
        means = rng.stream(7, f"inversion/stack/{frame}").uniform(-1.0, 1.0, size=(4, len(ic)))
        stack = _inversion_stack(means, ic)
        assert stack.shape == (4, ic.dim, ic.dim)
        for row, matrix in zip(means, stack):
            assert matrix.tobytes() == linear_inversion(row.tolist(), ic).tobytes()

    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4, 5, 6])
    def test_plan_is_each_labels_string(self, n_qubits):
        labels = ["".join(letters) for letters in itertools.product("IXYZ", repeat=n_qubits)][1:]
        ic = pauli_ic_set(n_qubits)
        assert list(ic.names) == labels
        assert not any(array.flags.writeable for array in (ic.values, ic.lagrange, ic.order, ic.powers, ic.flips))
        for matrix, label in zip(dense_matrices(ic), labels, strict=True):
            reference = ReferencePauliString(label)
            columns, rows = np.nonzero(matrix.T)  # column by column: the row of each column's nonzero
            np.testing.assert_array_equal(columns, np.arange(ic.dim))
            np.testing.assert_array_equal(rows, reference.rows)
            assert matrix[rows, columns].tobytes() == reference.phase.tobytes()

    @pytest.mark.parametrize("n_qubits", [1, 3, 6])
    def test_frame_born_rows_equal_each_strings_probabilities(self, n_qubits):
        # One butterfly pass takes the reference's operations; more sum in another order, within 4 n eps.
        dim = 2**n_qubits
        g = rng.stream(n_qubits, "pauli/frame-rows")
        ic = pauli_ic_set(n_qubits)
        for state in (random_pure_state(dim, g), random_density(dim, g), random_density(dim, g, rank=2)):
            table = _frame_table(ic, state)
            expected = np.clip(np.stack([obs.outcome_probabilities(state) for obs in frame_observables(ic)]), 0.0, None)
            if n_qubits == 1:
                assert table.probabilities.tobytes() == expected.tobytes()
            np.testing.assert_allclose(table.probabilities, expected, rtol=0, atol=walsh_tolerance(n_qubits))
            assert ic.values.tolist() == [[-1.0, 1.0]] * len(ic)

    def test_frame_born_rows_run_without_numpy2_vecdot(self, monkeypatch):
        # pyproject allows numpy>=1.24; np.vecdot only exists from NumPy 2.0.
        ic, state = pauli_ic_set(2), random_pure_state(4, rng.stream(0, "pauli/numpy1"))
        expected = ic.born_rows(state)
        monkeypatch.delattr(np, "vecdot", raising=False)
        assert ic.born_rows(state).tobytes() == expected.tobytes()

    def test_frames_are_shared(self):
        assert ic_set_for_dimension(64) is ic_set_for_dimension(64)
        assert ic_set_for_dimension(3) is ic_set_for_dimension(3)

    def test_six_qubit_frame_build_is_small(self):
        # A d x d plan and no (k, d) table: byte codes and rows take 0.52 MB, complex phases and intp rows 6.3 MB.
        tracemalloc.start()
        try:
            ic = pauli_ic_set(6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6e6
        arrays = [value for value in ic._fields() if isinstance(value, np.ndarray)]
        assert len(arrays) == 5 and max(array.size for array in arrays) < len(ic) * ic.dim
        assert not any(array.flags.writeable for array in arrays)

    def test_six_qubit_run_stores_no_dense_string(self, monkeypatch):
        # 4095 dense 64x64 strings with two projectors each would take ~0.8 GB.
        kron_calls = []
        real_kron, real_hilbert_kron = np.kron, hilbert._kron
        monkeypatch.setattr(np, "kron", lambda *args: kron_calls.append(args) or real_kron(*args))
        for module in [m for name, m in sys.modules.items() if name.startswith("pqt") and hasattr(m, "_kron")]:
            monkeypatch.setattr(module, "_kron", lambda *args: kron_calls.append(args) or real_hilbert_kron(*args))
        tomography.ic_set_for_dimension.cache_clear()
        config = {"name": "r6", "protocol": "reconstruct", "shape": [2] * 6, "initial_state": "random-pure:1", "shots": 10}
        tracemalloc.start()
        try:
            run(parse_config(json.dumps(config)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kron_calls == []
        assert peak < 32 * 2**20
        # Every Observable, of any class and by any constructor, passes through Observable.__new__.  CPython
        # cannot take a patched __new__ back out of a class, so a child process runs with the patch.
        env = {**os.environ, "PYTHONPATH": str(Path(pqt.__file__).parents[1])}
        child = subprocess.run(
            [sys.executable, "-c", COUNT_OBSERVABLES, json.dumps(config)], env=env, capture_output=True, text=True, check=True
        )
        assert json.loads(child.stdout) == []


COUNT_OBSERVABLES = """
import json, sys
from pqt.harness import parse_config, run
from pqt.measurement import Observable

made = []
Observable.__new__ = lambda cls, *args, **kwargs: made.append(cls.__name__) or object.__new__(cls)
run(parse_config(sys.argv[1]))
print(json.dumps(made))
"""


NUMPY_MA_CHILD = """
import json, pathlib, sys
from pqt.harness import parse_config, run

for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    run(parse_config(path.read_text(encoding="utf-8")))
config = {"name": "r5", "protocol": "reconstruct", "dimension": 5, "initial_state": "random-pure:1", "shots": 100}
run(parse_config(json.dumps(config)))
print("numpy.ma" in sys.modules)
"""


def test_runs_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call: about 12 ms and 1 MB that a run would pay once.
    env = {**os.environ, "PYTHONPATH": str(Path(pqt.__file__).parents[1])}
    configs = Path(__file__).parents[1] / "configs"
    child = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_CHILD, str(configs)], env=env, capture_output=True, text=True, check=True
    )
    assert child.stdout.split() == ["False"]


def frame_bytes(ic):
    """What a frame holds: its arrays, and its names as a tuple of strings."""
    names = sys.getsizeof(ic.names) + sum(map(sys.getsizeof, ic.names))
    return names + sum(array.nbytes for array in ic._fields() if isinstance(array, np.ndarray))


def test_gell_mann_frames_are_built_as_arrays(monkeypatch):
    # As dense Observables, d = 63 would hold 3968 matrices of 63 x 63 (252 MB) before any projector.
    def refuse(*args, **kwargs):
        raise AssertionError("a frame build made a dense observable")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(Observable, "__init__", refuse)
    tracemalloc.start()
    try:
        ic = hermitian_basis_ic_set(63)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The plan is two (d(d-1)/2,) index arrays and a (d - 1, d) block: beyond what the frame holds, the build
    # allocates less than half of a (k, d) byte table, the smallest per-observable row array.
    assert {array.shape for array in (ic.low, ic.high, ic.weights)} == {(63 * 31,), (62, 63)}
    assert peak - frame_bytes(ic) < len(ic) * ic.dim // 2


def test_a_reduced_reconstruction_wider_than_a_byte_is_that_of_the_reduced_state():
    # d = 400: past what byte rows could index, yet side A's frame is measured on the 2 x 2 reduced state.
    state = random_pure_state(400, rng.stream(0, "lifted/wide/state"), shape=(2, 200))
    expected_sys = PSystem(partial_trace(state, 0), "passive", rng.stream(0, "lifted/wide/draws"))
    actual_sys = PSystem(state, "passive", rng.stream(0, "lifted/wide/draws"))
    expected = reconstruct_single_copy(expected_sys, hermitian_basis_ic_set(2), 200).estimate
    actual = composite.reconstruct_reduced_single_copy(actual_sys, 200)
    assert actual.matrix.tobytes() == expected.matrix.tobytes()
    assert position(actual_sys.rng) == position(expected_sys.rng)


@pytest.mark.parametrize(
    "factory, size",
    [(pauli_ic_set, n) for n in (1, 2, 3)] + [(hermitian_basis_ic_set, d) for d in range(2, 10)],
)
def test_every_built_set_is_an_orthogonal_frame(factory, size):
    # The promise linear inversion relies on: d^2 - 1 traceless observables
    # with Tr(O_j O_k) = norm * delta_jk.
    ic = factory(size)
    assert len(ic) == len(ic.names) == ic.dim**2 - 1
    matrices = dense_matrices(ic)
    np.testing.assert_allclose([np.trace(matrix) for matrix in matrices], 0.0, atol=1e-12)
    rows = np.stack([matrix.reshape(-1) for matrix in matrices])
    gram = rows.conj() @ rows.T
    np.testing.assert_allclose(gram, ic.norm * np.eye(len(ic)), rtol=0, atol=1e-12)


class TestHermitianBasisICSet:
    def test_dimension_two_reduces_to_paulis(self):
        ic = hermitian_basis_ic_set(2)
        mats = sorted(dense_matrices(ic), key=lambda m: abs(m[0, 0]))
        targets = [PAULI_X / np.sqrt(2), PAULI_Y / np.sqrt(2), PAULI_Z / np.sqrt(2)]
        for mat in mats:
            assert any(np.allclose(mat, t, atol=1e-12) or np.allclose(mat, -t, atol=1e-12) for t in targets)

    def test_count_for_qutrit(self):
        assert len(hermitian_basis_ic_set(3)) == 8

    def test_orthonormal_under_trace(self):
        ic = hermitian_basis_ic_set(4)
        mats = dense_matrices(ic)
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
                means = [np.trace(matrix @ rho.matrix).real for matrix in dense_matrices(ic)]
                np.testing.assert_allclose(linear_inversion(means, ic), rho.matrix, atol=1e-12)


class TestEstimateExpectations:
    def test_requires_passive_mode(self):
        sys = PSystem(basis_state(2, 0), "quantum", rng.stream(0, "est"))
        with pytest.raises(ValueError, match="passive mode"):
            estimate_expectations(sys, pauli_ic_set(1), 10)

    def test_deterministic_observable_is_exact(self):
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(1, "est"))
        means, half_widths = estimate_expectations(sys, pauli_ic_set(1), 100)
        assert means[2] == 1.0  # Z
        assert half_widths[2] == 0.0

    def test_plus_state_x_exact(self):
        ic = pauli_ic_set(1)
        sys = PSystem(plus_state(), "passive", rng.stream(2, "est"))
        means, _ = estimate_expectations(sys, ic, 100)
        assert means[ic.names.index("X")] == 1.0

    def test_noisy_mean_within_3_sigma(self):
        # Binomial oracle: <Z> estimate on |+> has sd 1/sqrt(n).
        n = 10_000
        sys = PSystem(plus_state(), "passive", rng.stream(42, "est/noise"))
        means, _ = estimate_expectations(sys, pauli_ic_set(1), n)
        z_mean = means[2]
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
                means = [np.trace(matrix @ rho.matrix).real for matrix in dense_matrices(ic)]
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

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_input_rejected_before_any_arithmetic(self, entry, monkeypatch):
        # Refused on entry with the constructor's message, not by the result's own check.
        monkeypatch.setattr(np.linalg, "eigh", lambda _: pytest.fail("a non-finite matrix reached eigh"))
        matrix = np.eye(2, dtype=complex) / 2
        matrix[0, 1] = entry
        with pytest.raises(ValueError, match="^density operator entries are not finite$"):
            project_to_physical(matrix)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32, 64])
    def test_output_passes_every_check_of_the_constructor(self, dim):
        # The result is wrapped unchecked: it must be a state all the same, also from inputs far outside the cone.
        g = rng.stream(dim, "proj/checked")
        negative = 0
        for trial in range(50):
            matrix = random_density(dim, g).matrix + (0.01, 0.3, 3.0)[trial % 3] * random_hermitian(dim, g)
            matrix += (1.0 - np.trace(matrix).real) / dim * np.eye(dim)
            negative += np.linalg.eigvalsh(matrix).min() < 0.0
            out = project_to_physical(matrix)
            assert out.shape == (dim,)
            DensityOperator(out.matrix)
        assert negative >= 15

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

    @pytest.mark.parametrize("dim", [2, 3, 8, 64])
    def test_a_stack_projects_as_each_matrix_alone_bit_for_bit(self, dim):
        g = rng.stream(dim, "proj/stack")
        matrices = []
        for trial in range(12 if dim < 64 else 3):
            matrix = random_density(dim, g).matrix + (0.01, 0.3, 3.0)[trial % 3] * random_hermitian(dim, g)
            matrices.append(matrix + (1.0 - np.trace(matrix).real) / dim * np.eye(dim))
        stack = np.array(matrices)
        assert (np.linalg.eigvalsh(stack).min(axis=-1) < 0.0).sum() >= len(matrices) // 3
        for matrix, projected in zip(matrices, _projection_stack(stack)):
            assert projected.tobytes() == project_to_physical(matrix).matrix.tobytes()

    def test_the_first_matrix_of_a_stack_far_from_unit_trace_is_named(self):
        stack = np.array([np.eye(2) / 2, np.diag([2.0, 0.5]), np.diag([3.0, 0.5])]).astype(complex)
        with pytest.raises(ValueError, match=r"^trace 2\.5 is too far from 1 to project$"):
            _projection_stack(stack)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_purities_are_those_of_the_projected_stack(self, dim):
        g = rng.stream(dim, "proj/purities")
        matrices = []
        for trial in range(30):
            matrix = random_density(dim, g).matrix + (0.01, 0.3, 3.0)[trial % 3] * random_hermitian(dim, g)
            matrices.append(matrix + (1.0 - np.trace(matrix).real) / dim * np.eye(dim))
        stack = np.array(matrices)
        assert (np.linalg.eigvalsh(stack).min(axis=-1) < 0.0).sum() >= len(matrices) // 3  # spectra that need clipping
        projected = _projection_stack(stack)
        dense = np.trace(projected @ projected, axis1=-2, axis2=-1).real
        np.testing.assert_allclose(_projected_purities(stack), dense, rtol=0.0, atol=32 * np.finfo(float).eps)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_a_stack_that_projects_to_pure_states_has_purity_exactly_one(self, dim):
        # a |psi><psi| - b (I - |psi><psi|) with a - b (d - 1) = 1 keeps one value: it becomes u + (1 - u), exactly 1.
        g = rng.stream(dim, "proj/pure")
        stack = []
        for b in (0.01, 0.05, 0.1):
            projector = random_pure_state(dim, g).projector()
            stack.append((1.0 + b * dim) * projector - b * np.eye(dim))
        assert _projected_purities(np.array(stack)).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_purities_refuse_non_finite_input_before_any_arithmetic(self, entry, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda _: pytest.fail("a non-finite matrix reached eigvalsh"))
        stack = np.array([np.eye(2) / 2] * 3, dtype=complex)
        stack[1, 0, 1] = entry
        with pytest.raises(ValueError, match="^density operator entries are not finite$"):
            _projected_purities(stack)

    def test_purities_name_the_first_matrix_far_from_unit_trace(self):
        stack = np.array([np.eye(2) / 2, np.diag([2.0, 0.5]), np.diag([3.0, 0.5])]).astype(complex)
        with pytest.raises(ValueError, match=r"^trace 2\.5 is too far from 1 to project$"):
            _projected_purities(stack)

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

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_candidates_rejected(self, count):
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(3, "disc"))
        with pytest.raises(ValueError, match=f"^need at least two candidates, got {count}$"):
            discriminate(sys, [basis_state(2, 0)] * count, pauli_ic_set(1), 100)
        assert position(sys.rng) == position(rng.stream(3, "disc"))  # refused before any draw


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

    def test_shots_are_one_multinomial_draw(self):
        state = random_pure_state(3, rng.stream(6, "spec/state"))
        obs = Observable("H", random_hermitian(3, rng.stream(6, "spec/obs")))
        expected_gen = rng.stream(6, "spec")
        actual_sys = PSystem(state, "passive", rng.stream(6, "spec"))
        (counts,) = reference_counts(expected_gen, [obs], state, 20)
        assert estimate_spectrum(actual_sys, obs, 20) == [obs.eigenvalues[i] for i in np.flatnonzero(counts)]
        assert position(actual_sys.rng) == position(expected_gen)

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


# The estimation written out: each observable's Born row, padded with zeros to
# the widest, and one multinomial draw of every row's outcome counts, put
# through the mean and spread formulas.  The row-wise frame sampler must return
# equal numbers and leave the system's generator as this does.


def reference_counts(gen, observables, state, shots):
    """Outcome counts of ``shots`` Born draws of each observable, each row divided by its CDF total as sampled."""
    rows = [born_distribution(obs, state).probabilities for obs in observables]
    raw = np.zeros((len(rows), max(row.size for row in rows)))
    for i, row in enumerate(rows):
        raw[i, : row.size] = row
    counts = gen.multinomial(shots, raw / np.cumsum(raw, axis=1)[:, -1:])
    return [row_counts[: row.size] for row_counts, row in zip(counts, rows)]


def count_moments(counts, values, shots):
    """Mean and population spread of outcomes from their counts."""
    values = np.asarray(values)
    mean = (counts * values).sum() / shots
    return mean, np.sqrt((counts * (values - mean) ** 2).sum() / shots)


def reference_estimates(sys, observables, shots):
    estimates = []
    for obs, counts in zip(observables, reference_counts(sys.rng, observables, sys.state, shots)):
        mean, spread = count_moments(counts, obs.eigenvalues, shots)
        estimates.append((obs.name, float(mean), float(CONFIDENCE_Z * spread / np.sqrt(shots))))
    return estimates


def reference_frame_inversion(sys, ic, observables, shots):
    return linear_inversion([mean for _, mean, _ in reference_estimates(sys, observables, shots)], ic)


def reference_frame_estimate(sys, ic, observables, shots):
    return project_to_physical(reference_frame_inversion(sys, ic, observables, shots))


def reference_proper_vs_improper(trials, shots, gen, mixture=None, purification=None):
    """Per-trial linear inversions; a mixture's members are all drawn first, one uniform per trial."""
    if mixture is not None:
        weights = np.array([w for _, w in mixture], dtype=float)
        members = _cdf_index(_cdf_table(weights[None]), gen.random(trials), None, None).tolist()
    inversions = []
    for trial in range(trials):
        if mixture is not None:
            state = mixture[members[trial]][0]
            ic = ic_set_for_dimension(state.dim)
            raw = reference_frame_inversion(PSystem(state, "passive", gen), ic, frame_observables(ic), shots)
        else:
            ic = _local_ic_set(purification.shape[0])
            observables = frame_observables(ic, purification.shape)
            raw = reference_frame_inversion(PSystem(purification, "passive", gen), ic, observables, shots)
        inversions.append(raw)
    return inversions


def reference_projected_purity(matrix):
    """Sum of p_i^2 over the simplex projection p of the spectrum of ``matrix``'s Hermitian part, one sum at a time."""
    values = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)  # ascending
    total = kept_total = 0.0
    for i, u in enumerate(values[::-1].tolist(), start=1):
        total += u
        if u + (1.0 - total) / i > 0.0:  # the largest such i is the number of values kept
            kept, kept_total = i, total
    projected = np.clip(values + (1.0 - kept_total) / kept, 0.0, None)
    return float((projected**2).sum())


FRAMES = {
    "pauli-1": lambda: pauli_ic_set(1),
    "pauli-2": lambda: pauli_ic_set(2),
    "pauli-3": lambda: pauli_ic_set(3),
    "gell-mann-3": lambda: hermitian_basis_ic_set(3),
}
SHOTS = (1, 7, 5000, 2**16 + 1, 10**7)


class TestFrameSamplerMatchesReference:
    @staticmethod
    def assert_same_run(state, ic, shots, seed):
        expected_sys = PSystem(state, "passive", rng.stream(seed, "eq/frame"))
        actual_sys = PSystem(state, "passive", rng.stream(seed, "eq/frame"))
        expected = reference_estimates(expected_sys, frame_observables(ic), shots)
        actual = list(zip(ic.names, *(column.tolist() for column in estimate_expectations(actual_sys, ic, shots))))
        assert actual == expected
        assert position(actual_sys.rng) == position(expected_sys.rng)

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
    def test_a_drawn_zero_probability_outcome_raises_as_repeated_measure_does(self, frame):
        # An all-zero stream draws the first outcome of positive weight, here 1e-13, below ZERO_PROBABILITY.
        ic = FRAMES[frame]()
        amplitudes = np.zeros(ic.dim)
        amplitudes[:2] = np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)
        state = StateVector(amplitudes)

        def measure_each(sys, observables, shots):
            for obs in observables:
                repeated_measure(sys, obs, shots)

        errors = []
        for estimate in (measure_each, lambda sys, obs, shots: estimate_expectations(sys, ic, shots)):
            with pytest.raises(ValueError, match="zero probability") as caught:
                estimate(PSystem(state, "passive", _ZeroUniforms()), frame_observables(ic), 3)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("shots", SHOTS)
    def test_lifted_qutrit_frame_of_a_reduced_reconstruction(self, shots):
        # Side A of a 3x3 system: Gell-Mann rows with three and with two outcomes, as dense lifts to A tensor I.
        from pqt.composite import reconstruct_reduced_single_copy

        state = random_pure_state(9, rng.stream(shots, "eq/lifted/state"), (3, 3))
        ic = _local_ic_set(3)
        lifted = frame_observables(ic, (3, 3))
        assert {len(obs.eigenvalues) for obs in lifted} == {2, 3}
        assert {obs.dim for obs in lifted} == {9}
        expected_sys = PSystem(state, "passive", rng.stream(shots, "eq/lifted"))
        actual_sys = PSystem(state, "passive", rng.stream(shots, "eq/lifted"))
        expected = reference_frame_estimate(expected_sys, ic, lifted, shots)
        actual = reconstruct_reduced_single_copy(actual_sys, shots)
        assert actual.matrix.tobytes() == expected.matrix.tobytes()
        assert position(actual_sys.rng) == position(expected_sys.rng)

    @pytest.mark.parametrize("presentation", ["mixture", "purification"])
    def test_proper_vs_improper(self, presentation):
        if presentation == "mixture":
            kwargs = {"mixture": [(basis_state(2, 0), 0.3), (plus_state(), 0.5), (basis_state(2, 1), 0.2)]}
        else:
            kwargs = {"purification": random_pure_state(6, rng.stream(1, "eq/purification"), (3, 2))}
        expected_gen, actual_gen = rng.stream(3, "eq/pvi"), rng.stream(3, "eq/pvi")
        inversions = reference_proper_vs_improper(40, 500, expected_gen, **kwargs)
        report = proper_vs_improper(40, 500, actual_gen, **kwargs)
        purities = [entry["purity"] for entry in report.log]
        assert purities == [reference_projected_purity(raw) for raw in inversions]
        assert position(actual_gen) == position(expected_gen)
        # The dense Tr(P^2) of each projected estimate sums other products: equal within a few eps, not bit for bit.
        dense = [project_to_physical(raw).purity() for raw in inversions]
        np.testing.assert_allclose(purities, dense, rtol=0.0, atol=1e-14)


class TestFrameMoments:
    @pytest.mark.parametrize(
        "frame, shots", [("pauli-1", 1), ("pauli-2", 7), ("pauli-3", 5000), ("gell-mann-3", 2**16 + 1)]
    )
    def test_moments_are_the_count_formulas_bit_for_bit_and_np_mean_and_std_of_the_outcomes(self, frame, shots):
        ic = FRAMES[frame]()
        state = random_pure_state(ic.dim, rng.stream(shots, f"spread/{frame}"))
        expected_gen = rng.stream(shots, "spread")
        actual_sys = PSystem(state, "passive", rng.stream(shots, "spread"))
        observables = frame_observables(ic)
        counts = reference_counts(expected_gen, observables, state, shots)
        expected = np.array([count_moments(c, obs.eigenvalues, shots) for c, obs in zip(counts, observables)])
        means, spreads = _sample_frame(actual_sys, ic, shots)
        assert means.tobytes() == expected[:, 0].tobytes()
        assert spreads.tobytes() == expected[:, 1].tobytes()
        assert position(actual_sys.rng) == position(expected_gen)
        # Against the outcomes the counts stand for: a Pauli mean is a sum of +-1, exact either way.
        outcomes = [np.repeat(obs.eigenvalues, c) for c, obs in zip(counts, observables)]
        np_mean, np_std = np.array([np.mean(o) for o in outcomes]), np.array([np.std(o) for o in outcomes])
        if frame.startswith("pauli"):
            assert means.tobytes() == np_mean.tobytes()
        assert np.all(np.abs(means - np_mean) <= 1e-15)
        assert np.all(np.abs(spreads - np_std) <= 4 * np.spacing(np_std))


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

    def test_one_qubit_memory_does_not_grow_with_shots(self):
        state = random_pure_state(2, rng.stream(3, "mem/state"))
        peaks = []
        for shots in (10**5, 4 * 10**6):
            sys = PSystem(state, "passive", rng.stream(3, "mem"))
            tracemalloc.start()
            try:
                estimate_expectations(sys, pauli_ic_set(1), shots)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2**20

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
