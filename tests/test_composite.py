import ast
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from conftest import _ZeroUniforms, called_name, enclosing_function, parsed_sources, philox_position, position
from dense_reference import bound, dense_joint, dense_projectors

from pqt import composite, rng
from pqt.composite import (
    CHSH_SOURCES,
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
    DensityOperator,
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
    tensor,
)
from pqt.measurement import Observable, PSystem, _cdf_counts, _cdf_table, born_distribution, measure
from pqt.tomography import estimate_expectations, estimate_spectrum, pauli_ic_set

Z = Observable("Z", PAULI_Z)
X = Observable("X", PAULI_X)
Y = Observable("Y", PAULI_Y)
PAULIS = {"Z": Z, "X": X, "Y": Y}


def analytic_joint_oracle(state, a_obs, b_obs):
    """Independent outer-product construction of Tr[(P_a x Q_b) rho]."""
    rho = state.projector() if isinstance(state, StateVector) else state.matrix
    table = {}
    for (a, pa), (b, qb) in itertools.product(
        zip(a_obs.eigenvalues, dense_projectors(a_obs)), zip(b_obs.eigenvalues, dense_projectors(b_obs))
    ):
        table[(a, b)] = float(np.trace(np.kron(pa, qb) @ rho).real)
    return table


class TestLiftLocal:
    def test_side_a_structure(self):
        lifted = lift_local(LocalSetting("A", Z), (2, 2))
        assert lifted.eigenvalues == (-1.0, 1.0)
        assert lifted.decomposition.bounds == (0, 2, 4)
        np.testing.assert_allclose(lifted.decomposition.reconstruct(), np.kron(PAULI_Z, np.eye(2)), atol=1e-12)
        expected = np.kron(basis_state(2, 0).projector(), np.eye(2))
        np.testing.assert_allclose(dense_projectors(lifted)[1], expected, atol=1e-12)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_each_outcome_is_the_lifted_projector(self, side):
        # Side B's columns I tensor v_j are regrouped by j, so each outcome's columns stay adjacent.
        g = rng.stream(0, f"lift/{side}")
        local = observable_with_values("H", [-1.0, 2.0, 2.0], g)
        lifted = lift_local(LocalSetting(side, local), (3, 2) if side == "A" else (2, 3))
        assert lifted.eigenvalues == local.eigenvalues and lifted.decomposition.bounds == (0, 2, 6)
        vectors = lifted.decomposition.vectors
        np.testing.assert_allclose(vectors.conj().T @ vectors, np.eye(6), atol=1e-12)
        for lifted_projector, projector in zip(dense_projectors(lifted), dense_projectors(local)):
            expected = np.kron(projector, np.eye(2)) if side == "A" else np.kron(np.eye(2), projector)
            np.testing.assert_allclose(lifted_projector, expected, atol=1e-12)

    def test_side_b_structure(self):
        lifted = lift_local(LocalSetting("B", X), (2, 2))
        np.testing.assert_allclose(lifted.decomposition.reconstruct(), np.kron(np.eye(2), PAULI_X), atol=1e-12)

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
        for index, projector in enumerate(dense_projectors(lifted)):
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


def first_basis_state(shape):
    return StateVector(np.eye(int(np.prod(shape)))[0], shape)


LOCAL_STATISTICS = {
    "joint_distribution_local_passive": lambda state, a_obs, b_obs: joint_distribution_local_passive(state, a_obs, b_obs),
    "local_passive_joint_sample": lambda state, a_obs, b_obs: local_passive_joint_sample(
        PSystem(state, "passive", rng.stream(0, "local/refusals")), LocalSetting("A", a_obs), LocalSetting("B", b_obs), 10
    ),
}


@pytest.mark.parametrize("entry", LOCAL_STATISTICS)
class TestLocalStatisticsRefuseAsLiftingDoes:
    # A partial trace alone would accept a tripartite state; the local paths refuse it as lift_local does.
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_a_state_that_is_not_bipartite(self, entry, shape):
        with pytest.raises(ValueError, match=f"^{re.escape(f'expected a bipartite shape, got {shape}')}$"):
            LOCAL_STATISTICS[entry](first_basis_state(shape), Z, Z)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((3, 2), "observable dimension 2 does not match subsystem A (3)"),
            ((2, 3), "observable dimension 2 does not match subsystem B (3)"),
            ((3, 3), "observable dimension 2 does not match subsystem A (3)"),
        ],
    )
    def test_an_observable_of_another_dimension_than_its_side(self, entry, shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LOCAL_STATISTICS[entry](first_basis_state(shape), Z, Z)


def test_only_the_signalling_check_lifts_a_local_observable():
    # Local statistics read the reduced states; the signalling check keeps its dense non-selective update.
    places = [
        (module, enclosing_function(call, parents))
        for module, tree, parents in parsed_sources()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and called_name(call) == "lift_local"
    ]
    assert sorted(set(places)) == [("composite.py", "signalling_check")]


def test_reduced_reconstruction_refuses_a_tripartite_system():
    sys = PSystem(first_basis_state((2, 2, 2)), "passive", rng.stream(0, "local/refusals"))
    with pytest.raises(ValueError, match="^expected a bipartite system$"):
        reconstruct_reduced_single_copy(sys, 10)


JOINT_DEVICES = {"global": joint_distribution_global, "local-passive": joint_distribution_local_passive}


class TestBothDevicesRefuseTheSameSides:
    def test_an_observable_of_another_dimension_than_its_side(self):
        # A 6x6 kron of a qutrit A-observable and a qubit B-observable fits a 2x3 state: only the side check refuses it.
        g = rng.stream(0, "sides/mismatch")
        state = random_pure_state(6, g, (2, 3))
        qutrit = Observable("H3", random_hermitian(3, g))
        messages = []
        for device in JOINT_DEVICES.values():
            with pytest.raises(ValueError) as refused:
                device(state, qutrit, Z)
            messages.append(str(refused.value))
        assert messages == ["observable dimension 3 does not match subsystem A (2)"] * 2

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_a_state_that_is_not_bipartite(self, shape):
        for device in JOINT_DEVICES.values():
            with pytest.raises(ValueError, match=f"^{re.escape(f'expected a bipartite shape, got {shape}')}$"):
                device(first_basis_state(shape), Z, Z)


def observable_with_values(name, values, gen):
    """An observable with the given eigenvalues, a repeated one degenerate, in a random basis."""
    basis = np.linalg.qr(random_hermitian(len(values), gen) + 1j * np.eye(len(values)))[0]
    return Observable(name, basis @ np.diag(values) @ basis.conj().T)


def with_levels(name, dim, levels, gen):
    """An observable on ``dim`` with ``levels`` distinct eigenvalues."""
    return observable_with_values(name, [-0.5, 0.5, 1.5][:levels] + [levels - 1.5] * (dim - levels), gen)


class TestGlobalTable:
    # The product eigenbasis against the per-cell dense rule, within 2 d eps entrywise (fixed before measuring;
    # the largest gap seen is 0.375 d eps).

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_equals_the_per_cell_loop_within_the_bound(self, shape):
        g = rng.stream(0, f"joint/stacked/{shape}")
        dim = int(np.prod(shape))
        sparse = random_pure_state(dim, g, shape).amplitudes.copy()
        sparse[::2] = 0.0  # zero amplitudes
        states = [
            random_pure_state(dim, g, shape),
            StateVector.normalized(sparse, shape),
            first_basis_state(shape),
            DensityOperator(random_density(dim, g).matrix, shape),
            DensityOperator(random_density(dim, g, rank=1).matrix, shape),
            maximally_mixed(dim, shape),
        ]
        a_list = [with_levels("A", shape[0], k, g) for k in range(1, shape[0] + 1)]
        b_list = [with_levels("B", shape[1], k, g) for k in range(1, shape[1] + 1)]
        a_list += [Z] if shape[0] == 2 else []
        for state in states:
            for a_obs in a_list:
                for b_obs in b_list:
                    actual, expected = joint_distribution_global(state, a_obs, b_obs), dense_joint(state, a_obs, b_obs)
                    assert actual.dtype == expected.dtype and actual.shape == expected.shape
                    assert np.abs(actual - expected).max() <= bound(dim)
                    assert actual.min() >= 0.0

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2), (8, 8)])
    def test_random_observables_up_to_dimension_64(self, shape):
        g = rng.stream(0, f"joint/eigenbasis/{shape}")
        dim = int(np.prod(shape))
        sides = [
            [observable_with_values(name, np.arange(d) // step, g) for step in (1, 2)] for name, d in zip("AB", shape)
        ]
        states = [random_pure_state(dim, g, shape), DensityOperator(random_density(dim, g).matrix, shape)]
        states.append(DensityOperator(random_density(dim, g, rank=2).matrix, shape))
        for state in states:
            for a_obs in sides[0]:
                for b_obs in sides[1]:
                    actual = joint_distribution_global(state, a_obs, b_obs)
                    assert np.abs(actual - dense_joint(state, a_obs, b_obs)).max() <= bound(dim)


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


def nearly_zero(weight):
    """(sqrt(1 - w), sqrt(w)): Z = -1 has probability w."""
    return StateVector([np.sqrt(1.0 - weight), np.sqrt(weight)])


# Every count goes through the one counting kernel, which refuses zero shots before it draws.
ZERO_SHOT_COUNTS = {
    "local-passive": lambda sys: local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", Z), 0),
    "global": lambda sys: global_joint_sample(sys, Z, Z, 0),
    "estimate_expectations": lambda sys: estimate_expectations(sys, pauli_ic_set(2), 0),
    "estimate_spectrum": lambda sys: estimate_spectrum(sys, lift_local(LocalSetting("A", Z), (2, 2)), 0),
    "reconstruct_reduced_single_copy": lambda sys: reconstruct_reduced_single_copy(sys, 0),
    "_cdf_counts": lambda sys: _cdf_counts(_cdf_table(np.full((1, 4), 0.25)), sys.rng, 0, None, None),
}


@pytest.mark.parametrize("sampler", ZERO_SHOT_COUNTS)
def test_joint_samplers_need_at_least_one_shot(sampler):
    sys = PSystem(bell_state("phi+"), "passive", rng.stream(0, "joint/none"))
    with pytest.raises(ValueError, match="at least one shot"):
        ZERO_SHOT_COUNTS[sampler](sys)
    assert position(sys.rng) == position(rng.stream(0, "joint/none"))


class TestJointSamplersRefuseImpossibleDraws:
    # A uniform of 0.0 selects the first cell of nonzero weight in the row-major (a, b) grid.

    @pytest.mark.parametrize(
        "mode, consequence",
        [("passive", "an impossible outcome was claimed"), ("quantum", "the post-measurement state is undefined")],
    )
    def test_global_device_refuses_a_drawn_cell_of_zero_probability(self, mode, consequence):
        sys = PSystem(tensor(nearly_zero(1e-13), basis_state(2, 0)), mode, _ZeroUniforms())
        message = f"outcome (-1.0, 1.0) of 'ZxZ' has zero probability; {consequence}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            global_joint_sample(sys, Z, Z, 3, ensemble=True)

    @pytest.mark.parametrize("side, lifted_name", [("A", "ZxI"), ("B", "IxZ")])
    def test_local_devices_refuse_as_measuring_the_lifted_observable_does(self, side, lifted_name):
        halves = (nearly_zero(1e-13), basis_state(2, 0))
        state = tensor(*(halves if side == "A" else halves[::-1]))
        with pytest.raises(ValueError) as lifted:
            measure(PSystem(state, "passive", _ZeroUniforms()), lift_local(LocalSetting(side, Z), (2, 2)))
        assert str(lifted.value).startswith(f"outcome -1.0 of '{lifted_name}' has zero probability")
        sys = PSystem(state, "passive", _ZeroUniforms())
        with pytest.raises(ValueError, match=f"^{re.escape(str(lifted.value))}$"):
            local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", Z), 3)

    def test_local_pair_of_two_possible_outcomes_is_legal_however_unlikely(self):
        # Each side's -1 has probability 1e-7: their product, 1e-14, is no side's outcome.
        state = tensor(nearly_zero(1e-7), nearly_zero(1e-7))
        sys = PSystem(state, "passive", _ZeroUniforms())
        table = local_passive_joint_sample(sys, LocalSetting("A", Z), LocalSetting("B", Z), 3)
        assert table.counts.tolist() == [[3, 0], [0, 0]]
        with pytest.raises(ValueError, match=re.escape("outcome (-1.0, -1.0) of 'ZxZ' has zero probability")):
            global_joint_sample(PSystem(state, "passive", _ZeroUniforms()), Z, Z, 3)


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


# Local passive pairs are counted in one piece: one multinomial draw of all
# shots over the row-major grid of the product of the two marginals, each row
# divided by its CDF total as the counting kernel divides it.


def reference_local_passive_counts(sys, a_setting, b_setting, shots):
    shape = sys.state.shape
    marg_a = born_distribution(lift_local(a_setting, shape), sys.state).probabilities
    marg_b = born_distribution(lift_local(b_setting, shape), sys.state).probabilities
    cells = np.outer(marg_a, marg_b).ravel()
    return sys.rng.multinomial(shots, cells / np.cumsum(cells)[-1]).reshape(marg_a.size, marg_b.size)


class TestJointSamplingIsOneMultinomialDraw:
    @pytest.mark.parametrize("shots", [1, 3, 5, 10**5 + 3, 10**7])
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

    def test_counts_and_stream_position_are_pinned(self):
        g = rng.stream(0, "chunk/inputs")
        state = random_pure_state(6, g, (3, 2))
        a_setting = LocalSetting("A", Observable("HA", random_hermitian(3, g)))
        b_setting = LocalSetting("B", Observable("HB", random_hermitian(2, g)))
        gen = rng.stream(5, "chunk/pinned")
        table = local_passive_joint_sample(PSystem(state, "passive", gen), a_setting, b_setting, 10**6)
        assert table.counts.tolist() == [[186051, 292664], [144792, 227129], [58240, 91124]]
        assert philox_position(gen) == ([4, 0, 0, 0], 2)

    def test_local_passive_chsh_on_one_shared_stream(self):
        # The four correlators take consecutive stretches of one stream.
        shots = 10**5 + 3
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


def four_sampler_calls_chsh(state, alice, bob, source, shots, gen):
    """CHSH from four sampler calls, each on a fresh passive system sharing ``gen``, in the order A1B1, A1B2, A2B1, A2B2."""

    def estimate(a_obs, b_obs):
        sys = PSystem(state, "passive", gen)
        if source == "global":
            return correlator(global_joint_sample(sys, a_obs, b_obs, shots))
        return correlator(local_passive_joint_sample(sys, LocalSetting("A", a_obs), LocalSetting("B", b_obs), shots))

    (a1, a2), (b1, b2) = alice, bob
    return estimate(a1, b1) + estimate(a1, b2) + estimate(a2, b1) - estimate(a2, b2)


class TestCHSHIsOneDrawOfFourRows:
    @pytest.mark.parametrize("source", CHSH_SOURCES)
    @pytest.mark.parametrize(
        "shape, minus",
        [
            ((2, 2), (1, 1, 1, 1)),
            ((2, 2), (0, 1, 1, 1)),  # A1 has one eigenvalue: rows A1B1 and A1B2 are padded
            ((2, 2), (1, 2, 1, 0)),  # A2 and B2 have one each: rows of 4, 2, 2 and 1 cells
            ((3, 2), (1, 2, 1, 1)),
            ((2, 3), (1, 0, 3, 2)),
        ],
    )
    @pytest.mark.parametrize("shots", [1, 7, 10**6 + 3])
    def test_equals_four_sampler_calls(self, source, shape, minus, shots):
        g = rng.stream(shots, f"chsh/rows/{shape}/{minus}")
        state = random_pure_state(int(np.prod(shape)), g, shape)
        dims = (shape[0], shape[0], shape[1], shape[1])
        # Eigenvalue -1 of multiplicity k and +1 on the rest: one eigenvalue when k is 0 or the dimension.
        names = ("A1", "A2", "B1", "B2")
        a1, a2, b1, b2 = (observable_with_values(n, [-1.0] * k + [1.0] * (d - k), g) for n, d, k in zip(names, dims, minus))
        for skip in range(4):
            expected_gen, actual_gen = rng.stream(skip, "chsh/rows/draws"), rng.stream(skip, "chsh/rows/draws")
            expected_gen.random(skip)
            actual_gen.random(skip)
            expected = four_sampler_calls_chsh(state, (a1, a2), (b1, b2), source, shots, expected_gen)
            assert chsh_value(state, (a1, a2), (b1, b2), source, shots, actual_gen) == expected
            assert position(actual_gen) == position(expected_gen)

    def test_local_passive_reduces_each_side_once_and_takes_each_marginal_once(self, monkeypatch):
        calls = []
        for name in ("partial_trace", "born_distribution"):
            real = getattr(composite, name)
            monkeypatch.setattr(composite, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        g = rng.stream(0, "chsh/local/calls")
        state = random_pure_state(4, g, (2, 2))
        alice, bob = (Z, X), tuple(observable_with_values(name, [-1.0, 1.0], g) for name in ("B1", "B2"))
        chsh_value(state, alice, bob, "local-passive", 100, g)
        assert sorted(calls) == ["born_distribution"] * 4 + ["partial_trace"] * 2


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
        # The reduced-state frame is immutable, so repeated
        # trials reuse it instead of rebuilding per call.
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
