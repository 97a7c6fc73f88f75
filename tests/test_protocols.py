import itertools
import json
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pqt import rng
from pqt.harness import parse_config, run
from pqt.harness import runner as runner_module
from pqt.harness.report import Report
from pqt.composite import LocalSetting, lift_local
from pqt.hilbert import (
    DensityOperator,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    SpectralDecomposition,
    StateVector,
    UnitaryOperator,
    basis_state,
    bell_state,
    evolve,
    fidelity,
    maximally_mixed,
    partial_trace,
    plus_state,
    random_hermitian,
    random_pure_state,
    tensor,
)
from pqt.measurement import (
    Observable,
    PSystem,
    born_distribution,
    collapse_update,
    measure,
    repeated_measure,
)
from pqt.protocols import (
    ORACLE_DRAW_BLOCK,
    OracleSpec,
    clone_via_reconstruction,
    deutsch_jozsa_verdict,
    function_recovery,
    no_cloning_check,
    oracle_unitary,
    proper_vs_improper,
    purify,
    repeatability_experiment,
    simulate_qt_with_pqt,
    teleportation_demo,
    teleportation_fidelities,
)

Z = Observable("Z", PAULI_Z)
X = Observable("X", PAULI_X)

CNOT = UnitaryOperator(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex))


class TestOracleSpec:
    def test_table_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            OracleSpec(2, (0, 1))

    def test_promise_consistency(self):
        with pytest.raises(ValueError, match="contradicts"):
            OracleSpec(1, (0, 1), "constant")
        with pytest.raises(ValueError, match="contradicts"):
            OracleSpec(1, (1, 1), "balanced")
        OracleSpec(1, (0, 1), "balanced")


class TestOracleUnitary:
    def test_constant_zero_is_identity(self):
        unitary = oracle_unitary(OracleSpec(1, (0, 0)))
        np.testing.assert_allclose(unitary.matrix, np.eye(4))

    def test_identity_function_is_cnot(self):
        unitary = oracle_unitary(OracleSpec(1, (0, 1)))
        np.testing.assert_allclose(unitary.matrix, CNOT.matrix)

    def test_involution_for_all_two_bit_specs(self):
        for bits in itertools.product((0, 1), repeat=4):
            unitary = oracle_unitary(OracleSpec(2, bits))
            np.testing.assert_allclose(unitary.matrix @ unitary.matrix, np.eye(8), atol=1e-12)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="5 input bits"):
            oracle_unitary(OracleSpec(6, tuple([0] * 64)))


class TestFunctionRecovery:
    def test_passive_recovers_constant_one(self):
        report = function_recovery(OracleSpec(2, (1, 1, 1, 1)), "passive", rng.stream(42, "fr/const"), 10_000)
        assert report.verdicts["truth_table"] == (1, 1, 1, 1)
        assert report.resources["oracle_calls"] == 1

    def test_passive_recovers_balanced(self):
        report = function_recovery(OracleSpec(2, (0, 0, 1, 1)), "passive", rng.stream(42, "fr/bal"), 10_000)
        assert report.verdicts["truth_table"] == (0, 0, 1, 1)
        assert report.resources["oracle_calls"] == 1

    def test_quantum_needs_many_calls(self):
        report = function_recovery(OracleSpec(2, (0, 1, 1, 0)), "quantum", rng.stream(42, "fr/q"), 1)
        assert report.verdicts["truth_table"] == (0, 1, 1, 0)
        assert report.resources["oracle_calls"] >= 4  # coupon collector floor
        assert report.resources["copies_consumed"] == report.resources["oracle_calls"]

    def test_quantum_runner_builds_the_oracle_once_per_run(self, monkeypatch):
        from pqt import protocols

        builds = []
        real = protocols.oracle_unitary
        monkeypatch.setattr(protocols, "oracle_unitary", lambda spec: builds.append(spec) or real(spec))
        protocols._post_oracle_readout.cache_clear()
        config = {
            "name": "fr-once",
            "protocol": "function-recovery",
            "mode": "quantum",
            "oracle": {"n": 2, "truth_table": [1, 0, 0, 1]},
            "trials": 30,
        }
        try:
            report = run(parse_config(json.dumps(config)))
        finally:
            protocols._post_oracle_readout.cache_clear()
        assert report.verdicts["truth_table"] == [1, 0, 0, 1]
        assert builds == [OracleSpec(2, (1, 0, 0, 1))]

    def test_tiny_shot_budget_reports_ambiguity(self):
        with pytest.raises(ValueError, match="insufficient shots"):
            function_recovery(OracleSpec(2, (0, 0, 1, 1)), "passive", rng.stream(0, "fr/ambig"), shots=2)

    def test_quantum_mean_calls_near_coupon_collector(self):
        # Analytic expectation 4 * H_4 = 25/3; Monte Carlo mean over 200
        # seeded runs within 10%.
        calls = [
            function_recovery(OracleSpec(2, (0, 1, 0, 1)), "quantum", rng.stream(7, f"fr/cc/{i}"), 1).resources[
                "oracle_calls"
            ]
            for i in range(200)
        ]
        assert np.mean(calls) == pytest.approx(25.0 / 3.0, rel=0.10)


class TestDeutschJozsa:
    def test_requires_promise(self):
        with pytest.raises(ValueError, match="promise"):
            deutsch_jozsa_verdict(OracleSpec(1, (0, 0)), "quantum", rng.stream(0, "dj"))

    def test_constant_both_modes(self):
        spec = OracleSpec(2, (0, 0, 0, 0), "constant")
        for mode in ("quantum", "passive"):
            report = deutsch_jozsa_verdict(spec, mode, rng.stream(1, f"dj/{mode}"), 10_000)
            assert report.verdicts["verdict"] == "constant"
            assert report.resources["oracle_calls"] == 1

    def test_balanced_both_modes(self):
        spec = OracleSpec(2, (0, 1, 1, 0), "balanced")
        for mode in ("quantum", "passive"):
            report = deutsch_jozsa_verdict(spec, mode, rng.stream(2, f"dj/{mode}"), 10_000)
            assert report.verdicts["verdict"] == "balanced"
            assert report.resources["oracle_calls"] == 1

    def test_all_one_bit_promised_functions_quantum(self):
        for bits, promise in (((0, 0), "constant"), ((1, 1), "constant"), ((0, 1), "balanced"), ((1, 0), "balanced")):
            report = deutsch_jozsa_verdict(OracleSpec(1, bits, promise), "quantum", rng.stream(3, f"dj/{bits}"))
            assert report.verdicts["verdict"] == promise


class TestClone:
    def test_plus_state_clone_fidelity(self):
        state = plus_state()
        sys = PSystem(state, "passive", rng.stream(42, "clone/+"))
        clone, report = clone_via_reconstruction(sys, 10_000)
        assert report.fidelities["clone"] >= 0.99
        assert fidelity(state, clone.state) >= 0.99

    def test_basis_state_clone_fidelity(self):
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(42, "clone/0"))
        _, report = clone_via_reconstruction(sys, 10_000)
        assert report.fidelities["clone"] >= 0.999

    def test_original_bit_identical(self):
        state = random_pure_state(2, rng.stream(5, "clone/orig"))
        before = state.amplitudes.copy()
        sys = PSystem(state, "passive", rng.stream(6, "clone"))
        clone_via_reconstruction(sys, 2000)
        assert sys.state is state
        assert np.array_equal(sys.state.amplitudes, before)

    def test_quantum_mode_rejected(self):
        sys = PSystem(plus_state(), "quantum", rng.stream(7, "clone"))
        with pytest.raises(ValueError, match="passive"):
            clone_via_reconstruction(sys, 100)


class TestNoCloning:
    def test_nonorthogonal_obstruction_value(self):
        # <0|+> = 1/sqrt(2); |s - s^2| = |1/sqrt(2) - 1/2| ~ 0.2071.
        report = no_cloning_check(CNOT, (basis_state(2, 0), plus_state()))
        assert report.obstruction == pytest.approx(abs(1 / np.sqrt(2) - 0.5), abs=1e-12)
        assert not report.clones_both

    def test_orthogonal_pair_cloned_by_cnot(self):
        report = no_cloning_check(CNOT, (basis_state(2, 0), basis_state(2, 1)))
        assert report.fidelity_first == pytest.approx(1.0)
        assert report.fidelity_second == pytest.approx(1.0)
        assert report.obstruction == pytest.approx(0.0, abs=1e-12)
        assert report.clones_both

    def test_same_state_no_obstruction(self):
        report = no_cloning_check(CNOT, (basis_state(2, 0), basis_state(2, 0)))
        assert report.obstruction == pytest.approx(0.0, abs=1e-12)

    def test_obstruction_positive_iff_nonorthogonal_distinct(self):
        g = rng.stream(8, "nocl")
        for _ in range(10):
            psi = random_pure_state(2, g)
            phi = random_pure_state(2, g)
            report = no_cloning_check(CNOT, (psi, phi))
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes))
            if 1e-6 < overlap < 1 - 1e-6:
                assert report.obstruction > 0.0
                assert not report.clones_both


class TestPurify:
    def test_partial_trace_round_trip(self):
        g = rng.stream(9, "purify")
        from pqt.hilbert import random_density

        for _ in range(5):
            rho = random_density(3, g)
            reduced = partial_trace(purify(rho), keep=0)
            np.testing.assert_allclose(reduced.matrix, rho.matrix, atol=1e-10)


class TestProperVsImproper:
    MIXTURE = [(basis_state(2, 0), 0.5), (plus_state(), 0.5)]

    def average(self):
        return DensityOperator(0.5 * basis_state(2, 0).projector() + 0.5 * plus_state().projector())

    def test_average_purity_is_three_quarters(self):
        # Tr(rho^2) = (2 + 2 * 1/2) / 4 = 3/4 for the canonical example.
        assert self.average().purity() == pytest.approx(0.75)

    def test_proper_verdict(self):
        report = proper_vs_improper(20, 10_000, rng.stream(42, "pvi/p"), mixture=self.MIXTURE)
        assert report.verdicts["verdict"] == "proper"
        assert report.verdicts["mean_purity"] >= 0.95
        assert all(entry["verdict"] == "proper" for entry in report.log)

    def test_improper_verdict(self):
        report = proper_vs_improper(20, 10_000, rng.stream(42, "pvi/i"), purification=purify(self.average()))
        assert report.verdicts["verdict"] == "improper"
        assert report.verdicts["mean_purity"] == pytest.approx(0.75, abs=0.05)
        assert all(entry["verdict"] == "improper" for entry in report.log)

    def test_pure_average_rejected(self):
        with pytest.raises(ValueError, match="indistinguishable"):
            proper_vs_improper(5, 100, rng.stream(0, "pvi"), mixture=[(basis_state(2, 0), 1.0)])

    def test_exactly_one_presentation(self):
        with pytest.raises(ValueError, match="exactly one"):
            proper_vs_improper(5, 100, rng.stream(0, "pvi"))

    def test_bad_weights_rejected(self):
        bad = [(basis_state(2, 0), 0.7), (plus_state(), 0.7)]
        with pytest.raises(ValueError, match="sum to 1"):
            proper_vs_improper(5, 100, rng.stream(0, "pvi"), mixture=bad)


class TestSimulateCollapse:
    def library_for_z(self):
        return {0: basis_state(2, 1), 1: basis_state(2, 0)}  # ascending eigenvalues -1, +1

    def test_eigenstate_replacement_matches_quantum_statistics(self):
        sys = PSystem(plus_state(), "passive", rng.stream(42, "sim/1p"))
        report = simulate_qt_with_pqt(sys, Z, library=self.library_for_z(), followup_obs=Z, followup_shots=10_000)
        # After replacement, repeated Z measurements all repeat the outcome.
        record = repeated_measure(sys, Z, 50)
        assert set(record.outcomes) == {report.verdicts["outcome"]}
        assert report.verdicts["followup_tv"] <= 0.02

    def test_missing_library_entry(self):
        # |0> always yields outcome +1 (index 1), absent from this library.
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(1, "sim"))
        with pytest.raises(ValueError, match="missing library entry"):
            simulate_qt_with_pqt(sys, Z, library={0: basis_state(2, 1)})

    def test_bipartite_replacement_is_projected_product(self):
        z_on_a = lift_local(LocalSetting("A", Z), (2, 2))
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(42, "sim/2p"))
        report = simulate_qt_with_pqt(sys, z_on_a, tomography_shots=10_000)
        outcome = report.verdicts["outcome"]
        target = basis_state(4, 0, (2, 2)) if outcome == 1.0 else basis_state(4, 3, (2, 2))
        assert fidelity(sys.state, target) >= 0.99

    def test_bipartite_followup_tv(self):
        z_on_a = lift_local(LocalSetting("A", Z), (2, 2))
        x_on_b = lift_local(LocalSetting("B", X), (2, 2))
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(42, "sim/2p-tv"))
        report = simulate_qt_with_pqt(
            sys, z_on_a, tomography_shots=10_000, followup_obs=x_on_b, followup_shots=10_000
        )
        assert report.verdicts["followup_tv"] <= 0.02

    def test_quantum_system_rejected(self):
        sys = PSystem(plus_state(), "quantum", rng.stream(2, "sim"))
        with pytest.raises(ValueError, match="passive"):
            simulate_qt_with_pqt(sys, Z, library=self.library_for_z())


class TestTeleportation:
    def test_quantum_fidelity_one(self):
        assert teleportation_demo(basis_state(2, 0), "quantum", rng.stream(0, "tele")) == pytest.approx(1.0, abs=1e-12)

    def test_passive_fidelity_half(self):
        assert teleportation_demo(basis_state(2, 0), "passive", rng.stream(1, "tele")) == pytest.approx(0.5, abs=1e-12)

    def test_random_inputs(self):
        fidelities_q = []
        fidelities_p = []
        for i in range(20):
            state = random_pure_state(2, rng.stream(i, "tele/in"))
            fidelities_q.append(teleportation_demo(state, "quantum", rng.stream(i, "tele/q")))
            fidelities_p.append(teleportation_demo(state, "passive", rng.stream(i, "tele/p")))
        np.testing.assert_allclose(fidelities_q, 1.0, atol=1e-12)
        np.testing.assert_allclose(fidelities_p, 0.5, atol=1e-12)

    def test_needs_qubit_input(self):
        with pytest.raises(ValueError, match="single qubit"):
            teleportation_demo(basis_state(4, 0), "quantum", rng.stream(2, "tele"))

    @pytest.mark.parametrize("mode, match", [("quantum", "probabilities sum to"), ("collapse", "unknown mode")])
    def test_refuses_before_any_draw(self, mode, match):
        # The second row is not normalised, so its Bell probabilities sum to 2.
        gen = rng.stream(3, "tele/refused")
        before = _position(gen)
        with pytest.raises(ValueError, match=match):
            teleportation_fidelities(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex), mode, gen)
        assert _position(gen) == before


class TestRepeatability:
    def test_quantum_rate_exactly_one(self):
        rate = repeatability_experiment(plus_state(), Z, "quantum", 1000, rng.stream(42, "rep/q"))
        assert rate == 1.0

    def test_passive_rate_near_half(self):
        # sum p^2 = 1/2 for Z on |+>; binomial 3-sigma band at 2e4 trials.
        trials = 20_000
        rate = repeatability_experiment(plus_state(), Z, "passive", trials, rng.stream(42, "rep/p"))
        assert abs(rate - 0.5) <= 3 * 0.5 / np.sqrt(trials)

    def test_deterministic_distribution(self):
        rate = repeatability_experiment(basis_state(2, 0), Z, "passive", 500, rng.stream(1, "rep/det"))
        assert rate == 1.0

    def test_passive_batch_path_matches_measure_loop(self):
        trials = 200
        rate = repeatability_experiment(plus_state(), Z, "passive", trials, rng.stream(11, "rep/eq"))
        sys = PSystem(plus_state(), "passive", rng.stream(11, "rep/eq"))
        manual = sum(measure(sys, Z) == measure(sys, Z) for _ in range(trials)) / trials
        assert rate == manual

    @pytest.mark.parametrize("trials", [1, 2**15 + 3, 3 * 2**15 + 1])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_passive_chunks_match_one_shot_reference(self, dim, trials):
        # The one-shot code before chunked sampling: all 2 * trials uniforms, indexed by searchsorted.
        g = rng.stream(dim, "rep/chunk")
        state = random_pure_state(dim, g)
        obs = Observable("H", random_hermitian(dim, g))
        expected_gen, actual_gen = rng.stream(trials, "rep/chunk/draws"), rng.stream(trials, "rep/chunk/draws")
        cdf = np.cumsum(born_distribution(obs, state).probabilities)
        uniforms = expected_gen.random(2 * trials) * cdf[-1]
        indices = np.minimum(np.searchsorted(cdf, uniforms, side="right"), cdf.size - 1)
        expected = int(np.sum(indices[0::2] == indices[1::2])) / trials
        assert repeatability_experiment(state, obs, "passive", trials, actual_gen) == expected
        assert _position(actual_gen) == _position(expected_gen)

    def test_passive_rate_converges_to_sum_of_squares(self):
        # General oracle: rate -> sum_r p(a_r)^2 for a biased qutrit state.
        g = rng.stream(3, "rep/sum")
        psi = random_pure_state(3, g)
        obs = Observable("D", np.diag([0.0, 1.0, 2.0]).astype(complex))
        expected = float((born_distribution(obs, psi).probabilities ** 2).sum())
        rate = repeatability_experiment(psi, obs, "passive", 20_000, g)
        assert rate == pytest.approx(expected, abs=0.015)


# The collapse-side loops as they were written trial by trial, one PSystem
# and one measure() per shot.  The batched versions must return equal
# results and leave the generator at the same position.


def reference_quantum_repeatability(state, obs, trials, gen):
    agreements = 0
    for _ in range(trials):
        sys = PSystem(state, "quantum", gen)
        agreements += measure(sys, obs) == measure(sys, obs)
    return agreements / trials


def reference_quantum_function_recovery(spec, gen):
    oracle = oracle_unitary(spec)
    readout = Observable("basis-index", np.diag(np.arange(2 ** (spec.n + 1), dtype=float)).astype(complex))
    seen, log, calls = {}, [], 0
    while len(seen) < 2**spec.n:
        calls += 1
        start = tensor(plus_state(spec.n), basis_state(2, 0, (2,)))
        sys = PSystem(evolve(start, oracle), "quantum", gen)
        index = int(round(measure(sys, readout)))
        x, y = index >> 1, index & 1
        seen[x] = y
        log.append({"call": calls, "x": x, "f_x": y})
    return calls, log, tuple(seen[x] for x in range(2**spec.n))


def reference_teleportation(input_state, mode, gen):
    order = ("phi+", "phi-", "psi+", "psi-")
    corrections = (PAULI_I, PAULI_Z, PAULI_X, PAULI_Z @ PAULI_X)
    projectors = tuple(np.kron(bell_state(name).projector(), PAULI_I) for name in order)
    bell_obs = Observable.from_decomposition("bell-basis-12", SpectralDecomposition((0.0, 1.0, 2.0, 3.0), projectors))
    three_qubit = tensor(input_state, bell_state("phi+"))
    dist = born_distribution(bell_obs, three_qubit)
    measure(PSystem(three_qubit, mode, gen), bell_obs)
    average = 0.0
    for k, probability in enumerate(dist.probabilities):
        if probability <= 1e-12:
            continue
        branch = collapse_update(three_qubit, bell_obs, k) if mode == "quantum" else three_qubit
        bob = partial_trace(branch, keep=2)
        corrected = corrections[k] @ bob.matrix @ corrections[k].conj().T
        average += probability * float(np.vdot(input_state.amplitudes, corrected @ input_state.amplitudes).real)
    return average


def _position(gen):
    """The generator's full state (key, counter, buffer) as comparable text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


class _ZeroUniforms:
    """Stands in for a generator whose every uniform draw is 0.0."""

    def random(self, n):
        return np.zeros(n)


class TestCollapseLoopsMatchReference:
    @staticmethod
    def degenerate_qutrit_observable():
        basis, _ = np.linalg.qr(rng.stream(5, "eq/basis").normal(size=(3, 3)))
        return Observable("D", (basis * np.array([-1.0, 1.0, 1.0])) @ basis.T)

    @pytest.mark.parametrize("case", ["bloch-qubit", "maximally-mixed", "degenerate-qutrit"])
    def test_quantum_repeatability(self, case):
        if case == "bloch-qubit":
            state = random_pure_state(2, rng.stream(1, "eq/state"))
            obs = Observable("bloch", (0.6 * PAULI_X + 0.8 * PAULI_Z))
        elif case == "maximally-mixed":
            state, obs = maximally_mixed(2), Z
        else:
            state, obs = random_pure_state(3, rng.stream(2, "eq/state")), self.degenerate_qutrit_observable()
        expected_gen, actual_gen = rng.stream(7, "eq/rep"), rng.stream(7, "eq/rep")
        expected = reference_quantum_repeatability(state, obs, 300, expected_gen)
        assert repeatability_experiment(state, obs, "quantum", 300, actual_gen) == expected
        assert _position(actual_gen) == _position(expected_gen)

    def test_quantum_repeatability_rejects_a_drawn_impossible_outcome(self):
        # A zero uniform lands on the first outcome (Z = -1), whose weight 1e-13 is below ZERO_PROBABILITY.
        state = StateVector([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)])
        with pytest.raises(ValueError, match="zero probability"):
            reference_quantum_repeatability(state, Z, 3, _ZeroUniforms())
        with pytest.raises(ValueError, match="zero probability"):
            repeatability_experiment(state, Z, "quantum", 3, _ZeroUniforms())

    @pytest.mark.parametrize("seed", range(4))
    def test_quantum_function_recovery(self, seed):
        spec = OracleSpec(3, (0, 1, 1, 0, 1, 0, 0, 1))
        expected_gen, actual_gen = rng.stream(seed, "eq/oracle"), rng.stream(seed, "eq/oracle")
        calls, log, table = reference_quantum_function_recovery(spec, expected_gen)
        report = function_recovery(spec, "quantum", actual_gen)
        assert report.resources["oracle_calls"] == calls
        assert report.log == log
        assert report.verdicts["truth_table"] == table
        assert _position(actual_gen) == _position(expected_gen)

    def test_quantum_function_recovery_twice_on_one_stream(self):
        spec = OracleSpec(2, (0, 1, 1, 1))
        expected_gen, actual_gen = rng.stream(9, "eq/oracle/shared"), rng.stream(9, "eq/oracle/shared")
        for _ in range(2):
            calls, log, table = reference_quantum_function_recovery(spec, expected_gen)
            report = function_recovery(spec, "quantum", actual_gen)
            assert (report.resources["oracle_calls"], report.log, report.verdicts["truth_table"]) == (calls, log, table)
            assert _position(actual_gen) == _position(expected_gen)

    # Seeds at which the last new input arrives as the last draw of the first
    # block, and as the first draw of the second.
    @pytest.mark.parametrize("seed, calls", [(25, ORACLE_DRAW_BLOCK), (28, ORACLE_DRAW_BLOCK + 1)])
    def test_quantum_function_recovery_at_a_block_edge(self, seed, calls):
        spec = OracleSpec(4, (0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1))
        expected_gen, actual_gen = rng.stream(seed, "eq/oracle/block"), rng.stream(seed, "eq/oracle/block")
        expected = reference_quantum_function_recovery(spec, expected_gen)
        assert expected[0] == calls
        report = function_recovery(spec, "quantum", actual_gen)
        assert (report.resources["oracle_calls"], report.log, report.verdicts["truth_table"]) == expected
        assert _position(actual_gen) == _position(expected_gen)

    @pytest.mark.parametrize("mode", ["quantum", "passive"])
    def test_teleportation(self, mode):
        # Vectorised sums and BLAS dot products round differently: up to 8.9e-16 apart over 2000 inputs.
        for i in range(200):
            state = random_pure_state(2, rng.stream(i, "eq/tele/in"))
            expected_gen, actual_gen = rng.stream(i, "eq/tele"), rng.stream(i, "eq/tele")
            actual = teleportation_demo(state, mode, actual_gen)
            assert abs(actual - reference_teleportation(state, mode, expected_gen)) <= 2e-15
            assert _position(actual_gen) == _position(expected_gen)


def reference_run_teleportation(config):
    """The teleportation runner as it was, one trial at a time; returns the report and the shared stream."""
    stream = rng.stream(config.seed, f"{config.name}/teleportation")
    fidelities = []
    for trial in range(config.trials):
        state = config.inputs.state
        if state is None:
            state = random_pure_state(2, rng.stream(config.seed, f"{config.name}/teleportation/input/{trial}"))
        fidelities.append(reference_teleportation(state, config.mode, stream))
    report = Report(json.loads(config.to_json()), config.seed)
    report.add_metric("average_fidelity", float(np.mean(fidelities)))
    return report, stream


def teleportation_config(mode, trials, initial_state=None):
    config = {"name": "tele", "protocol": "teleportation", "mode": mode, "trials": trials, "seed": 4}
    if initial_state is not None:
        config["initial_state"] = initial_state
    return parse_config(json.dumps(config))


def run_capturing_streams(monkeypatch, config):
    """Run ``config`` and return its report with every stream the runner derived, by purpose."""
    streams = {}
    real_stream = runner_module._stream

    def recording(config, purpose):
        streams[purpose] = real_stream(config, purpose)
        return streams[purpose]

    monkeypatch.setattr(runner_module, "_stream", recording)
    return run(config), streams


B = runner_module.TELEPORTATION_BLOCK


class TestTeleportationRunner:
    # A block of 8 covers every edge case cheaply.  At the shipped block size the
    # one-trial-at-a-time reference is slow: only the longest run, on per-trial inputs.
    @pytest.mark.parametrize(
        "block, mode, initial_state",
        [(8, mode, state) for mode in ("quantum", "passive") for state in (None, "random-pure:3")]
        + [(B, mode, None) for mode in ("quantum", "passive")],
    )
    def test_blocks_match_the_trial_loop(self, monkeypatch, block, mode, initial_state):
        monkeypatch.setattr(runner_module, "TELEPORTATION_BLOCK", block)
        counts = (1, block - 1, block, block + 1, 2 * block + 3) if block < B else (2 * block + 3,)
        for trials in counts:
            config = teleportation_config(mode, trials, initial_state)
            expected, expected_stream = reference_run_teleportation(config)
            actual, streams = run_capturing_streams(monkeypatch, config)
            assert actual.to_json() == expected.to_json()
            assert _position(streams["teleportation"]) == _position(expected_stream)

    def test_quantum_run_builds_no_state_per_trial(self, monkeypatch):
        names = ("partial_trace", "collapse_update", "tensor", "born_distribution")
        calls = Counter()
        for module in [module for name, module in sys.modules.items() if name.split(".")[0] == "pqt"]:
            for name in names:
                if hasattr(module, name):
                    real = getattr(module, name)

                    def counted(*args, _real=real, _name=name, **kwargs):
                        calls[_name] += 1
                        return _real(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        run(teleportation_config("quantum", 1))
        one_trial = dict(calls)
        calls.clear()
        run(teleportation_config("quantum", 2 * B + 3))
        assert dict(calls) == one_trial

    def test_memory_stays_flat_in_trials(self):
        run(teleportation_config("quantum", 1))
        peaks = []
        for trials in (2 * B + 3, 8 * B + 3):
            config = teleportation_config("quantum", trials)
            tracemalloc.start()
            try:
                run(config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # Keeping one float per trial would add about 240 KB here; the blocks add about 1 KB.
        assert peaks[1] - peaks[0] <= 64 * 2**10
