import itertools
import json
import re
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import _ZeroUniforms, philox_position, position

from pqt import measurement, protocols, rng, tomography
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

    def test_equal_specs_share_one_readout_cache_entry(self):
        from pqt import protocols

        protocols._post_oracle_readout.cache_clear()
        try:
            first = protocols._post_oracle_readout(OracleSpec(2, (1, 0, 0, 1), "balanced"))
            second = protocols._post_oracle_readout(OracleSpec(2, [True, False, 0, 1.0], "balanced"))
            info = protocols._post_oracle_readout.cache_info()
        finally:
            protocols._post_oracle_readout.cache_clear()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert second is first
        assert OracleSpec(2, (1, 0, 0, 1)) != OracleSpec(2, (1, 0, 0, 1), "balanced")
        assert len({OracleSpec(1, (0, 1)), OracleSpec(1, (0, 1)), OracleSpec(1, (1, 0))}) == 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_post_oracle_readout_is_the_dense_basis_born_rule_bit_for_bit(self, n):
        # The readout squares each amplitude, conj(psi[k]) psi[k], with the bits of a dense basis projector's Born rule.
        from pqt import protocols

        dim = 2 ** (n + 1)
        basis = Observable("basis-index", np.diag(np.arange(dim, dtype=float)).astype(complex))
        gen = rng.stream(n, "oracle/readout-bits")
        for _ in range(50):
            spec = OracleSpec(n, tuple(gen.integers(0, 2, 2**n).tolist()))
            readout, table = protocols._post_oracle_readout(spec)
            final = evolve(tensor(plus_state(n), basis_state(2, 0, (2,))), oracle_unitary(spec))
            expected = born_distribution(basis, final)
            assert (readout.name, readout.eigenvalues) == (basis.name, basis.eigenvalues)
            assert table.probabilities.shape == (1, dim)
            assert table.probabilities.tobytes() == expected.probabilities.tobytes()

    def test_tiny_shot_budget_reports_ambiguity(self):
        with pytest.raises(ValueError, match="insufficient shots"):
            function_recovery(OracleSpec(2, (0, 0, 1, 1)), "passive", rng.stream(0, "fr/ambig"), shots=2)

    def test_ambiguous_decode_names_the_weights_as_plain_floats(self):
        config = {
            "name": "fr5",
            "protocol": "function-recovery",
            "mode": "passive",
            "oracle": {"n": 5, "truth_table": [0, 1] * 16},
            "shots": 10,
        }
        with pytest.raises(ValueError) as caught:
            run(parse_config(json.dumps(config)))
        assert str(caught.value) == (
            "config field 'shots': insufficient shots: ambiguous decode for input 5 "
            "(weights (0.01465207367840951, 0.025992598364927684))"
        )

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
        assert report.purities.tolist() == [entry["purity"] for entry in report.log]  # the runner's table column

    def test_improper_verdict(self):
        report = proper_vs_improper(20, 10_000, rng.stream(42, "pvi/i"), purification=purify(self.average()))
        assert report.verdicts["verdict"] == "improper"
        assert report.verdicts["mean_purity"] == pytest.approx(0.75, abs=0.05)
        assert all(entry["verdict"] == "improper" for entry in report.log)

    @pytest.mark.parametrize("presentation", ["mixture", "purification"])
    def test_purities_take_no_eigenvectors(self, presentation, monkeypatch):
        # Each purity is read off the projected spectrum: no eigh, so no estimate is rebuilt from eigenvectors.
        kwargs = {"mixture": self.MIXTURE} if presentation == "mixture" else {"purification": purify(self.average())}
        monkeypatch.setattr(np.linalg, "eigh", lambda *_: pytest.fail("proper_vs_improper called eigh"))
        report = proper_vs_improper(20, 300, rng.stream(6, f"pvi/spectra/{presentation}"), **kwargs)
        assert 0.0 < report.purities.min() and report.purities.max() <= 1.0

    def test_pure_average_rejected(self):
        with pytest.raises(ValueError, match="indistinguishable"):
            proper_vs_improper(5, 100, rng.stream(0, "pvi"), mixture=[(basis_state(2, 0), 1.0)])

    def test_exactly_one_presentation(self):
        with pytest.raises(ValueError, match="exactly one"):
            proper_vs_improper(5, 100, rng.stream(0, "pvi"))

    @pytest.mark.parametrize("presentation", ["mixture", "purification"])
    def test_zero_trials_refused_before_any_draw(self, presentation):
        kwargs = {"mixture": self.MIXTURE} if presentation == "mixture" else {"purification": purify(self.average())}
        gen = rng.stream(0, "pvi/none")
        before = position(gen)
        with pytest.raises(ValueError, match="^need at least one trial$"):
            proper_vs_improper(0, 100, gen, **kwargs)
        assert position(gen) == before

    def test_bad_weights_rejected(self):
        bad = [(basis_state(2, 0), 0.7), (plus_state(), 0.7)]
        with pytest.raises(ValueError, match="sum to 1"):
            proper_vs_improper(5, 100, rng.stream(0, "pvi"), mixture=bad)

    @pytest.mark.parametrize("presentation", ["mixture", "purification"])
    def test_block_size_changes_neither_the_log_nor_the_stream(self, presentation, monkeypatch):
        if presentation == "mixture":
            g = rng.stream(1, "pvi/blocks/mixture")
            kwargs = {"mixture": [(random_pure_state(4, g), 0.4), (random_pure_state(4, g), 0.6)]}
            per_trial = 15 * 2 + 4 * 4  # a 2-qubit Pauli frame's count entries, then its density entries
        else:
            kwargs = {"purification": random_pure_state(6, rng.stream(1, "pvi/blocks/purification"), (3, 2))}
            per_trial = 8 * 3 + 3 * 3  # side A's 8 lifted Gell-Mann rows, padded to 3 outcomes, then 3 x 3
        trials, draws = 40, []
        counts = protocols._cdf_counts
        monkeypatch.setattr(protocols, "_cdf_counts", lambda *args: draws.append(1) or counts(*args))
        runs = []
        for block in (None, 1, 7):
            if block is not None:
                monkeypatch.setattr(protocols, "_TRIAL_BLOCK_ENTRIES", block * per_trial)
            draws.clear()
            gen = rng.stream(4, f"pvi/blocks/{presentation}")
            report = proper_vs_improper(trials, 300, gen, **kwargs)
            assert len(draws) == (1 if block is None else -(-trials // block))
            runs.append((report.log, report.verdicts, position(gen)))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("presentation", ["mixture", "purification"])
    def test_rows_are_checked_once_whatever_the_block_count(self, presentation, monkeypatch):
        # Born rows are checked where they enter; a block of trials only slices the checked table.
        kwargs = {"mixture": self.MIXTURE} if presentation == "mixture" else {"purification": purify(self.average())}
        per_trial = 3 * 2 + 2 * 2  # a qubit frame's count entries, then its density entries
        checks = []
        for module in (measurement, tomography, protocols):
            check = module._cdf_table
            monkeypatch.setattr(module, "_cdf_table", lambda raw, check=check: checks.append(1) or check(raw))
        calls = []
        for block in (20, 5):  # 20 trials in one block, then in four
            monkeypatch.setattr(protocols, "_TRIAL_BLOCK_ENTRIES", block * per_trial)
            checks.clear()
            proper_vs_improper(20, 100, rng.stream(5, f"pvi/checks/{presentation}"), **kwargs)
            calls.append(len(checks))
        assert calls[0] == calls[1]

    def test_memory_is_bounded_in_trials(self):
        # A block holds 63 x 2 count entries and 8 x 8 density entries per trial of a 3-qubit frame.
        g = rng.stream(2, "pvi/memory")
        mixture = [(random_pure_state(8, g), 0.5), (random_pure_state(8, g), 0.5)]
        trials = protocols._TRIAL_BLOCK_ENTRIES // (63 * 2 + 8 * 8) + 1  # one full block and one trial more
        proper_vs_improper(1, 1, rng.stream(0, "pvi/memory/warm-up"), mixture=mixture)
        peaks = []
        for count in (trials, 4 * trials):
            tracemalloc.start()
            try:
                proper_vs_improper(count, 1, rng.stream(0, "pvi/memory"), mixture=mixture)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        one_trials_stacks = 63 * 2 * 8 + 8 * 8 * 16  # int64 counts and a complex density matrix, in bytes
        log_entry = 320  # a log dict and its purity, plus the trial's member index and purity in arrays
        assert peaks[1] - peaks[0] <= 3 * trials * log_entry
        assert log_entry < one_trials_stacks / 4


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

    def test_followup_is_two_multinomial_draws(self):
        library = self.library_for_z()
        expected_sys = PSystem(plus_state(), "passive", rng.stream(5, "sim/followup"))
        actual_sys = PSystem(plus_state(), "passive", rng.stream(5, "sim/followup"))
        report = simulate_qt_with_pqt(actual_sys, Z, library=library, followup_obs=X, followup_shots=1000)
        # One measure(), then the counts of the replaced system and of a fresh-copy reference.
        index = Z.eigenvalues.index(measure(expected_sys, Z))
        simulated = multinomial_counts(expected_sys.rng, 1000, born_distribution(X, library[index]).probabilities)
        reference_dist = born_distribution(X, collapse_update(plus_state(), Z, index))
        reference = multinomial_counts(expected_sys.rng, 1000, reference_dist.probabilities)
        assert report.verdicts["followup_tv"] == 0.5 * float(np.abs(simulated - reference).sum()) / 1000
        assert position(actual_sys.rng) == position(expected_sys.rng)

    def test_followup_rejects_a_drawn_impossible_outcome(self):
        # Every uniform is 0.0: Z on |+> gives -1, and the follow-up's zero uniforms draw
        # Z = -1 again on the replacement, whose weight there, 1e-13, is below ZERO_PROBABILITY.
        tilted = StateVector([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)])
        sys = PSystem(plus_state(), "passive", _ZeroUniforms())
        with pytest.raises(ValueError, match="outcome -1.0 of 'Z' has zero probability"):
            simulate_qt_with_pqt(sys, Z, library={0: tilted, 1: tilted}, followup_obs=Z, followup_shots=3)

    def test_followup_reference_rejects_a_drawn_impossible_outcome(self):
        # Every uniform is 0.0: Z on |+> gives -1, so the library puts |0> in place and the
        # fresh-copy reference collapses to |1>.  There the follow-up's outcome -1 has weight
        # about 1e-13, below ZERO_PROBABILITY; on a quantum copy measure() refuses it.
        v = np.array([6.3e-7, -1.0]) / np.hypot(6.3e-7, 1.0)
        tilt = Observable("tilt", v[0] * PAULI_X + v[1] * PAULI_Z)
        library = {0: basis_state(2, 0), 1: basis_state(2, 1)}
        refusal = re.escape(f"outcome {tilt.eigenvalues[0]!r} of 'tilt' has zero probability; the post-measurement")
        with pytest.raises(ValueError, match=refusal):
            measure(PSystem(collapse_update(plus_state(), Z, 0), "quantum", _ZeroUniforms()), tilt)
        sys = PSystem(plus_state(), "passive", _ZeroUniforms())
        with pytest.raises(ValueError, match=refusal):
            simulate_qt_with_pqt(sys, Z, library=library, followup_obs=tilt, followup_shots=3)

    def test_followup_memory_does_not_grow_with_shots(self):
        peaks = {}
        for shots in (10**5, 4 * 10**6):
            sys = PSystem(plus_state(), "passive", rng.stream(3, "sim/flat"))
            tracemalloc.start()
            try:
                simulate_qt_with_pqt(sys, Z, library=self.library_for_z(), followup_obs=X, followup_shots=shots)
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4 * 10**6] - peaks[10**5] < 1_000_000

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
        before = position(gen)
        with pytest.raises(ValueError, match=match):
            teleportation_fidelities(np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex), mode, gen)
        assert position(gen) == before


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

    def test_passive_rate_is_pinned(self):
        gen = rng.stream(11, "rep/eq")
        assert repeatability_experiment(plus_state(), Z, "passive", 200, gen) == 0.55
        assert philox_position(gen) == ([2, 0, 0, 0], 4)

    @pytest.mark.parametrize("trials", [1, 10**5 + 3, 10**7])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_passive_is_one_multinomial_draw_over_the_pair_cells(self, dim, trials):
        # The pair's outcomes are independent: cell (a, b) has probability p(a) p(b), and agreements are the diagonal.
        g = rng.stream(dim, "rep/chunk")
        state = random_pure_state(dim, g)
        obs = Observable("H", random_hermitian(dim, g))
        expected_gen, actual_gen = rng.stream(trials, "rep/chunk/draws"), rng.stream(trials, "rep/chunk/draws")
        p = born_distribution(obs, state).probabilities
        expected = int(np.trace(multinomial_counts(expected_gen, trials, np.outer(p, p)))) / trials
        assert repeatability_experiment(state, obs, "passive", trials, actual_gen) == expected
        assert position(actual_gen) == position(expected_gen)

    def test_quantum_memory_does_not_grow_with_trials(self):
        state = random_pure_state(2, rng.stream(1, "rep/flat/state"))
        obs = Observable("bloch", 0.6 * PAULI_X + 0.8 * PAULI_Z)
        peaks = {}
        for trials in (10**5, 4 * 10**6):
            gen = rng.stream(trials, "rep/flat")
            tracemalloc.start()
            try:
                repeatability_experiment(state, obs, "quantum", trials, gen)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4 * 10**6] - peaks[10**5] < 1_000_000

    def test_passive_rejects_a_drawn_impossible_outcome_as_measure_does(self):
        # A zero uniform lands on the first outcome (Z = -1), whose weight 1e-13 is below ZERO_PROBABILITY.
        state = StateVector([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)])
        with pytest.raises(ValueError, match="zero probability") as expected:
            measure(PSystem(state, "passive", _ZeroUniforms()), Z)
        with pytest.raises(ValueError, match="zero probability") as caught:
            repeatability_experiment(state, Z, "passive", 3, _ZeroUniforms())
        assert str(caught.value) == str(expected.value)

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


RECOVERY_ORACLES = {
    3: OracleSpec(3, (0, 1, 1, 0, 1, 0, 0, 1)),
    4: OracleSpec(4, (0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1)),
}


def reference_quantum_function_recovery(spec, gen):
    oracle = oracle_unitary(spec)
    readout = Observable("basis-index", np.diag(np.arange(2 ** (spec.n + 1), dtype=float)).astype(complex))
    seen, calls = {}, 0
    while len(seen) < 2**spec.n:
        calls += 1
        start = tensor(plus_state(spec.n), basis_state(2, 0, (2,)))
        sys = PSystem(evolve(start, oracle), "quantum", gen)
        index = int(round(measure(sys, readout)))
        seen[index >> 1] = index & 1
    return calls, tuple(seen[x] for x in range(2**spec.n))


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


def multinomial_counts(gen, n, probabilities):
    """n draws from ``gen`` over the row-major cells of ``probabilities``, divided by their CDF total as sampled."""
    cells = np.asarray(probabilities).ravel()
    return gen.multinomial(n, cells / np.cumsum(cells)[-1]).reshape(np.shape(probabilities))


def quantum_pair_cells(state, obs):
    """p(a) p(b | a) over (first, second) outcome pairs, p(b | a) from the state the first outcome collapsed to."""
    first = born_distribution(obs, state).probabilities
    return np.array([p * born_distribution(obs, collapse_update(state, obs, a)).probabilities for a, p in enumerate(first)])


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
        # The trial loop agrees every time, as the one multinomial draw over the pair cells does.
        assert reference_quantum_repeatability(state, obs, 300, rng.stream(7, "eq/rep/loop")) == 1.0
        expected_gen, actual_gen = rng.stream(7, "eq/rep"), rng.stream(7, "eq/rep")
        counts = multinomial_counts(expected_gen, 300, quantum_pair_cells(state, obs))
        assert int(np.trace(counts)) == counts.sum() == 300
        assert repeatability_experiment(state, obs, "quantum", 300, actual_gen) == 1.0
        assert position(actual_gen) == position(expected_gen)

    def test_quantum_repeatability_rejects_a_drawn_impossible_outcome(self):
        # A zero uniform lands on the first outcome (Z = -1), whose weight 1e-13 is below ZERO_PROBABILITY.
        state = StateVector([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)])
        with pytest.raises(ValueError, match="zero probability"):
            reference_quantum_repeatability(state, Z, 3, _ZeroUniforms())
        with pytest.raises(ValueError, match="zero probability"):
            repeatability_experiment(state, Z, "quantum", 3, _ZeroUniforms())

    # Seeds 25 and 28 on the 4-bit oracle: the first trial's last new input arrives as
    # the last draw of the first block, and as the first draw of the second.
    @pytest.mark.parametrize(
        "bits, seed, path, trials, first_calls",
        [(3, seed, "eq/oracle", trials, None) for seed in range(4) for trials in (1, 7)]
        + [(4, 25, "eq/oracle/block", 3, ORACLE_DRAW_BLOCK), (4, 28, "eq/oracle/block", 3, ORACLE_DRAW_BLOCK + 1)],
    )
    def test_quantum_function_recovery(self, bits, seed, path, trials, first_calls):
        spec = RECOVERY_ORACLES[bits]
        expected_gen = rng.stream(seed, path)
        walks = [reference_quantum_function_recovery(spec, expected_gen) for _ in range(trials)]
        calls, table = protocols._quantum_recovery(spec, rng.stream(seed, path), trials)
        assert calls == [walk_calls for walk_calls, _ in walks]
        assert table == walks[-1][1]
        if first_calls is not None:
            assert calls[0] == first_calls
        # One trial is function_recovery, which takes whole blocks of uniforms.
        actual_gen = rng.stream(seed, path)
        report = function_recovery(spec, "quantum", actual_gen)
        assert (report.resources["oracle_calls"], report.verdicts["truth_table"]) == walks[0]
        blocks = -(-walks[0][0] // ORACLE_DRAW_BLOCK)
        expected_gen = rng.stream(seed, path)
        expected_gen.random(blocks * ORACLE_DRAW_BLOCK)
        assert position(actual_gen) == position(expected_gen)

    @pytest.mark.parametrize("mode", ["quantum", "passive"])
    def test_teleportation(self, mode):
        # Vectorised sums and BLAS dot products round differently: up to 8.9e-16 apart over 2000 inputs.
        for i in range(200):
            state = random_pure_state(2, rng.stream(i, "eq/tele/in"))
            expected_gen, actual_gen = rng.stream(i, "eq/tele"), rng.stream(i, "eq/tele")
            actual = teleportation_demo(state, mode, actual_gen)
            assert abs(actual - reference_teleportation(state, mode, expected_gen)) <= 2e-15
            assert position(actual_gen) == position(expected_gen)

    # Oracles for the multi-round cases, one per input width.
    SEVERAL_ROUND_ORACLES = {
        1: OracleSpec(1, (1, 0)),
        3: RECOVERY_ORACLES[3],
        5: OracleSpec(5, tuple(rng.stream(5, "eq/oracle/rounds/table").integers(0, 2, 32).tolist())),
    }

    @pytest.mark.parametrize("bits", [1, 3, 5])
    @pytest.mark.parametrize("trials", [2, 200])
    def test_quantum_function_recovery_in_several_rounds(self, bits, trials):
        # A round draws several whole blocks at once; the stream still ends at the block in which the last trial closes.
        spec, path = self.SEVERAL_ROUND_ORACLES[bits], f"eq/oracle/rounds/{bits}"
        expected_gen, actual_gen = rng.stream(trials, path), rng.stream(trials, path)
        if bits == 5 and trials == 200:
            # The dense reference takes ~14 s here: replay the draw-by-draw walk, checked against it in the next test.
            walks = draw_by_draw_recovery(spec, expected_gen, trials)
        else:
            walks = [reference_quantum_function_recovery(spec, expected_gen) for _ in range(trials)]
        calls, table = protocols._quantum_recovery(spec, actual_gen, trials)
        assert calls == [walk_calls for walk_calls, _ in walks]
        assert table == walks[-1][1]
        expected_gen = rng.stream(trials, path)
        expected_gen.random(-(-sum(calls) // ORACLE_DRAW_BLOCK) * ORACLE_DRAW_BLOCK)
        assert position(actual_gen) == position(expected_gen)

    def test_the_draw_by_draw_walk_is_the_reference_walk(self):
        spec = self.SEVERAL_ROUND_ORACLES[5]
        expected_gen, actual_gen = rng.stream(0, "eq/oracle/rounds/walk"), rng.stream(0, "eq/oracle/rounds/walk")
        walks = [reference_quantum_function_recovery(spec, expected_gen) for _ in range(3)]
        assert draw_by_draw_recovery(spec, actual_gen, 3) == walks
        assert position(actual_gen) == position(expected_gen)

    @pytest.mark.parametrize("mode", ["quantum", "passive"])
    def test_teleportation_fidelities_are_the_matrix_products_bit_for_bit(self, mode):
        gen = rng.stream(3, "eq/tele/rows")
        inputs = np.array([random_pure_state(2, gen).amplitudes for _ in range(600)])
        inputs[:3] = [[0.0, 1.0], [1.0, 0.0], [0.0, 1j]]  # zero amplitudes, and a purely imaginary one
        inputs[3:6, 1] = 1j * np.abs(inputs[3:6, 1])
        expected_gen, actual_gen = rng.stream(3, "eq/tele/draws"), rng.stream(3, "eq/tele/draws")
        expected = matrix_product_teleportation_fidelities(inputs, mode, expected_gen)
        assert teleportation_fidelities(inputs, mode, actual_gen).tobytes() == expected.tobytes()
        assert position(actual_gen) == position(expected_gen)

    def test_each_bell_bra_and_correction_column_reads_one_entry(self):
        # The premise of the gathers: column b of a block is zero off rows b and 2 + b, each Bell bra has at most
        # one nonzero entry on those two rows, and each column of a Pauli correction at most one nonzero entry.
        shared = protocols._SHARED_PAIR
        assert shared[0, 1] == shared[1, 0] == 0.0
        for k in range(4):
            for b in range(2):
                assert np.count_nonzero(protocols._BELL_BRAS[k, [b, 2 + b]]) <= 1
                assert np.count_nonzero(protocols._CORRECTIONS[k, :, b]) <= 1


def draw_by_draw_recovery(spec, gen, trials):
    """Quantum recovery walked one draw at a time, whole ``ORACLE_DRAW_BLOCK`` blocks of uniforms at a time."""
    readout, table = protocols._post_oracle_readout(spec)
    walks, calls, seen = [], 0, {}
    while True:
        for index in measurement._cdf_index(table, gen.random(ORACLE_DRAW_BLOCK), (readout,), "quantum").tolist():
            calls += 1
            seen[index >> 1] = index & 1
            if len(seen) == 2**spec.n:
                walks.append((calls, tuple(seen[x] for x in range(2**spec.n))))
                if len(walks) == trials:
                    return walks
                calls, seen = 0, {}


def matrix_product_teleportation_fidelities(inputs, mode, gen):
    """``teleportation_fidelities`` with <bell_k| block and <psi| C_k as a matrix product and an einsum."""
    rows = len(inputs)
    block = (inputs[:, :, None, None] * protocols._SHARED_PAIR).reshape(rows, 4, 2)
    conditional = protocols._BELL_BRAS @ block
    table = measurement._cdf_table(np.einsum("tkb,tkb->tk", conditional.conj(), conditional).real)
    measurement._cdf_index(table, gen.random(rows), (protocols._BELL_READOUT,), mode)
    probabilities = table.probabilities
    possible = probabilities > measurement.ZERO_PROBABILITY
    if mode == "quantum":
        branches = (conditional / np.sqrt(np.where(possible, probabilities, 1.0))[:, :, None])[:, :, None, :]
    else:
        branches = block[:, None, :, :]
    corrected_bras = np.einsum("tc,kcb->tkb", inputs.conj(), protocols._CORRECTIONS)
    overlaps = branches @ corrected_bras[:, :, :, None]
    branch_fidelities = np.sum(np.abs(overlaps[..., 0]) ** 2, axis=2)
    return np.sum(np.where(possible, probabilities * branch_fidelities, 0.0), axis=1)


def reference_run_teleportation(config):
    """The teleportation runner one trial at a time; returns the report and its protocol and input streams."""
    stream = rng.stream(config.seed, f"{config.name}/teleportation")
    inputs = rng.stream(config.seed, f"{config.name}/teleportation/input")
    fidelities = []
    for _ in range(config.trials):
        state = config.inputs.state if config.inputs.state is not None else random_pure_state(2, inputs)
        fidelities.append(reference_teleportation(state, config.mode, stream))
    report = Report(json.loads(config.to_json()), config.seed)
    report.add_metric("average_fidelity", float(np.mean(fidelities)))
    return report, stream, inputs


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
            expected, expected_stream, expected_inputs = reference_run_teleportation(config)
            actual, streams = run_capturing_streams(monkeypatch, config)
            assert actual.to_json() == expected.to_json()
            assert position(streams["teleportation"]) == position(expected_stream)
            if initial_state is None:
                assert position(streams["teleportation/input"]) == position(expected_inputs)

    def test_random_inputs_are_successive_random_pure_states(self, monkeypatch):
        # Block row t holds the normals the t-th random_pure_state(2, gen) draws; only the
        # norm is taken row-wise, within a few units in the last place of StateVector.normalized.
        monkeypatch.setattr(runner_module, "TELEPORTATION_BLOCK", 8)
        drawn = []
        real = runner_module.teleportation_fidelities

        def recording(inputs, *args):
            drawn.append(inputs.copy())
            return real(inputs, *args)

        monkeypatch.setattr(runner_module, "teleportation_fidelities", recording)
        config = teleportation_config("passive", 2 * 8 + 3)
        run(config)
        gen = rng.stream(config.seed, "tele/teleportation/input")
        expected = np.array([random_pure_state(2, gen).amplitudes for _ in range(config.trials)])
        assert [len(block) for block in drawn] == [8, 8, 3]
        np.testing.assert_allclose(np.concatenate(drawn), expected, rtol=0.0, atol=4 * np.finfo(float).eps)

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


def function_recovery_config(trials):
    config = {
        "name": "fr",
        "protocol": "function-recovery",
        "mode": "quantum",
        "oracle": {"n": 2, "truth_table": [0, 1, 1, 1]},
        "trials": trials,
        "seed": 4,
    }
    return parse_config(json.dumps(config))


class TestStreamsPerRun:
    # No run opens a stream per trial: the streams are one per purpose, whatever ``trials`` is.
    @pytest.mark.parametrize(
        "make_config, counts, purposes",
        [
            (lambda trials: teleportation_config("quantum", trials), (1, 2 * B + 3), ["teleportation", "teleportation/input"]),
            (lambda trials: teleportation_config("passive", trials, "random-pure:3"), (1, 2 * B + 3), ["teleportation"]),
            (function_recovery_config, (1, 50), ["function-recovery"]),
        ],
        ids=["teleportation-random-input", "teleportation-initial-state", "function-recovery-quantum"],
    )
    def test_streams_opened_do_not_grow_with_trials(self, monkeypatch, make_config, counts, purposes):
        paths = []
        real_stream = rng.stream

        def counting(seed, path=""):
            paths.append(path)
            return real_stream(seed, path)

        monkeypatch.setattr(rng, "stream", counting)
        opened = []
        for trials in counts:
            config = make_config(trials)
            paths.clear()
            _, streams = run_capturing_streams(monkeypatch, config)
            assert sorted(streams) == sorted(purposes)
            assert sorted(paths) == sorted(f"{config.name}/{purpose}" for purpose in purposes)
            opened.append(len(paths))
        assert opened[0] == opened[1]

    def test_quantum_function_recovery_walks_every_trial_on_the_protocol_stream(self):
        config = function_recovery_config(50)
        gen = rng.stream(config.seed, "fr/function-recovery")
        walks = [reference_quantum_function_recovery(config.inputs.oracle, gen) for _ in range(config.trials)]
        calls = [walk_calls for walk_calls, _ in walks]
        expected = Report(json.loads(config.to_json()), config.seed)
        expected.add_metric("oracle_calls_mean", float(np.mean(calls)), float(np.std(calls) / np.sqrt(len(calls))))
        expected.verdicts["truth_table"] = list(walks[-1][1])
        assert run(config).to_json() == expected.to_json()
