from collections import Counter

import numpy as np
import pytest
from conftest import GivenUniforms, _first_possible_outcome, philox_position, position
from hypothesis import given, settings
from hypothesis import strategies as st

from pqt import rng
from pqt.composite import (
    LocalSetting,
    global_joint_sample,
    joint_distribution_global,
    local_passive_joint_sample,
    reconstruct_reduced_single_copy,
)
from pqt.hilbert import (
    DensityOperator,
    PAULI_X,
    PAULI_Z,
    StateVector,
    basis_state,
    bell_state,
    maximally_mixed,
    pauli_matrix,
    plus_state,
    random_density,
    random_hermitian,
    random_pure_state,
)
from pqt.measurement import (
    Observable,
    OutcomeDistribution,
    PSystem,
    SEARCH_PER_EDGE,
    _cdf_counts,
    _cdf_index,
    _cdf_table,
    _Readout,
    born_distribution,
    collapse_update,
    expectation_variance,
    luders_map,
    measure,
    nonlinearity_witness,
    p_instrument_map,
    passive_update,
    repeated_measure,
)
from pqt.protocols import repeatability_experiment, simulate_qt_with_pqt
from pqt.tomography import estimate_expectations, estimate_spectrum, pauli_ic_set

Z = Observable("Z", PAULI_Z)
X = Observable("X", PAULI_X)


class TestObservable:
    def test_decomposition_reconstructs(self):
        g = rng.stream(0, "obs")
        for _ in range(5):
            matrix = random_hermitian(4, g)
            obs = Observable("H", matrix)
            np.testing.assert_allclose(obs.decomposition.reconstruct(), matrix, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            Observable("bad", np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestOutcomeDistribution:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            OutcomeDistribution((0.0, 1.0), np.array([-0.5, 1.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution((0.0, 1.0), np.array([0.3, 0.3]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probability(self, entry):
        with pytest.raises(ValueError, match="sum to|negative"):
            OutcomeDistribution((0.0, 1.0), np.array([entry, 1.0]))
        # The same row inside a table of several, as the frame sampler and teleportation build them.
        with pytest.raises(ValueError, match="sum to|negative"):
            _cdf_table(np.array([[0.5, 0.5], [entry, 1.0], [1.0, 0.0]]))

    def test_rejects_a_probability_count_other_than_the_eigenvalue_count(self):
        with pytest.raises(ValueError, match="3 probabilities for 2 eigenvalues"):
            OutcomeDistribution((0.0, 1.0), np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError, match="1 probabilities for 2 eigenvalues"):
            OutcomeDistribution((0.0, 1.0), np.array([1.0]))

    def test_clips_dust_to_zero(self):
        dist = OutcomeDistribution((0.0, 1.0), np.array([-1e-13, 1.0 + 1e-13]))
        assert dist.probabilities[0] == 0.0

    def test_zero_probability_outcomes_never_sampled(self):
        dist = OutcomeDistribution((0.0, 1.0, 2.0), np.array([0.5, 0.0, 0.5]))
        indices = dist.sample_indices(rng.stream(0, "dist/zero"), 10_000, _Readout("D", dist.eigenvalues), "passive")
        assert 1 not in set(indices.tolist())


class TestBornDistribution:
    def test_eigenstate(self):
        assert born_distribution(Z, basis_state(2, 0)).as_dict() == {-1.0: 0.0, 1.0: 1.0}

    def test_unbiased_superposition(self):
        dist = born_distribution(X, basis_state(2, 0))
        assert dist.as_dict()[1.0] == pytest.approx(0.5)
        assert dist.as_dict()[-1.0] == pytest.approx(0.5)

    def test_bell_marginal(self):
        z_on_a = Observable("ZI", pauli_matrix("ZI"))
        dist = born_distribution(z_on_a, bell_state("phi+"))
        assert dist.as_dict()[1.0] == pytest.approx(0.5)
        assert dist.as_dict()[-1.0] == pytest.approx(0.5)

    def test_pure_and_projector_agree(self):
        # Mode independence and psi vs |psi><psi| equality.
        g = rng.stream(2, "born")
        for _ in range(10):
            psi = random_pure_state(3, g)
            obs = Observable("H", random_hermitian(3, g))
            p_pure = born_distribution(obs, psi).probabilities
            p_mixed = born_distribution(obs, psi.to_density()).probabilities
            np.testing.assert_allclose(p_pure, p_mixed, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_distribution(Z, basis_state(4, 0))


class TestCollapseUpdate:
    def test_plus_collapses_to_zero(self):
        post = collapse_update(plus_state(), Z, outcome_index=1)
        assert post.ray_equal(basis_state(2, 0))

    def test_bell_collapses_to_product(self):
        z_on_a = Observable("ZI", pauli_matrix("ZI"))
        post = collapse_update(bell_state("phi+"), z_on_a, outcome_index=1)
        target = basis_state(4, 0, (2, 2))  # |00>
        assert post.ray_equal(target)

    def test_zero_probability_outcome_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            collapse_update(basis_state(2, 0), Z, outcome_index=0)

    def test_idempotent(self):
        g = rng.stream(3, "collapse")
        for _ in range(10):
            psi = random_pure_state(4, g)
            obs = Observable("H", random_hermitian(4, g))
            index = int(np.argmax(born_distribution(obs, psi).probabilities))
            once = collapse_update(psi, obs, index)
            twice = collapse_update(once, obs, index)
            np.testing.assert_allclose(once.amplitudes, twice.amplitudes, atol=1e-12)

    def test_density_collapse(self):
        post = collapse_update(maximally_mixed(2), Z, outcome_index=1)
        np.testing.assert_allclose(post.matrix, basis_state(2, 0).projector(), atol=1e-12)

    def test_degenerate_outcome_collapses_onto_eigenspace(self):
        # The merged projector preserves relative amplitudes inside the
        # degenerate eigenspace instead of picking a basis state.
        obs = Observable("D", np.diag([1.0, 1.0, 2.0]).astype(complex))
        assert obs.eigenvalues == (1.0, 2.0)
        psi = StateVector(np.array([0.6, 0.48, 0.64]))
        post = collapse_update(psi, obs, outcome_index=0)
        expected = np.array([0.6, 0.48, 0.0])
        np.testing.assert_allclose(post.amplitudes, expected / np.linalg.norm(expected), atol=1e-12)


class TestPassiveUpdate:
    def test_returns_the_same_object(self):
        state = plus_state()
        assert passive_update(state, Z, 1) is state

    def test_bell_state_untouched(self):
        state = bell_state("phi+")
        z_on_a = Observable("ZI", pauli_matrix("ZI"))
        assert passive_update(state, z_on_a, 0) is state

    def test_maximally_mixed_untouched(self):
        state = maximally_mixed(2)
        assert passive_update(state, X, 1) is state

    def test_impossible_outcome_rejected(self):
        with pytest.raises(ValueError, match="impossible outcome"):
            passive_update(basis_state(2, 0), Z, outcome_index=0)

    def test_bit_identical_for_all_realizable_outcomes(self):
        g = rng.stream(4, "passive")
        for _ in range(10):
            psi = random_pure_state(3, g)
            obs = Observable("H", random_hermitian(3, g))
            before = psi.amplitudes.copy()
            for index, p in enumerate(born_distribution(obs, psi).probabilities):
                if p > 1e-12:
                    out = passive_update(psi, obs, index)
                    assert out is psi
                    assert np.array_equal(out.amplitudes, before)


class TestMeasure:
    def test_deterministic_branch(self):
        sys = PSystem(basis_state(2, 0), "quantum", rng.stream(0, "m"))
        assert measure(sys, Z) == 1.0
        assert sys.state.ray_equal(basis_state(2, 0))

    def test_passive_leaves_state(self):
        state = plus_state()
        sys = PSystem(state, "passive", rng.stream(1, "m"))
        for _ in range(20):
            value = measure(sys, Z)
            assert value in (-1.0, 1.0)
            assert sys.state is state

    def test_same_seed_replays_outcomes(self):
        a = PSystem(plus_state(), "quantum", rng.stream(11, "replay"))
        b = PSystem(plus_state(), "quantum", rng.stream(11, "replay"))
        assert [measure(a, Z)] == [measure(b, Z)]
        sequence_a = [measure(PSystem(plus_state(), "passive", rng.stream(11, f"replay/{i}")), Z) for i in range(8)]
        sequence_b = [measure(PSystem(plus_state(), "passive", rng.stream(11, f"replay/{i}")), Z) for i in range(8)]
        assert sequence_a == sequence_b

    def test_replace_state_guards_dimension(self):
        sys = PSystem(plus_state(), "passive", rng.stream(3, "m"))
        with pytest.raises(ValueError, match="different dimension"):
            sys.replace_state(basis_state(4, 0))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            PSystem(plus_state(), "classical", rng.stream(4, "m"))


class TestRepeatedMeasure:
    def test_quantum_outcomes_all_repeat(self):
        sys = PSystem(plus_state(), "quantum", rng.stream(5, "rep"))
        record = repeated_measure(sys, Z, 5)
        assert len(set(record.outcomes)) == 1

    def test_eigenstate_always_same(self):
        sys = PSystem(basis_state(2, 0), "passive", rng.stream(6, "rep"))
        record = repeated_measure(sys, Z, 7)
        assert record.outcomes.tolist() == [1.0] * 7

    def test_passive_frequency_within_binomial_band(self):
        # 3-sigma binomial oracle: p = 1/2, n = 1e5 -> half-width 0.00474.
        n = 100_000
        sys = PSystem(plus_state(), "passive", rng.stream(42, "rep/freq"))
        record = repeated_measure(sys, Z, n)
        frequency = np.mean(np.asarray(record.outcomes) == 1.0)
        band = 3 * 0.5 / np.sqrt(n)
        assert abs(frequency - 0.5) <= band

    def test_passive_batch_equals_scalar_loop(self):
        # The vectorised passive path must consume the stream exactly as
        # n single measurements would.
        batch_sys = PSystem(plus_state(), "passive", rng.stream(9, "rep/batch"))
        batch = repeated_measure(batch_sys, Z, 50).outcomes
        loop_sys = PSystem(plus_state(), "passive", rng.stream(9, "rep/batch"))
        loop = [measure(loop_sys, Z) for _ in range(50)]
        assert batch.tolist() == loop

    def test_record_counts_match_its_outcomes(self):
        sys = PSystem(plus_state(), "passive", rng.stream(12, "rep/history"))
        record = repeated_measure(sys, Z, 10**6)
        assert (record.observable, record.shots, record.mode) == ("Z", 10**6, "passive")
        counts = record.counts()
        assert sum(counts.values()) == 10**6
        assert counts[1.0] == int(np.sum(record.outcomes == 1.0))

    def test_monte_carlo_tv_convergence(self):
        # TV between empirical passive frequencies and the Born
        # distribution <= 5/sqrt(n) for n >= 1e4, across random cases.
        n = 10_000
        for seed in range(5):
            g = rng.stream(seed, "rep/tv")
            psi = random_pure_state(3, g)
            obs = Observable("H", random_hermitian(3, g))
            dist = born_distribution(obs, psi)
            record = repeated_measure(PSystem(psi, "passive", g), obs, n)
            outcomes = np.asarray(record.outcomes)
            empirical = np.array([np.mean(outcomes == v) for v in dist.eigenvalues])
            tv = 0.5 * np.abs(empirical - dist.probabilities).sum()
            assert tv <= 5.0 / np.sqrt(n)

    def test_passive_rejects_a_later_impossible_draw(self):
        # The second uniform, 0.0, lands on Z = -1, whose weight 1e-13 is below ZERO_PROBABILITY.
        state = StateVector([np.sqrt(1.0 - 1e-13), np.sqrt(1e-13)])
        loop_sys = PSystem(state, "passive", GivenUniforms([0.5, 0.0]))
        assert measure(loop_sys, Z) == 1.0
        with pytest.raises(ValueError, match="zero probability"):
            measure(loop_sys, Z)
        with pytest.raises(ValueError, match="zero probability"):
            repeated_measure(PSystem(state, "passive", GivenUniforms([0.5, 0.0])), Z, 2)

    def test_needs_positive_count(self):
        sys = PSystem(plus_state(), "passive", rng.stream(0, "rep"))
        with pytest.raises(ValueError, match="at least one"):
            repeated_measure(sys, Z, 0)

    def test_one_outcome_observable(self):
        # The identity has one outcome: its Born row is [1.0], with no interior CDF edge.
        identity = Observable("I", np.eye(2))
        for mode in ("quantum", "passive"):
            sys = PSystem(plus_state(), mode, rng.stream(13, "rep/one-outcome"))
            assert Counter(measure(sys, identity) for _ in range(5000)) == {1.0: 5000}
        record = repeated_measure(PSystem(plus_state(), "passive", rng.stream(13, "rep/one-outcome")), identity, 5000)
        assert record.counts() == {1.0: 5000}


class TestInverseCdf:
    # Literal draws of the separate samplers the shared one replaced, on fixed streams.

    def test_joint_grid_draws_are_unchanged(self):
        # The joint table's counts are one multinomial draw, not a tally of these per-shot indices.
        diagonal = Observable("D", (PAULI_Z + PAULI_X) / np.sqrt(2))
        probs = joint_distribution_global(bell_state("phi+"), Z, diagonal)
        indices = inverse_cdf(probs.reshape(-1), rng.stream(11, "joint"), 16)
        assert indices.tolist() == [3, 3, 3, 0, 0, 3, 3, 3, 0, 2, 0, 3, 3, 3, 0, 0]
        sys = PSystem(bell_state("phi+"), "passive", rng.stream(11, "joint"))
        assert global_joint_sample(sys, Z, diagonal, 1000).counts.tolist() == [[448, 67], [69, 416]]

    def test_mixture_draws_are_unchanged(self):
        weights = np.array([0.5, 0.25, 0.25])
        expected = [0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 1, 2, 0, 1, 0, 1]
        g = rng.stream(3, "mixture")
        assert [int(inverse_cdf(weights, g, 1)[0]) for _ in range(16)] == expected
        assert inverse_cdf(weights, rng.stream(3, "mixture"), 16).tolist() == expected


def inverse_cdf(weights, gen, n):
    """n inverse-CDF draws from ``gen`` over one row of weights."""
    return _cdf_index(_cdf_table(np.asarray(weights)[None]), gen.random(n), None, None)


def one_shot_indices(weights, uniforms):
    """The inverse-CDF index kernel as written before its two-outcome comparison."""
    cdf = np.cumsum(weights)
    return np.minimum(np.searchsorted(cdf, uniforms * cdf[-1], side="right"), cdf.size - 1)


# Weight rows whose CDF edges are all multiples of 1/64 and whose totals are 1,
# so that the uniforms j/64 land exactly on edges.
EXACT_WEIGHTS = {
    "1": [1.0],
    "2": [0.25, 0.75],
    "2-zero-first": [0.0, 1.0],
    "2-zero-last": [1.0, 0.0],
    "3": [0.25, 0.0, 0.75],
    "4": [0.5, 0.0, 0.25, 0.25],
    "16": [1 / 8, 0, 1 / 16, 1 / 16, 0, 0, 1 / 4, 1 / 8, 1 / 16, 1 / 16, 0, 1 / 8, 1 / 16, 0, 0, 1 / 16],
    "64": [1 / 32, 0.0] * 32,
}
EDGE_UNIFORMS = np.concatenate((np.arange(64) / 64, np.nextafter(np.arange(1, 65) / 64, 0)))


class TestCdfIndex:
    # "few" uniforms per row take searchsorted on one row of 3 or more
    # outcomes, "many" take the edge loop; padded rows always take the loop.
    # A one-outcome row has interior edges of width 0: every uniform draws outcome 0.
    @pytest.mark.parametrize("n", [EDGE_UNIFORMS.size, SEARCH_PER_EDGE * 63], ids=["few", "many"])
    @pytest.mark.parametrize(
        "rows",
        [[name] for name in EXACT_WEIGHTS] + [["2", "4", "3", "16", "2-zero-last"]],
        ids=[*EXACT_WEIGHTS, "padded"],
    )
    def test_ties_and_zero_weights_match_searchsorted(self, rows, n):
        weights = [EXACT_WEIGHTS[name] for name in rows]
        raw = np.zeros((len(weights), max(len(row) for row in weights)))
        for i, row in enumerate(weights):
            raw[i, : len(row)] = row
        uniforms = np.resize(EDGE_UNIFORMS, (len(weights), n))
        expected = np.array([one_shot_indices(row, u) for row, u in zip(weights, uniforms)])
        assert _cdf_index(_cdf_table(raw), uniforms.copy(), None, None).tolist() == expected.tolist()


def multinomial_reference(gen, n, raw):
    """n draws of every row of ``raw`` from ``gen``, each row divided by its CDF total as the counting kernel does."""
    return gen.multinomial(n, raw / np.cumsum(raw, axis=1)[:, -1:])


# Rows of 3, 2, 4, 1 and 3 outcomes padded with zero weight to 4, with zero weights inside rows.
PADDED_RAW = np.array(
    [
        [0.25, 0.0, 0.75, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.1, 0.2, 0.3, 0.4],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.6, 0.4, 0.0],
    ]
)


class TestCdfCounts:
    @pytest.mark.parametrize("n", [1, 3, 2**16 + 1, 10**5 + 3, 10**7])
    @pytest.mark.parametrize("k", [2, 3, 4, 16, 64])
    def test_is_one_multinomial_draw(self, n, k):
        for zero in (None, 0, k // 2, k - 1):
            weights = rng.stream(k, "counts/weights").random(k)
            if zero is not None:
                weights[zero] = 0.0
            weights /= weights.sum()
            expected_gen, actual_gen = rng.stream(n, "counts"), rng.stream(n, "counts")
            expected_gen.random(5)
            actual_gen.random(5)
            expected = multinomial_reference(expected_gen, n, weights[None])
            assert _cdf_counts(_cdf_table(weights[None]), actual_gen, n, None, None).tolist() == expected.tolist()
            assert position(actual_gen) == position(expected_gen)

    def test_counts_and_stream_position_are_pinned(self):
        gen = rng.stream(7, "counts/pinned")
        assert _cdf_counts(_cdf_table(PADDED_RAW), gen, 10**6, None, None).tolist() == [
            [249722, 0, 750278, 0],
            [499434, 500566, 0, 0],
            [100068, 199685, 299920, 400327],
            [1000000, 0, 0, 0],
            [0, 599888, 400112, 0],
        ]
        assert philox_position(gen) == ([5, 0, 0, 0], 2)

    def test_a_remainder_on_a_weightless_last_column_moves_to_the_last_possible_outcome(self):
        # numpy leaves a row's rounding remainder on its last column; this stand-in leaves one draw there.
        class RemainderOnLastColumn:
            def multinomial(self, n, pvals):
                counts = _first_possible_outcome(n - 1, pvals)
                counts[:, -1] += 1
                return counts

        counts = _cdf_counts(_cdf_table(PADDED_RAW), RemainderOnLastColumn(), 5, None, None)
        assert counts.tolist() == [[4, 0, 1, 0], [4, 1, 0, 0], [4, 0, 0, 1], [5, 0, 0, 0], [0, 4, 1, 0]]


@st.composite
def cdf_tables(draw):
    """Rows of 1 to 5 outcomes, padded to the widest, with zero weights among them."""
    weight = st.one_of(st.sampled_from([0.0, 0.0, 0.125, 0.5]), st.floats(0.01, 1.0))
    rows = draw(st.lists(st.lists(weight, min_size=1, max_size=5).filter(any), min_size=1, max_size=5))
    raw = np.zeros((len(rows), max(len(row) for row in rows)))
    for i, row in enumerate(rows):
        raw[i, : len(row)] = np.array(row) / sum(row)
    return raw


class TestCdfCountsProperty:
    @settings(max_examples=60, deadline=None)
    @given(raw=cdf_tables(), n=st.sampled_from([1, 2, 1000, 10**5 + 1, 10**7]), seed=st.integers(0, 2**32 - 1))
    def test_counts_are_the_multinomial_draw_and_only_possible_outcomes_are_counted(self, raw, n, seed):
        expected_gen, actual_gen = rng.stream(seed, "counts/property"), rng.stream(seed, "counts/property")
        counts = _cdf_counts(_cdf_table(raw), actual_gen, n, None, None)
        assert counts.tolist() == multinomial_reference(expected_gen, n, raw).tolist()
        assert position(actual_gen) == position(expected_gen)
        assert (counts.sum(axis=1) == n).all()
        assert not counts[raw == 0.0].any()


def wilson_hilferty(df, z):
    """The chi-square quantile of ``df`` degrees of freedom at standard normal deviate z (Wilson & Hilferty, 1931)."""
    return df * (1.0 - 2.0 / (9.0 * df) + z * np.sqrt(2.0 / (9.0 * df))) ** 3


Z_BOUND = 4.5  # a deviate this far out in either tail has probability 7e-6


def pearson(counts, expected):
    """Pearson's statistic over the possible outcomes of every row, and its degrees of freedom."""
    possible = expected > 0.0
    statistic = ((counts - expected)[possible] ** 2 / expected[possible]).sum()
    return float(statistic), int((possible.sum(axis=1) - 1).sum())


class TestCdfCountsDistribution:
    # Counts summed over seeds are multinomial with large expected counts, so Pearson's
    # statistic is chi-square with (outcomes - 1) degrees of freedom per row.  Once every
    # n p is large, so is the sum of each draw's statistic over the seeds.
    SEEDS = 300

    @pytest.mark.parametrize("n", [1, 10, 1000, 10**5, 10**7])
    def test_pearson_statistic_within_wilson_hilferty_bounds(self, n):
        table = _cdf_table(PADDED_RAW)
        total = np.zeros(PADDED_RAW.shape, dtype=np.int64)
        per_draw, per_draw_df = 0.0, 0
        for seed in range(self.SEEDS):
            counts = _cdf_counts(table, rng.stream(seed, "counts/distribution"), n, None, None)
            assert not counts[PADDED_RAW == 0.0].any()  # no padded column or zero-weight outcome holds a count
            assert (counts.sum(axis=1) == n).all()
            total += counts
            statistic, df = pearson(counts, n * PADDED_RAW)
            per_draw, per_draw_df = per_draw + statistic, per_draw_df + df
        statistic, df = pearson(total, self.SEEDS * n * PADDED_RAW)
        assert wilson_hilferty(df, -Z_BOUND) <= statistic <= wilson_hilferty(df, Z_BOUND)
        if n * PADDED_RAW[PADDED_RAW > 0.0].min() >= 50:
            assert wilson_hilferty(per_draw_df, -Z_BOUND) <= per_draw <= wilson_hilferty(per_draw_df, Z_BOUND)

    def test_wilson_hilferty_matches_tabulated_quantiles(self):
        # chi-square 0.999 quantiles (z = 3.0902): 16.266 at 3 df, 149.449 at 100 df.
        assert wilson_hilferty(3, 3.0902) == pytest.approx(16.266, rel=0.02)
        assert wilson_hilferty(100, 3.0902) == pytest.approx(149.449, rel=0.001)


class TestInstruments:
    def test_luders_on_maximally_mixed(self):
        p0 = basis_state(2, 0).projector()
        matrix, weight = luders_map(maximally_mixed(2), p0)
        np.testing.assert_allclose(matrix, 0.5 * p0, atol=1e-12)
        assert weight == pytest.approx(0.5)

    def test_luders_orthogonal_case(self):
        matrix, weight = luders_map(basis_state(2, 0).to_density(), basis_state(2, 1).projector())
        np.testing.assert_allclose(matrix, 0, atol=1e-12)
        assert weight == pytest.approx(0.0, abs=1e-12)

    def test_luders_plus_state_oracle(self):
        # Direct matrix-product oracle: P |+><+| P = |0><0| / 2.
        p0 = basis_state(2, 0).projector()
        rho = plus_state().to_density()
        matrix, weight = luders_map(rho, p0)
        oracle = p0 @ rho.matrix @ p0
        np.testing.assert_allclose(matrix, oracle, atol=1e-12)
        np.testing.assert_allclose(matrix, 0.5 * p0, atol=1e-12)
        assert weight == pytest.approx(0.5)

    def test_p_instrument_scales_input(self):
        p0 = basis_state(2, 0).projector()
        rho = plus_state().to_density()
        matrix, weight = p_instrument_map(rho, p0)
        np.testing.assert_allclose(matrix, 0.5 * rho.matrix, atol=1e-12)
        assert weight == pytest.approx(0.5)

    def test_p_instrument_eigenstate(self):
        rho = basis_state(2, 0).to_density()
        matrix, weight = p_instrument_map(rho, basis_state(2, 0).projector())
        np.testing.assert_allclose(matrix, rho.matrix, atol=1e-12)
        assert weight == pytest.approx(1.0)

    def test_p_instrument_maximally_mixed(self):
        # Direct evaluation: weight Tr[P rho P] = 1/2, output rho/2 = I/4.
        matrix, weight = p_instrument_map(maximally_mixed(2), basis_state(2, 0).projector())
        np.testing.assert_allclose(matrix, np.eye(2) / 4, atol=1e-12)
        assert weight == pytest.approx(0.5)

    def test_weights_equal_born_probability(self):
        g = rng.stream(7, "instr")
        for _ in range(10):
            rho = random_density(3, g)
            obs = Observable("H", random_hermitian(3, g))
            dist = born_distribution(obs, rho)
            for index, projector in enumerate(obs.projectors):
                _, w_luders = luders_map(rho, projector)
                _, w_passive = p_instrument_map(rho, projector)
                assert w_luders == pytest.approx(dist.probabilities[index], abs=1e-12)
                assert w_passive == pytest.approx(dist.probabilities[index], abs=1e-12)

    def test_luders_is_linear(self):
        g = rng.stream(8, "instr/linear")
        for _ in range(10):
            rho1, rho2 = random_density(3, g), random_density(3, g)
            lam = float(g.uniform(0.1, 0.9))
            obs = Observable("H", random_hermitian(3, g))
            projector = obs.projectors[0]
            blend = DensityOperator(lam * rho1.matrix + (1 - lam) * rho2.matrix)
            lhs, _ = luders_map(blend, projector)
            rhs = lam * luders_map(rho1, projector)[0] + (1 - lam) * luders_map(rho2, projector)[0]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestNonlinearityWitness:
    def test_canonical_value(self):
        # Both sides evaluated explicitly: blend I/2 maps to I/4 while
        # the blended maps give |0><0| / 2; Frobenius gap sqrt(1/8).
        rho1 = basis_state(2, 0).to_density()
        rho2 = basis_state(2, 1).to_density()
        p0 = basis_state(2, 0).projector()
        lhs = 0.5 * (0.5 * np.eye(2))  # Tr[P (I/2) P] * (I/2)
        rhs = 0.5 * (1.0 * rho1.matrix) + 0.5 * (0.0 * rho2.matrix)
        expected = np.linalg.norm(lhs - rhs)
        assert expected == pytest.approx(np.sqrt(0.125))
        witness = nonlinearity_witness(rho1, rho2, 0.5, p0)
        assert witness == pytest.approx(expected, abs=1e-12)
        assert witness == pytest.approx(0.35355339, abs=1e-8)

    def test_equal_states_give_zero(self):
        rho = random_density(2, rng.stream(1, "wit"))
        assert nonlinearity_witness(rho, rho, 0.5, basis_state(2, 0).projector()) == pytest.approx(0.0, abs=1e-12)

    def test_equal_traces_give_zero(self):
        # On the slice Tr[P rho1] = Tr[P rho2] the map is affine:
        # omega = p * rho for both, so the gap closes (algebraic identity).
        rho1 = plus_state().to_density()
        minus = DensityOperator(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        p0 = basis_state(2, 0).projector()
        assert np.trace(p0 @ rho1.matrix).real == pytest.approx(np.trace(p0 @ minus.matrix).real)
        assert nonlinearity_witness(rho1, minus, 0.3, p0) == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_traces_differ(self):
        g = rng.stream(2, "wit/pos")
        for _ in range(10):
            rho1, rho2 = random_density(2, g), random_density(2, g)
            p0 = basis_state(2, 0).projector()
            t1 = np.trace(p0 @ rho1.matrix).real
            t2 = np.trace(p0 @ rho2.matrix).real
            if abs(t1 - t2) > 1e-6:
                assert nonlinearity_witness(rho1, rho2, 0.5, p0) > 0.0

    def test_lambda_range_enforced(self):
        rho = random_density(2, rng.stream(3, "wit"))
        with pytest.raises(ValueError, match="strictly between"):
            nonlinearity_witness(rho, rho, 1.0, basis_state(2, 0).projector())


class TestExpectationVariance:
    def test_eigenstate(self):
        assert expectation_variance(Z, basis_state(2, 0)) == (1.0, 0.0)

    def test_plus_state(self):
        mean, variance = expectation_variance(Z, plus_state())
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert variance == pytest.approx(1.0)

    def test_robertson_bound_saturated_trivially(self):
        # On |0>, Delta X * Delta Z = 0 and |<[X, Z]>| / 2 = 0.
        _, var_x = expectation_variance(X, basis_state(2, 0))
        _, var_z = expectation_variance(Z, basis_state(2, 0))
        commutator = PAULI_X @ PAULI_Z - PAULI_Z @ PAULI_X
        bound = 0.5 * abs(np.vdot(basis_state(2, 0).amplitudes, commutator @ basis_state(2, 0).amplitudes))
        assert np.sqrt(var_x * var_z) == pytest.approx(0.0, abs=1e-10)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_robertson_inequality_on_random_triples(self):
        # Commutator-expectation oracle for randomized (A, B, psi).
        g = rng.stream(10, "robertson")
        for _ in range(25):
            dim = int(g.integers(2, 5))
            a = random_hermitian(dim, g)
            b = random_hermitian(dim, g)
            psi = random_pure_state(dim, g)
            _, var_a = expectation_variance(Observable("A", a), psi)
            _, var_b = expectation_variance(Observable("B", b), psi)
            commutator_mean = np.vdot(psi.amplitudes, (a @ b - b @ a) @ psi.amplitudes)
            assert np.sqrt(var_a * var_b) >= 0.5 * abs(commutator_mean) - 1e-10


class CountsOnly:
    """Stands in for a generator that draws counts and refuses to hand out a uniform after the first ``uniforms``."""

    def __init__(self, seed, uniforms=0):
        self.generator = rng.stream(seed, "counts-only")
        self.uniforms = uniforms

    def multinomial(self, n, pvals):
        return self.generator.multinomial(n, pvals)

    def random(self, size=None, out=None):
        wanted = np.size(out) if out is not None else (1 if size is None else int(np.prod(size)))
        if wanted > self.uniforms:
            raise AssertionError("a count path drew a uniform")
        self.uniforms -= wanted
        return self.generator.random(size, out=out)


def qubit_pair():
    return random_pure_state(4, rng.stream(0, "counts-only/state"), (2, 2))


COUNT_PATHS = {
    "pauli-frame": lambda: estimate_expectations(PSystem(qubit_pair(), "passive", CountsOnly(1)), pauli_ic_set(2), 10**6),
    "lifted-gell-mann-frame": lambda: reconstruct_reduced_single_copy(
        PSystem(random_pure_state(9, rng.stream(1, "counts-only/qutrits"), (3, 3)), "passive", CountsOnly(2)), 10**6
    ),
    "estimate_spectrum": lambda: estimate_spectrum(PSystem(plus_state(), "passive", CountsOnly(3)), Z, 10**6),
    "global_joint_sample": lambda: global_joint_sample(PSystem(qubit_pair(), "passive", CountsOnly(4)), Z, X, 10**6),
    "local_passive_joint_sample": lambda: local_passive_joint_sample(
        PSystem(qubit_pair(), "passive", CountsOnly(5)), LocalSetting("A", Z), LocalSetting("B", X), 10**6
    ),
    "repeatability/passive": lambda: repeatability_experiment(plus_state(), X, "passive", 10**6, CountsOnly(6)),
    "repeatability/quantum": lambda: repeatability_experiment(plus_state(), Z, "quantum", 10**6, CountsOnly(7)),
    # The passive measurement itself takes its one uniform; the follow-up and its reference take none.
    "simulate-collapse-followup": lambda: simulate_qt_with_pqt(
        PSystem(plus_state(), "passive", CountsOnly(8, uniforms=1)),
        Z,
        library={0: basis_state(2, 1), 1: basis_state(2, 0)},
        followup_obs=X,
        followup_shots=10**6,
    ),
}


class TestCountPathsDrawNoUniforms:
    @pytest.mark.parametrize("path", COUNT_PATHS)
    def test_counts_come_from_the_multinomial_draw_alone(self, path):
        COUNT_PATHS[path]()

    def test_the_stand_in_refuses_a_uniform(self):
        with pytest.raises(AssertionError, match="drew a uniform"):
            repeated_measure(PSystem(plus_state(), "passive", CountsOnly(9)), Z, 3)
