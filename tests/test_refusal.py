"""The one impossible-draw rule: the sampling kernels refuse a drawn outcome of zero probability.

Both modes keep the Born rule, so a drawn outcome of probability <= ZERO_PROBABILITY is an
error in both.  These tests walk every entry point that draws, through the library and
through ``run``, pin which outcome the message names, and check that no module outside
``pqt.measurement`` applies the rule by hand.  An input whose cost alone would exhaust a run,
a ``pauli:`` label past the 64-dimension cap, is refused before anything is built.
"""

import ast
import json
import re

import numpy as np
import pytest
from conftest import _ZeroUniforms, called_name, enclosing_function, parsed_sources
from frame_reference import frame_observables

from pqt import measurement, protocols, rng
from pqt.composite import LocalSetting, _local_ic_set, chsh_value, global_joint_sample, local_passive_joint_sample
from pqt.harness import config as config_module
from pqt.harness import parse_config, run
from pqt.harness import runner as runner_module
from pqt.hilbert import PAULI_X, PAULI_Z, StateVector, basis_state, partial_trace, random_pure_state, tensor
from pqt.measurement import (
    MODES,
    ZERO_PROBABILITY,
    Observable,
    PSystem,
    _cdf_counts,
    _cdf_index,
    _cdf_table,
    _Readout,
    collapse_update,
    measure,
    repeated_measure,
)
from pqt.protocols import (
    _BELL_BRAS,
    _SHARED_PAIR,
    OracleSpec,
    _post_oracle_readout,
    repeatability_experiment,
)
from pqt.tomography import (
    _frame_table,
    estimate_expectations,
    estimate_spectrum,
    ic_set_for_dimension,
    pauli_ic_set,
    reconstruct_single_copy,
)

Z = Observable("Z", PAULI_Z)
WEIGHT = 1e-13  # below ZERO_PROBABILITY
TILTED = [np.sqrt(1.0 - WEIGHT), np.sqrt(WEIGHT)]  # Z = -1, the first outcome, has probability 1e-13
CONSEQUENCE = {"quantum": "the post-measurement state is undefined", "passive": "an impossible outcome was claimed"}


def refusal(value, name, mode):
    return f"outcome {value!r} of {name!r} has zero probability; {CONSEQUENCE[mode]}"


def tilted():
    return StateVector(TILTED)


def tilted_pair():
    """Side A tilted, side B in |0>: the global cell (-1, +1) and side A's -1 have probability 1e-13."""
    return tensor(tilted(), basis_state(2, 0))


# Every uniform is 0.0, which draws the first outcome of nonzero weight: Z = -1 on the tilted
# qubit, and the (-1, +1) cell on the tilted pair.
LIBRARY_CASES = {
    "measure/passive": (lambda: measure(PSystem(tilted(), "passive", _ZeroUniforms()), Z), refusal(-1.0, "Z", "passive")),
    "measure/quantum": (lambda: measure(PSystem(tilted(), "quantum", _ZeroUniforms()), Z), refusal(-1.0, "Z", "quantum")),
    "repeated_measure/passive": (
        lambda: repeated_measure(PSystem(tilted(), "passive", _ZeroUniforms()), Z, 3),
        refusal(-1.0, "Z", "passive"),
    ),
    "repeated_measure/quantum": (
        lambda: repeated_measure(PSystem(tilted(), "quantum", _ZeroUniforms()), Z, 3),
        refusal(-1.0, "Z", "quantum"),
    ),
    "estimate_expectations": (
        lambda: estimate_expectations(PSystem(tilted(), "passive", _ZeroUniforms()), pauli_ic_set(1), 3),
        refusal(-1.0, "Z", "passive"),
    ),
    "reconstruct_single_copy": (
        lambda: reconstruct_single_copy(PSystem(tilted(), "passive", _ZeroUniforms()), ic_set_for_dimension(2), 3),
        refusal(-1.0, "Z", "passive"),
    ),
    "estimate_spectrum": (
        lambda: estimate_spectrum(PSystem(tilted(), "passive", _ZeroUniforms()), Z, 3),
        refusal(-1.0, "Z", "passive"),
    ),
    "proper_vs_improper": (
        lambda: protocols.proper_vs_improper(3, 3, _ZeroUniforms(), mixture=[(tilted(), 0.5), (basis_state(2, 1), 0.5)]),
        refusal(-1.0, "Z", "passive"),
    ),
    "global_joint_sample/passive": (
        lambda: global_joint_sample(PSystem(tilted_pair(), "passive", _ZeroUniforms()), Z, Z, 3),
        refusal((-1.0, 1.0), "ZxZ", "passive"),
    ),
    "global_joint_sample/quantum": (
        lambda: global_joint_sample(PSystem(tilted_pair(), "quantum", _ZeroUniforms()), Z, Z, 3, ensemble=True),
        refusal((-1.0, 1.0), "ZxZ", "quantum"),
    ),
    "local_passive_joint_sample": (
        lambda: local_passive_joint_sample(
            PSystem(tilted_pair(), "passive", _ZeroUniforms()), LocalSetting("A", Z), LocalSetting("B", Z), 3
        ),
        refusal(-1.0, "ZxI", "passive"),
    ),
    "repeatability_experiment/passive": (
        lambda: repeatability_experiment(tilted(), Z, "passive", 3, _ZeroUniforms()),
        refusal(-1.0, "Z", "passive"),
    ),
    "repeatability_experiment/quantum": (
        lambda: repeatability_experiment(tilted(), Z, "quantum", 3, _ZeroUniforms()),
        refusal(-1.0, "Z", "quantum"),
    ),
}

QUBIT = {"initial_state": [[amplitude, 0.0] for amplitude in TILTED]}
PAIR = {"shape": [2, 2], "initial_state": [[TILTED[0], 0.0], [0.0, 0.0], [TILTED[1], 0.0], [0.0, 0.0]]}
RUN_CASES = {
    "repeatability/passive": (
        {"protocol": "repeatability", "mode": "passive", "observables": ["pauli:Z"], "trials": 3, **QUBIT},
        refusal(-1.0, "Z", "passive"),
    ),
    "repeatability/quantum": (
        {"protocol": "repeatability", "mode": "quantum", "observables": ["pauli:Z"], "trials": 3, **QUBIT},
        refusal(-1.0, "Z", "quantum"),
    ),
    "reconstruct": ({"protocol": "reconstruct", "mode": "passive", **QUBIT}, refusal(-1.0, "Z", "passive")),
    "spectrum": (
        {"protocol": "spectrum", "mode": "passive", "observables": ["pauli:Z"], **QUBIT},
        refusal(-1.0, "Z", "passive"),
    ),
    "simulate-collapse": (
        {
            "protocol": "simulate-collapse",
            "mode": "passive",
            "observables": ["pauli:Z"],
            "library": "eigenstates",
            "followup_observable": "pauli:X",
            "followup_shots": 3,
            **QUBIT,
        },
        refusal(-1.0, "Z", "passive"),
    ),
    "joint-global/passive": (
        {"protocol": "joint-global", "mode": "passive", "observables": ["pauli:Z", "pauli:Z"], **PAIR},
        refusal((-1.0, 1.0), "ZxZ", "passive"),
    ),
    "joint-global/quantum": (
        {"protocol": "joint-global", "mode": "quantum", "ensemble": True, "observables": ["pauli:Z", "pauli:Z"], **PAIR},
        refusal((-1.0, 1.0), "ZxZ", "quantum"),
    ),
    "joint-local": (
        {"protocol": "joint-local", "mode": "passive", "observables": ["pauli:Z", "pauli:Z"], **PAIR},
        refusal(-1.0, "ZxI", "passive"),
    ),
    "chsh/global": (
        {"protocol": "chsh", "mode": "passive", "source": "global", "observables": ["pauli:Z", "pauli:X"] * 2, **PAIR},
        refusal((-1.0, 1.0), "ZxZ", "passive"),
    ),
    "chsh/local-passive": (
        {
            "protocol": "chsh",
            "mode": "passive",
            "source": "local-passive",
            "observables": ["pauli:Z", "pauli:X"] * 2,
            **PAIR,
        },
        refusal(-1.0, "ZxI", "passive"),
    ),
}


def collapse_of_a_possible_outcome(state, obs, outcome_index):
    """The collapse rule, which must never be handed an impossible outcome: its draw should have refused it."""
    if obs.outcome_probabilities(state)[outcome_index] <= ZERO_PROBABILITY:
        raise AssertionError("an impossible outcome reached the collapse rule: its draw did not refuse it")
    return collapse_update(state, obs, outcome_index)


class TestEveryDrawRefusesAnImpossibleOutcome:
    @pytest.mark.parametrize("case", [*LIBRARY_CASES, *(f"run/{name}" for name in RUN_CASES)])
    def test_entry_point_refuses_with_the_exact_message(self, case, monkeypatch):
        # The draw itself refuses: the collapse rule, which checks a claimed outcome, is never reached.
        monkeypatch.setattr(measurement, "collapse_update", collapse_of_a_possible_outcome)
        monkeypatch.setattr(protocols, "collapse_update", collapse_of_a_possible_outcome)
        if case.startswith("run/"):
            fields, message = RUN_CASES[case[len("run/") :]]
            config = parse_config(json.dumps({"name": "walk", "shots": 3, "seed": 1, **fields}))
            monkeypatch.setattr(runner_module, "_stream", lambda config, purpose: _ZeroUniforms())
            draw = lambda: run(config)  # noqa: E731
        else:
            draw, message = LIBRARY_CASES[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw()

    def test_teleportation_cannot_draw_an_impossible_bell_outcome(self):
        # Every Bell outcome has probability 1/4 up to rounding, whatever the input.
        gen = rng.stream(0, "refusal/teleportation")
        inputs = np.array([random_pure_state(2, gen).amplitudes for _ in range(2000)] + [TILTED, [1.0, 0.0], [0.0, 1.0]])
        conditional = _BELL_BRAS @ (inputs[:, :, None, None] * _SHARED_PAIR).reshape(len(inputs), 4, 2)
        probabilities = np.einsum("tkb,tkb->tk", conditional.conj(), conditional).real
        assert np.abs(probabilities - 0.25).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("n", range(1, 6))
    def test_function_recovery_cannot_draw_an_impossible_readout(self, n):
        # Each readout outcome weighs exactly 0 or, up to rounding, 2^-n >= 1/32, and an exactly-zero
        # outcome has no width in the CDF: no uniform, edges included, draws it.
        gen = rng.stream(n, "refusal/oracle")
        for _ in range(3):
            readout, table = _post_oracle_readout(OracleSpec(n, tuple(gen.integers(0, 2, 2**n).tolist())))
            probabilities = table.probabilities[0]
            possible = probabilities > 0.0
            assert np.allclose(probabilities[possible], 2.0**-n, rtol=1e-15, atol=0.0)
            edges = np.cumsum(probabilities)
            uniforms = np.concatenate(([0.0], edges[:-1], np.nextafter(edges, 0.0))) / edges[-1]
            drawn = _cdf_index(table, np.clip(uniforms, 0.0, np.nextafter(1.0, 0.0)), (readout,), "quantum")
            assert possible[drawn].all()


class DrawOneCellPerRow:
    """Stands in for a generator whose multinomial draw puts all n draws of row i in column ``columns[i]``."""

    def __init__(self, columns):
        self.columns = columns

    def multinomial(self, n, pvals):
        counts = np.zeros(pvals.shape, dtype=np.int64)
        counts[np.arange(len(pvals)), self.columns] = n
        return counts


class TestWhichOutcomeIsNamed:
    @pytest.mark.parametrize("frame", ["pauli-2", "lifted-gell-mann"])
    def test_a_gathered_row_names_its_own_observable(self, frame):
        # Blocks of a frame's k rows gathered state after state, as proper_vs_improper gathers them, and drawn with
        # the frame as the readouts: the counting kernel names row r by observable r % k.
        if frame == "pauli-2":
            ic = pauli_ic_set(2)
            states = (random_pure_state(4, rng.stream(0, "refusal/rows")), tilted_pair())
            shape = (2, 2)
        else:
            ic = _local_ic_set(3)  # side A's frame, named for the A tensor I it is measured as
            reduced = partial_trace(random_pure_state(6, rng.stream(1, "refusal/rows"), (3, 2)), 0)
            states = (reduced, StateVector([np.sqrt(1.0 - WEIGHT), np.sqrt(WEIGHT), 0.0]))
            shape = (3, 2)
        k, observables = len(ic), frame_observables(ic, shape)
        table = _frame_table(ic, *states).gather(np.arange(2 * k))  # the first state's block, then the second's
        likeliest = np.argmax(table.probabilities, axis=1)
        risky = (table.probabilities > 0.0) & (table.probabilities <= ZERO_PROBABILITY)
        assert not risky[:k].any() and risky[k:].any()
        for r, j in zip(*np.nonzero(risky)):
            columns = likeliest.copy()
            columns[r] = j  # the one impossible draw, in the second state's block
            obs = observables[r % k]
            value = float(ic.values[r % k, j])
            # Analytic outcome values and eigh's can differ in the last bit.
            assert value == pytest.approx(obs.eigenvalues[j], rel=0, abs=1e-12)
            with pytest.raises(ValueError, match=f"^{re.escape(refusal(value, obs.name, 'passive'))}$"):
                _cdf_counts(table, DrawOneCellPerRow(columns), 3, ic, "passive")

    @pytest.mark.parametrize("mode", MODES)
    def test_a_teleportation_refusal_after_the_first_trial_names_the_bell_readout(self, mode, monkeypatch):
        # Every Bell outcome has probability 1/4, so the computational basis of qubits 1-2 stands in for the Bell
        # basis: input (sqrt(1e-13), sqrt(1 - 1e-13)) then gives outcome 0 a probability of 5e-14.
        monkeypatch.setattr(protocols, "_BELL_BRAS", np.eye(4))
        inputs = np.array([[1.0, 0.0], [1.0, 0.0], TILTED[::-1]])
        with pytest.raises(ValueError, match=f"^{re.escape(refusal(0.0, 'bell-basis-12', mode))}$"):
            protocols.teleportation_fidelities(inputs, mode, _ZeroUniforms())

    @pytest.mark.parametrize(
        "weight, offending, named",
        [
            # (sqrt(1 - 1e-13))^2 + 1e-13 rounds below 1, so IZ's -1 keeps a weight of 5.6e-17.
            (1e-13, ["IZ", "ZI", "ZZ"], "IZ"),
            # With weight 2^-43 the amplitudes square to exactly 1: IZ's -1 weighs 0 and is never drawn.
            (2.0**-43, ["ZI", "ZZ"], "ZI"),
        ],
    )
    def test_first_offending_row_in_frame_order(self, weight, offending, named):
        state = tensor(StateVector([np.sqrt(1.0 - weight), np.sqrt(weight)]), basis_state(2, 0))
        ic = pauli_ic_set(2)
        table = _frame_table(ic, state)
        drawn_first = table.probabilities[:, 0]  # a zero uniform draws -1 unless its weight is exactly 0
        assert [name for name, p in zip(ic.names, drawn_first) if 0.0 < p <= ZERO_PROBABILITY] == offending
        with pytest.raises(ValueError, match=f"^{re.escape(refusal(-1.0, named, 'passive'))}$"):
            estimate_expectations(PSystem(state, "passive", _ZeroUniforms()), ic, 3)

    @pytest.mark.parametrize(
        "source, message",
        [("global", refusal((-1.0, -1.0), "A2xB1", "passive")), ("local-passive", refusal(-1.0, "A2xI", "passive"))],
    )
    def test_a_chsh_refusal_in_the_third_setting_names_that_setting(self, source, message):
        # Both qubits tilted, so Z = -1 has probability 1e-13 on each side.  The four rows A1B1, A1B2, A2B1, A2B2
        # draw the cells (-1, +1), (-1, -1), (-1, -1) and (+1, -1): only the third, Z x Z, draws an impossible one.
        # The global device names that cell of its A2xB1 readout; a local pair refuses side A before side B.
        a1, a2 = Observable("A1", PAULI_X), Observable("A2", PAULI_Z)
        b1, b2 = Observable("B1", PAULI_Z), Observable("B2", PAULI_X)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chsh_value(tensor(tilted(), tilted()), (a1, a2), (b1, b2), source, 3, DrawOneCellPerRow([1, 0, 0, 2]))

    def test_least_probable_drawn_outcome_of_a_row(self):
        # Outcome 0 (2e-13) is drawn first, outcome 2 (1e-13) second: the less probable one is named.
        weights = np.array([[2e-13, 1.0 - 3e-13, 1e-13]])
        readout = _Readout("D", (0.0, 1.0, 2.0))
        message = f"^{re.escape(refusal(2.0, 'D', 'passive'))}$"
        with pytest.raises(ValueError, match=message):
            _cdf_index(_cdf_table(weights), np.array([0.0, np.nextafter(1.0, 0.0)]), (readout,), "passive")

        class OneDrawOfEachEnd:
            def multinomial(self, n, pvals):
                return np.array([[1, 0, 1]])

        with pytest.raises(ValueError, match=message):
            _cdf_counts(_cdf_table(weights), OneDrawOfEachEnd(), 2, (readout,), "passive")

    def test_a_mixture_member_of_tiny_weight_stays_drawable(self):
        # A proper mixture's member draw prepares a state: it is no outcome and refuses nothing.
        members = _cdf_table(np.array([[1e-13, 1.0 - 1e-13]]))
        assert _cdf_index(members, np.zeros(1), readouts=None, mode=None).tolist() == [0]


REFUSAL_NAMES = {"risky", "_require_possible", "_require_all_possible"}
KERNELS = {"_cdf_index": 2, "_cdf_counts": 3, "sample_indices": 2}  # position of the readouts argument
# The draw each kernel makes, or the CDF edges the index kernel alone derives, and that kernel.
DRAWS = {"searchsorted": "_cdf_index", "edges": "_cdf_index", "multinomial": "_cdf_counts"}


def identifiers(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.FunctionDef):
        return {node.name}
    return set()


class TestTheRuleLivesInTheSampler:
    def test_only_measurement_names_the_refusal_helpers(self):
        found = {
            (module, name)
            for module, tree, _ in parsed_sources()
            for node in ast.walk(tree)
            for name in identifiers(node) & REFUSAL_NAMES
        }
        assert found and {module for module, _ in found} == {"measurement.py"}

    @pytest.mark.parametrize("name", DRAWS)
    def test_each_draw_lives_in_its_kernel_alone(self, name):
        # searchsorted and every CDF-edge comparison in the index kernel, the multinomial draw in the counting kernel.
        places = {
            (module, enclosing_function(node, parents))
            for module, tree, parents in parsed_sources()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and name in identifiers(node)
        }
        assert places == {("measurement.py", DRAWS[name])}

    def test_the_only_unrefused_draw_is_the_mixture_member(self):
        unrefused, draws = [], 0
        for module, tree, parents in parsed_sources():
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call) or called_name(call) not in KERNELS:
                    continue
                draws += 1
                position = KERNELS[called_name(call)]
                keywords = {keyword.arg: keyword.value for keyword in call.keywords}
                readouts = call.args[position] if len(call.args) > position else keywords.get("readouts", keywords.get("readout"))
                assert readouts is not None, f"{module}: a draw names no readout"
                if isinstance(readouts, ast.Constant) and readouts.value is None:
                    unrefused.append((module, enclosing_function(call, parents)))
        assert draws >= 10
        assert unrefused == [("protocols.py", "proper_vs_improper")]

    def test_both_kernels_refuse(self):
        kernels = {
            node.name: {called_name(call) for call in ast.walk(node) if isinstance(call, ast.Call)}
            for module, tree, _ in parsed_sources()
            if module == "measurement.py"
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        assert "_refuse_drawn" in kernels["_cdf_index"]
        assert "_refuse_drawn" in kernels["_cdf_counts"]


@pytest.mark.parametrize("letters", [7, 40])
def test_a_pauli_label_past_six_letters_is_refused_before_its_matrix_is_built(letters, monkeypatch):
    # Seven letters make a 128 x 128 matrix, forty a 2^40 x 2^40 one; the cap of 64 dimensions allows six.
    def refuse(label):
        raise AssertionError(f"built the matrix of a {len(label)}-letter label")

    monkeypatch.setattr(config_module, "pauli_matrix", refuse)
    label = "pauli:" + "Z" * letters
    fields = {"name": "wide", "protocol": "spectrum", "initial_state": "plus", "observables": [label]}
    with pytest.raises(config_module.ConfigError) as caught:
        parse_config(json.dumps(fields))
    assert caught.value.field == "observables[0]"
    assert str(caught.value) == f"config field 'observables[0]': pauli label has {letters} letters, more than 6"
