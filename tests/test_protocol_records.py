"""A protocol is one record: the refusals its record owns, pinned in full, and a config module that names no protocol.

Each corpus case is a config with one fault, and its expected value is the refusal's field and its whole
message.  They cover each protocol's own input rules, each extra field's "does not read" refusal, each
choice refusal, a missing required extra, each mode refusal and the three 64-dimension caps, through
``parse_config`` and through the CLI.  A common field that the protocol never reads is refused too.
"""

import ast
import json
from pathlib import Path

import pytest
from conftest import SOURCE

from pqt.harness import ConfigError, parse_config
from pqt.harness.cli import main
from pqt.harness.runner import EXTRA_FIELDS, PROTOCOLS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PROJECTOR_ON_0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]  # outcomes 0 and 1, not +-1
IDENTITY_2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
ZERO_4 = [[[0, 0]] * 4] * 4
QUTRIT_0, QUTRIT_1 = [[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]
DIAGONAL_1_0_0 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
BELL = {"initial_state": "bell:phi+"}
RECONSTRUCT_PLUS = {"protocol": "reconstruct", "initial_state": "plus"}
MIXTURE = [["basis:0", 0.5], ["plus", 0.5]]
ORACLE = {"n": 1, "truth_table": [0, 1], "promise": "balanced"}
# A valid value of each extra field, in the order the unknown-field refusal lists them.
EXTRA_VALUES = {
    "source": "global",
    "action": "none",
    "candidates": ["basis:0", "plus"],
    "mixture": MIXTURE,
    "purification": "bell:phi+",
    "oracle": ORACLE,
    "ensemble": True,
    "followup_observable": "pauli:X",
    "library": "eigenstates",
    "unitary": "cnot",
    "followup_shots": 10,
}
READERS = {
    "source": "'chsh'",
    "action": "'signalling'",
    "candidates": "'discriminate', 'no-cloning'",
    "mixture": "'proper-vs-improper'",
    "purification": "'proper-vs-improper'",
    "oracle": "'deutsch-jozsa', 'function-recovery'",
    "ensemble": "'joint-global'",
    "followup_observable": "'simulate-collapse'",
    "library": "'simulate-collapse'",
    "unitary": "'no-cloning'",
    "followup_shots": "'simulate-collapse'",
}
ONE_OF = "protocol 'proper-vs-improper' needs exactly one of 'mixture' and 'purification'"

# The three 64-dimension caps, each refused before the work its input would cost (an eigendecomposition of a
# 300 x 300 observable took 0.75 s before its cap).
CAPS = {
    "cap/explicit-state": (
        {"protocol": "repeatability", "initial_state": [[1, 0]] * 65, "observables": ["pauli:Z"]},
        "initial_state",
        "explicit state has 65 amplitudes, more than 64",
    ),
    "cap/shape": (
        {**RECONSTRUCT_PLUS, "shape": [2] * 7},
        "shape",
        "state dimension 128 is outside the supported range 2..64",
    ),
    "cap/explicit-observable": (
        {"protocol": "spectrum", "initial_state": "plus", "observables": [{"matrix": [[[0, 0]] * 65] * 65}]},
        "observables[0]",
        "explicit observable has 65 rows, more than 64",
    ),
}

# id: (config fields, refused field, message after "config field '<field>': ").
CORPUS = {
    **CAPS,
    # The protocols' own rules.
    "proper-vs-improper/neither": ({"protocol": "proper-vs-improper"}, "mixture", ONE_OF),
    "proper-vs-improper/both": (
        {"protocol": "proper-vs-improper", "shape": [2, 2], "mixture": MIXTURE, "purification": "bell:phi+"},
        "mixture",
        ONE_OF,
    ),
    "signalling/none-reads-b-only": (
        {"protocol": "signalling", "shape": [2, 3], "initial_state": "random-pure:1", "observables": ["pauli:Z"]},
        "observables[0]",
        "observable dimension 2 does not match the subsystem B dimension 3",
    ),
    "signalling/none-needs-one": (
        {"protocol": "signalling", **BELL},
        "observables",
        "protocol 'signalling' needs 1 observable(s), got 0",
    ),
    "signalling/action-needs-two": (
        {"protocol": "signalling", "action": "passive-measure", **BELL, "observables": ["pauli:Z"]},
        "observables",
        "protocol 'signalling' needs 2 observable(s), got 1",
    ),
    "simulate-collapse/no-library": (
        {"protocol": "simulate-collapse", "initial_state": "plus", "observables": ["pauli:Z"]},
        "shape",
        "protocol 'simulate-collapse' without an eigenstate 'library' needs a bipartite state"
        " (two subsystem dimensions), got (2,)",
    ),
    "chsh/dichotomic": (
        {"protocol": "chsh", **BELL, "observables": ["pauli:Z", "pauli:X", {"matrix": PROJECTOR_ON_0}, "bloch:-1,0,1"]},
        "observables[2]",
        "a CHSH correlator needs +-1 outcomes, got 0.0",
    ),
    "discriminate/ray-equal": (
        {"protocol": "discriminate", "initial_state": "plus", "candidates": ["basis:0", "plus", [[0, 1], [0, 0]]]},
        "candidates[2]",
        "is ray-equal to candidates[0]; candidates must be distinct",
    ),
    "discriminate/one": (
        {"protocol": "discriminate", "initial_state": "plus", "candidates": ["plus"]},
        "candidates",
        "need at least two states",
    ),
    "discriminate/mixed": (
        {"protocol": "discriminate", "initial_state": "plus", "candidates": ["maximally-mixed", "plus"]},
        "candidates[0]",
        "candidates must be pure states",
    ),
    "discriminate/dimension": (
        {"protocol": "discriminate", "initial_state": "plus", "candidates": ["bell:phi+", "plus"]},
        "candidates[0]",
        "dimension 4 differs from the expected 2",
    ),
    "no-cloning/three": (
        {"protocol": "no-cloning", "candidates": ["basis:0", "plus", "basis:1"]},
        "candidates",
        "need exactly 2 states",
    ),
    "no-cloning/mixed": (
        {"protocol": "no-cloning", "candidates": ["maximally-mixed", "plus"]},
        "candidates[0]",
        "candidates must be pure states",
    ),
    "no-cloning/dimension": (
        {"protocol": "no-cloning", "candidates": ["basis:0", QUTRIT_0]},
        "candidates[1]",
        "dimension 3 differs from the expected 2",
    ),
    "no-cloning/cnot-on-qutrits": (
        {"protocol": "no-cloning", "candidates": [QUTRIT_0, QUTRIT_1]},
        "unitary",
        "the 'cnot' preset needs qubit test states",
    ),
    "no-cloning/unitary-side": (
        {"protocol": "no-cloning", "candidates": ["basis:0", "plus"], "unitary": IDENTITY_2},
        "unitary",
        "must be 4 x 4, acting on two copies of the test states; got shape (2, 2)",
    ),
    "no-cloning/not-unitary": (
        {"protocol": "no-cloning", "candidates": ["basis:0", "plus"], "unitary": ZERO_4},
        "unitary",
        "matrix is not unitary (max |U^dag U - I| = 1.000e+00)",
    ),
    "deutsch-jozsa/promise": (
        {"protocol": "deutsch-jozsa", "oracle": {"n": 1, "truth_table": [0, 1]}},
        "oracle.promise",
        "the promise must be declared: 'constant' or 'balanced'",
    ),
    "simulate-collapse/library": (
        {"protocol": "simulate-collapse", **BELL, "observables": ["pauli:ZI"], "library": "eigenstates"},
        "library",
        "eigenstate library needs a non-degenerate observable",
    ),
    # Each extra on a protocol that does not read it, and a field that no protocol reads.
    **{
        f"unread/{key}": (
            {**RECONSTRUCT_PLUS, key: value},
            key,
            f"protocol 'reconstruct' does not read this field (read by {READERS[key]})",
        )
        for key, value in EXTRA_VALUES.items()
    },
    "unknown/sauce": (
        {**RECONSTRUCT_PLUS, "sauce": 1},
        "sauce",
        "unknown field; protocol extras are ('source', 'action', 'candidates', 'mixture', 'purification', 'oracle',"
        " 'ensemble', 'followup_observable', 'library', 'unitary', 'followup_shots')",
    ),
    # Each extra that takes one of a few values.
    "choice/source": (
        {"protocol": "chsh", "source": "local", **BELL, "observables": ["pauli:Z", "pauli:X"] * 2},
        "source",
        'must be one of ["global", "local-passive"], got "local"',
    ),
    "choice/action": (
        {"protocol": "signalling", "action": "measure", **BELL, "observables": ["pauli:Z", "pauli:Z"]},
        "action",
        'must be one of ["none", "passive-measure", "quantum-measure-nonselective"], got "measure"',
    ),
    "choice/ensemble": (
        {"protocol": "joint-global", "ensemble": 1, **BELL, "observables": ["pauli:Z", "pauli:Z"]},
        "ensemble",
        "must be one of [true, false], got 1",
    ),
    "choice/library": (
        {"protocol": "simulate-collapse", "library": "eigenvectors", **BELL, "observables": ["pauli:ZZ"]},
        "library",
        'must be one of ["eigenstates"], got "eigenvectors"',
    ),
    # A required extra left out.
    **{
        f"required/{protocol}": ({"protocol": protocol, **fields}, field, f"protocol '{protocol}' requires this field")
        for protocol, fields, field in [
            ("discriminate", {"initial_state": "plus"}, "candidates"),
            ("no-cloning", {}, "candidates"),
            ("deutsch-jozsa", {}, "oracle"),
            ("function-recovery", {}, "oracle"),
        ]
    },
    # Modes.
    "mode/unknown": ({**RECONSTRUCT_PLUS, "mode": "classical"}, "mode", "must be one of ('quantum', 'passive'), got 'classical'"),
    "mode/passive-only": (
        {**RECONSTRUCT_PLUS, "mode": "quantum"},
        "mode",
        "protocol 'reconstruct' runs in passive mode only, got 'quantum'",
    ),
    "mode/needs-ensemble": (
        {"protocol": "joint-global", "mode": "quantum", **BELL, "observables": ["pauli:Z"] * 2},
        "mode",
        "protocol 'joint-global' needs 'ensemble' set to true in quantum mode",
    ),
    "mode/ensemble-false": (
        {"protocol": "joint-global", "mode": "quantum", "ensemble": False, **BELL, "observables": ["pauli:Z"] * 2},
        "mode",
        "protocol 'joint-global' needs 'ensemble' set to true in quantum mode",
    ),
}


def refusal(fields: dict) -> tuple[str, str]:
    with pytest.raises(ConfigError) as caught:
        parse_config(json.dumps({"name": "bad", "shots": 10, **fields}))
    return caught.value.field, str(caught.value)


@pytest.mark.parametrize("case", CORPUS)
def test_refusal_text(case):
    fields, field, message = CORPUS[case]
    assert refusal(fields) == (field, f"config field {field!r}: {message}")


@pytest.mark.parametrize(
    "config, message",
    [
        ("reconstruct.json", "protocol 'reconstruct' runs in passive mode only, got 'quantum'"),
        ("joint-global.json", "protocol 'joint-global' needs 'ensemble' set to true in quantum mode"),
    ],
)
def test_mode_flag_refusal_text(capsys, config, message):
    assert main(["run", "--config", str(CONFIG_DIR / config), "--mode", "quantum"]) == 1
    assert capsys.readouterr().err == f"invalid: config field 'mode': {message}\n"


# A state or an observable that the protocol's runner would never read.
UNREAD_COMMON_FIELDS = {
    **{
        f"state/{protocol}": (
            {"protocol": protocol, **fields, "initial_state": "plus"},
            "initial_state",
            f"protocol '{protocol}' does not read this field",
        )
        for protocol, fields in [
            ("deutsch-jozsa", {"oracle": ORACLE}),
            ("function-recovery", {"oracle": ORACLE}),
            ("no-cloning", {"candidates": ["basis:0", "plus"]}),
            ("proper-vs-improper", {"mixture": MIXTURE}),
        ]
    },
    # A second observable, even one of the wrong dimension, used to be accepted and dropped.
    "observables/repeatability": (
        {"protocol": "repeatability", "initial_state": "plus", "observables": ["pauli:Z", {"matrix": DIAGONAL_1_0_0}]},
        "observables[1]",
        "protocol 'repeatability' reads 1 observable(s), got 2",
    ),
    "observables/signalling-without-action": (
        {"protocol": "signalling", **BELL, "observables": ["pauli:Z", "pauli:X"]},
        "observables[1]",
        "protocol 'signalling' reads 1 observable(s), got 2",
    ),
    "observables/chsh": (
        {"protocol": "chsh", **BELL, "observables": ["pauli:Z", "pauli:X"] * 2 + ["pauli:Z"]},
        "observables[4]",
        "protocol 'chsh' reads 4 observable(s), got 5",
    ),
    "observables/reconstruct": (
        {**RECONSTRUCT_PLUS, "observables": ["pauli:Z"]},
        "observables[0]",
        "protocol 'reconstruct' reads 0 observable(s), got 1",
    ),
}


@pytest.mark.parametrize("case", UNREAD_COMMON_FIELDS)
def test_a_common_field_the_protocol_never_reads_is_refused(tmp_path, capsys, case):
    fields, field, message = UNREAD_COMMON_FIELDS[case]
    assert refusal(fields) == (field, f"config field {field!r}: {message}")
    path = tmp_path / "unread.json"
    path.write_text(json.dumps({"name": "unread", **fields}))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid: config field {field!r}: {message}\n"


@pytest.mark.parametrize("case", CAPS)
def test_a_dimension_cap_exits_1_from_validate(tmp_path, capsys, case):
    fields, field, message = CAPS[case]
    path = tmp_path / "too-large.json"
    path.write_text(json.dumps({"name": "too-large", **fields}))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid: config field {field!r}: {message}\n"


def test_extra_fields_are_the_ones_the_records_read():
    read = {key for _, spec in PROTOCOLS.values() for key in spec.extras}
    assert sorted(EXTRA_FIELDS) == sorted(read)


def test_config_module_names_no_protocol():
    # Each protocol's checks live in its record: config.py holds no protocol name, so no protocol == "..." branch,
    # and imports neither module whose names only some protocols read.
    tree = ast.parse((SOURCE / "harness" / "config.py").read_text())
    names = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in PROTOCOLS]
    assert names == []
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "pqt." * (node.level == 2) + "pqt.harness." * (node.level == 1) + (node.module or "")
            imported.update({module} if node.module else {f"{module}{alias.name}" for alias in node.names})
    assert imported & {"pqt.composite", "pqt.protocols"} == set()
    assert "pqt.hilbert" in imported  # the walk sees the relative imports
