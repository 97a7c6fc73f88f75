import copy
import enum
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqt.harness import (
    ConfigError,
    chi_square_gof,
    list_protocols,
    parse_config,
    run,
    tv_distance,
    wilson_interval,
)
from pqt.harness import config as config_module, runner as runner_module
from pqt.harness.cli import main
from pqt.harness.config import resolve_state
from pqt.harness.report import Report
from pqt.harness.runner import PROTOCOLS
from pqt.hilbert import plus_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

EXAMPLE = """
{
  "name": "rep",
  "protocol": "repeatability",
  "mode": "passive",
  "initial_state": "plus",
  "observables": ["pauli:Z"],
  "shots": 1,
  "trials": 100000,
  "seed": 42
}
"""


class TestStats:
    def test_tv_identical(self):
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_tv_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_tv_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            tv_distance([1.0], [0.5, 0.5])

    def test_wilson_closed_form(self):
        # Hand evaluation at k=50, n=100, z=1.96:
        # center = (50 + 1.9208) / 103.8416 = 0.5,
        # margin = 1.96 * sqrt(25 + 0.9604) / 103.8416 = 0.09617.
        low, high = wilson_interval(50, 100, 1.96)
        assert low == pytest.approx(0.404, abs=5e-4)
        assert high == pytest.approx(0.596, abs=5e-4)

    def test_wilson_bounds(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0 and 0 < high < 1

    def test_wilson_errors(self):
        with pytest.raises(ValueError, match="at least one"):
            wilson_interval(0, 0)
        with pytest.raises(ValueError, match="out of range"):
            wilson_interval(5, 4)

    def test_chi_square_null_case(self):
        statistic, p_value = chi_square_gof([10, 10, 10, 10], [10, 10, 10, 10])
        assert statistic == 0.0
        assert p_value == pytest.approx(1.0)

    def test_chi_square_known_quantile(self):
        # chi2(1 dof) at 3.841459 leaves 5% in the upper tail.
        _, p_value = chi_square_gof([50 + 9.8, 50 - 9.8], [50, 50])
        assert p_value == pytest.approx(0.05, abs=2e-3)

    def test_chi_square_errors(self):
        with pytest.raises(ValueError, match="length mismatch"):
            chi_square_gof([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="no observations"):
            chi_square_gof([0, 0], [1, 1])


class TestParseConfig:
    def test_example_config_valid(self):
        config = parse_config(EXAMPLE)
        assert config.name == "rep"
        assert config.protocol == "repeatability"
        assert config.trials == 100_000

    def test_unknown_observable_names_field(self):
        bad = json.loads(EXAMPLE)
        bad["observables"] = ["pauli:Q"]
        with pytest.raises(ConfigError, match=r"observables\[0\]"):
            parse_config(json.dumps(bad))

    def test_explicit_state_renormalized(self):
        state = resolve_state([[1, 0], [1, 0]])
        assert state.ray_equal(plus_state())

    def test_near_zero_state_rejected(self):
        with pytest.raises(ConfigError, match="zero norm"):
            resolve_state([[1e-9, 0], [0, 0]])

    def test_unknown_protocol(self):
        bad = json.loads(EXAMPLE)
        bad["protocol"] = "astrology"
        with pytest.raises(ConfigError, match="unknown protocol"):
            parse_config(json.dumps(bad))

    def test_missing_required_field(self):
        with pytest.raises(ConfigError, match="required"):
            parse_config('{"protocol": "repeatability"}')

    def test_non_hermitian_matrix_rejected(self):
        bad = json.loads(EXAMPLE)
        bad["observables"] = [{"name": "M", "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]
        with pytest.raises(ConfigError, match="Hermitian"):
            parse_config(json.dumps(bad))

    def test_unknown_extra_field_rejected(self):
        bad = json.loads(EXAMPLE)
        bad["sauce"] = 1
        with pytest.raises(ConfigError, match="unknown field"):
            parse_config(json.dumps(bad))

    def test_round_trip_identity(self):
        first = parse_config(EXAMPLE)
        second = parse_config(first.to_json())
        assert first == second
        for path in sorted(CONFIG_DIR.glob("*.json")):
            config = parse_config(path.read_text())
            assert parse_config(config.to_json()) == config


class TestRun:
    def test_repeatability_example(self):
        report = run(parse_config(EXAMPLE))
        (metric,) = [m for m in report.metrics if m["name"] == "agreement_rate"]
        assert metric["value"] == pytest.approx(0.5, abs=0.015)

    def test_reports_are_byte_identical(self):
        config = parse_config(EXAMPLE)
        assert run(config).to_json() == run(config).to_json()

    def test_seed_changes_report(self):
        config = parse_config(EXAMPLE)
        baseline = run(config).to_json()
        config.seed = 43
        assert run(config).to_json() != baseline

    def test_wall_clock_not_serialized(self):
        report = run(parse_config(EXAMPLE))
        assert report.wall_clock_seconds > 0
        assert "wall_clock" not in report.to_json()

    def test_chsh_documented_config(self):
        report = run(parse_config((CONFIG_DIR / "chsh.json").read_text()))
        (metric,) = report.metrics
        assert metric["value"] == pytest.approx(2 * np.sqrt(2), abs=0.05)


def _report(config=None, metrics=(), tables=None, verdicts=None) -> Report:
    report = Report(config if config is not None else {}, 7, list(metrics), verdicts=verdicts or {})
    for name, (columns, rows) in (tables or {}).items():
        report.add_table(name, columns, rows)
    return report


def _canonical(value):
    """Reference canonical form: floats rounded to 12 significant digits, containers normalised."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (complex, np.complexfloating)):
        return [_canonical(value.real), _canonical(value.imag)]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _dumped(report: Report) -> str:
    """The report as ``json`` writes the reference canonical form of its fields."""
    fields = {
        "config": report.config,
        "seed": report.seed,
        "metrics": report.metrics,
        "tables": {name: {"columns": t.columns, "rows": t.rows} for name, t in report.tables.items()},
        "verdicts": report.verdicts,
    }
    return json.dumps(_canonical(fields), sort_keys=True, indent=2, allow_nan=False) + "\n"


class _Level(enum.IntEnum):
    HIGH = 3


class TestReportJson:
    """``to_json`` writes in one pass what ``json.dumps`` writes of the canonical payload."""

    @pytest.mark.parametrize(
        "report",
        [
            _report(),
            _report({"a": [], "b": {}, "c": ()}, tables={"empty": (["x", "y"], []), "none": ([], [])}),
            _report({1: "int key", 2.5: "float key", None: "none key", True: "bool key", (1, 2): "tuple key"}),
            _report(
                {"ints": [np.int64(-3), np.int8(2), np.uint16(7), 10**20, _Level.HIGH]},
                metrics=[{"name": "f", "value": np.float32(0.1), "uncertainty": np.float64(1 / 3)}],
            ),
            _report({"complex": [1 + 2j, np.complex128(-0.5 - 0.25j), np.complex64(1j)], "flags": [True, False, None]}),
            _report({"name": "Ψ-état 名前", "ψ": "\u00e9\n\"quoted\"\t"}, verdicts={"ünïcode": "ok"}),
            _report({"zeros": [-0.0, 0.0, 1e-300, -1e-300, 5e-324]}),
            _report({"scale": [1e-5, 1e-4, 1e11, 1e12, 1.5e13, 123456789012345.0, 1e16, 1.7976931348623157e308]}),
            _report({"rounding": [1 / 3, 2 / 3, 999999999999.5, 0.1 + 0.2, 100.0, -7.0]}),
            _report({"arrays": np.arange(3), "matrix": np.array([[1.5, 2.0], [3.0, 4.0]])}),
            _report(tables={"t": (["label", "mean"], [["XY", 0.25], ["ZZ", np.float64(-1.0)]])}),
        ],
    )
    def test_equals_json_dumps_of_the_payload(self, report):
        assert report.to_json() == _dumped(report)
        assert report.payload() == json.loads(_dumped(report))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
    def test_any_finite_floats(self, values):
        report = _report({"values": values})
        assert report.to_json() == _dumped(report)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, np.float64(np.nan), complex(1.0, math.inf), [1.0, [math.nan]]]
    )
    def test_non_finite_values_raise(self, bad):
        report = _report(metrics=[{"name": "bad", "value": bad, "uncertainty": None}])
        with pytest.raises(ValueError):
            _dumped(report)
        with pytest.raises(ValueError):
            report.to_json()

    def test_unsupported_values_raise(self):
        report = _report({"obj": object()})
        with pytest.raises(TypeError):
            _dumped(report)
        with pytest.raises(TypeError):
            report.to_json()


def test_every_protocol_reachable_from_documented_config():
    documented = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = parse_config(path.read_text())
        documented[config.protocol] = config
    assert set(documented) == set(PROTOCOLS)
    for protocol, config in sorted(documented.items()):
        report = run(config)
        assert report.payload()["config"]["protocol"] == protocol


def test_run_resolves_no_input(monkeypatch):
    configs = [parse_config(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]

    def refuse(*args, **kwargs):
        raise AssertionError("an input was resolved during the run")

    for name in [name for name in vars(config_module) if name.startswith("resolve_")]:
        monkeypatch.setattr(config_module, name, refuse)
        monkeypatch.setattr(runner_module, name, refuse, raising=False)
    for config in configs:
        run(config)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_resolved_inputs_survive_a_run(path):
    config = parse_config(path.read_text())
    assert (config.inputs.state is None) == (config.initial_state is None)
    assert run(config).to_json() == run(config).to_json()


# The CNOT matrix with one entry of 1e308: finite, but U^dag U overflows.
HUGE_UNITARY = [
    [[1e308, 0], [0, 0], [0, 0], [0, 0]],
    [[0, 0], [1, 0], [0, 0], [0, 0]],
    [[0, 0], [0, 0], [0, 0], [1, 0]],
    [[0, 0], [0, 0], [1, 0], [0, 0]],
]


class TestCLI:
    def test_run_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(CONFIG_DIR / "joint-global.json"), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["protocol"] == "joint-global"
        assert "wall clock" in capsys.readouterr().err

    def test_run_csv_contains_only_tables(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["run", "--config", str(CONFIG_DIR / "joint-global.json"), "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "table,row,column,value"
        assert all(line.startswith("joint_counts") for line in lines[1:])

    def test_seed_flag_overrides(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        main(["run", "--config", str(CONFIG_DIR / "joint-global.json"), "--out", str(out_a)])
        main(["run", "--config", str(CONFIG_DIR / "joint-global.json"), "--seed", "1", "--out", str(out_b)])
        assert json.loads(out_a.read_text())["seed"] == 42
        assert json.loads(out_b.read_text())["seed"] == 1

    def test_validate_ok(self, capsys):
        assert main(["validate", "--config", str(CONFIG_DIR / "chsh.json")]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "protocol": "repeatability", "observables": ["pauli:Q"]}')
        assert main(["validate", "--config", str(bad)]) == 1
        assert "observables[0]" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == 1

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # Ray-equal candidates are found out by the discrimination itself, at run time: exit code 2.
        config = {"name": "d", "protocol": "discriminate", "initial_state": "plus", "candidates": ["plus", "plus"]}
        path = tmp_path / "ray-equal.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 2
        assert "ray-equal" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["reconstruct", "clone", "joint-local", "joint-global"])
    def test_mode_flag_is_checked_like_the_config(self, capsys, name):
        assert main(["run", "--config", str(CONFIG_DIR / f"{name}.json"), "--mode", "quantum"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "'mode'" in err

    @pytest.mark.parametrize(
        "config",
        [
            {"protocol": "spectrum", "initial_state": "plus", "observables": [{"matrix": [[[1e308, 0]] * 2] * 2}]},
            {"protocol": "reconstruct", "initial_state": [[1e308, 0], [1e308, 0]]},
            {"protocol": "no-cloning", "candidates": ["basis:0", "plus"], "unitary": HUGE_UNITARY},
        ],
    )
    def test_overflowing_input_prints_one_line(self, tmp_path, capsys, config):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", **config}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command in ("validate", "run"):
                assert main([command, "--config", str(path)]) == 1
                assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shots", "abc"),
            ("trials", True),
            ("trials", 2.7),
            ("shape", ["x"]),
            ("shape", [2, 2, 2, 2, 2, 2, 2]),
            ("followup_shots", "abc"),
            ("followup_shots", 2.7),
            ("oracle", {"n": 2.5, "truth_table": [0, 1]}),
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, field, value):
        config = {"name": "r", "protocol": "reconstruct", "initial_state": "plus", "shots": 10, field: value}
        self.assert_invalid(tmp_path, capsys, config, field)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"protocol": "reconstruct", "initial_state": "basis:foo"}, "initial_state"),
            ({"protocol": "reconstruct", "initial_state": "random-pure:abc"}, "initial_state"),
            ({"protocol": "reconstruct", "initial_state": [[float("nan"), 0], [1, 0]]}, "initial_state"),
            ({"protocol": "spectrum", "initial_state": "plus", "observables": ["bloch:a,b,c"]}, "observables[0]"),
            ({"protocol": "spectrum", "initial_state": "plus", "observables": ["bloch:nan,0,1"]}, "observables[0]"),
            ({"protocol": "spectrum", "initial_state": "plus", "observables": ["bloch:0,inf,1"]}, "observables[0]"),
            (
                {"protocol": "spectrum", "initial_state": "plus", "observables": [{"matrix": [[[1e308, 0]] * 2] * 2}]},
                "observables[0]",
            ),
            ({"protocol": "proper-vs-improper", "mixture": [["basis:0"]]}, "mixture[0]"),
            ({"protocol": "proper-vs-improper", "mixture": [["basis:0", float("nan")], ["plus", 0.5]]}, "mixture[0]"),
            ({"protocol": "proper-vs-improper", "mixture": [["plus", "0.5"], ["basis:0", 0.5]]}, "mixture[0]"),
            ({"protocol": "proper-vs-improper", "mixture": [["plus", 0.5], ["basis:foo", 0.5]]}, "mixture[1]"),
            ({"protocol": "proper-vs-improper", "mixture": [["plus", 0.5], ["plus", 0.5]]}, "mixture"),
            ({"protocol": "repeatability", "initial_state": "plus", "observables": ["pauli:ZZ"]}, "observables[0]"),
            ({"protocol": "spectrum", "initial_state": "bell:phi+", "observables": ["pauli:Z"]}, "observables[0]"),
            (
                {"protocol": "simulate-collapse", "initial_state": "plus", "observables": ["pauli:Z"],
                 "library": "eigenstates", "followup_observable": "pauli:XX"},
                "followup_observable",
            ),
            ({"protocol": "joint-global", "initial_state": "bell:phi+", "observables": ["pauli:Z", "pauli:XX"]}, "observables[1]"),
            ({"protocol": "proper-vs-improper", "shape": [2], "purification": "plus"}, "purification"),
            ({"protocol": "proper-vs-improper", "shape": [2, 2], "purification": "basis:0"}, "purification"),
            ({"protocol": "reconstruct", "mode": "quantum", "initial_state": "plus"}, "mode"),
            ({"protocol": "clone", "mode": "quantum", "initial_state": "plus"}, "mode"),
            (
                {"protocol": "joint-local", "mode": "quantum", "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:Z"]},
                "mode",
            ),
            (
                {"protocol": "joint-global", "mode": "quantum", "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:Z"]},
                "mode",
            ),
            ({"protocol": "reconstruct", "initial_state": [[1e308, 0], [1e308, 0]]}, "initial_state"),
            (
                {"protocol": "spectrum", "initial_state": "plus", "observables": ["bloch:1e308,1e308,0"]},
                "observables[0]",
            ),
            ({"protocol": "no-cloning", "candidates": ["basis:0", "plus"], "unitary": [[1, 2]]}, "unitary"),
            ({"protocol": "no-cloning", "candidates": ["basis:0", "plus"], "unitary": HUGE_UNITARY}, "unitary"),
            ({"protocol": "repeatability", "initial_state": "plus", "observables": []}, "observables"),
            ({"protocol": "chsh", "initial_state": "bell:phi+", "observables": ["pauli:Z"]}, "observables"),
            ({"protocol": "spectrum", "initial_state": "plus"}, "observables"),
            ({"protocol": "reconstruct"}, "initial_state"),
            ({"protocol": "entanglement", "initial_state": "plus"}, "shape"),
            ({"protocol": "signalling", "initial_state": "plus", "observables": ["pauli:Z"]}, "shape"),
            ({"protocol": "teleportation", "initial_state": "bell:phi+"}, "initial_state"),
            ({"protocol": "simulate-collapse", "initial_state": "plus", "observables": ["pauli:Z"]}, "shape"),
            ({"protocol": "entanglement", "initial_state": "maximally-mixed", "shape": [2, 2]}, "initial_state"),
            ({"protocol": "teleportation", "initial_state": "random-pure:3", "dimension": 4}, "initial_state"),
            ({"protocol": "proper-vs-improper"}, "mixture"),
            (
                {"protocol": "proper-vs-improper", "mixture": [["basis:0", 0.5], ["plus", 0.5]], "shape": [2, 2],
                 "purification": "bell:phi+"},
                "mixture",
            ),
            ({"protocol": "discriminate", "initial_state": "plus", "candidates": ["bell:phi+", "plus"]}, "candidates[0]"),
            ({"protocol": "discriminate", "initial_state": "plus"}, "candidates"),
            ({"protocol": "discriminate", "initial_state": "plus", "candidates": ["plus"]}, "candidates"),
            (
                {"protocol": "discriminate", "initial_state": "plus", "candidates": ["maximally-mixed", "plus"]},
                "candidates[0]",
            ),
            ({"protocol": "deutsch-jozsa", "mode": "quantum", "oracle": {"n": 1, "truth_table": [0, 1]}}, "oracle.promise"),
            ({"protocol": "deutsch-jozsa", "oracle": {"n": 1, "truth_table": [0, 1]}}, "oracle.promise"),
            ({"protocol": "deutsch-jozsa"}, "oracle"),
            ({"protocol": "function-recovery"}, "oracle"),
            ({"protocol": "function-recovery", "oracle": {"n": 2, "truth_table": [0, 1]}}, "oracle.truth_table"),
            (
                {"protocol": "deutsch-jozsa", "oracle": {"n": 1, "truth_table": [0, 1], "promise": "maybe"}},
                "oracle.promise",
            ),
            (
                {"protocol": "deutsch-jozsa", "oracle": {"n": 1, "truth_table": [0, 0], "promise": "balanced"}},
                "oracle.promise",
            ),
            ({"protocol": "function-recovery", "oracle": {"n": 1, "truth_table": [0.7, 0]}}, "oracle.truth_table[0]"),
            ({"protocol": "function-recovery", "oracle": {"n": 1, "truth_table": [0, "1"]}}, "oracle.truth_table[1]"),
            ({"protocol": "function-recovery", "oracle": {"n": 1, "truth_table": [True, 0]}}, "oracle.truth_table[0]"),
            (
                {"protocol": "simulate-collapse", "initial_state": "bell:phi+", "observables": ["pauli:ZI"],
                 "library": "eigenstates"},
                "library",
            ),
            (
                {"protocol": "simulate-collapse", "initial_state": "bell:phi+", "observables": ["pauli:ZZ"],
                 "library": "eigenvectors"},
                "library",
            ),
            (
                {"protocol": "joint-global", "mode": "quantum", "ensemble": "no", "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:Z"]},
                "ensemble",
            ),
            (
                {"protocol": "joint-global", "ensemble": 1, "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:Z"]},
                "ensemble",
            ),
            (
                {"protocol": "chsh", "source": "local", "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:X", "pauli:Z", "pauli:X"]},
                "source",
            ),
            (
                {"protocol": "signalling", "action": "measure", "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:Z"]},
                "action",
            ),
        ],
    )
    def test_malformed_input_is_named(self, tmp_path, capsys, config, field):
        self.assert_invalid(tmp_path, capsys, {"name": "bad", "shots": 10, **config}, field)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"protocol": "signalling", "initial_state": "plus", "observables": ["pauli:Z"]}, "shape"),
            ({"protocol": "entanglement", "initial_state": "maximally-mixed", "shape": [2, 2]}, "initial_state"),
            ({"protocol": "teleportation", "initial_state": "random-pure:3", "dimension": 4}, "initial_state"),
            ({"protocol": "function-recovery", "oracle": {"n": 2, "truth_table": [0, 0, 1, 1]}, "shots": 1}, "shots"),
        ],
    )
    def test_unusable_input_is_named_at_run_time(self, tmp_path, capsys, config, field):
        self.assert_invalid(tmp_path, capsys, {"name": "bad", "shots": 10, **config}, field, ("run",))

    @staticmethod
    def assert_invalid(tmp_path, capsys, config, field, commands=("validate", "run")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in commands:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--config", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("invalid:") and err.count("\n") == 1 and f"'{field}" in err

    def test_negative_seed_flag_rejected(self, capsys):
        assert main(["run", "--config", str(CONFIG_DIR / "joint-global.json"), "--seed", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "--seed" in err

    def test_list_protocols(self, capsys):
        assert main(["list-protocols"]) == 0
        out = capsys.readouterr().out
        assert set(name for name, _ in list_protocols()) <= set(out.split())


# One field of a shipped config is replaced by a small JSON value: the
# config must be refused with ConfigError or run to a finite report.
FUZZ_FIELDS = (
    "shots",
    "trials",
    "seed",
    "dimension",
    "shape",
    "followup_shots",
    "oracle.n",
    "initial_state",
    "observables[0]",
    "mixture[0]",
)
FUZZ_PRESETS = (
    "plus",
    "maximally-mixed",
    "basis:1",
    "basis:foo",
    "bell:phi+",
    "random-pure:3",
    "random-pure:abc",
    "pauli:X",
    "pauli:ZZ",
    "bloch:1,0,1",
    "bloch:a,b,c",
    "bloch:nan,0,1",
    "bloch:1e308,0,0",
)
SHIPPED_CONFIGS = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
_scalars = st.one_of(
    st.integers(-2, 20),
    st.floats(-2, 20),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308]),
    st.text(max_size=6),
    st.sampled_from(FUZZ_PRESETS),
    st.booleans(),
    st.none(),
)
json_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)


def _mutate(config: dict, field: str, value) -> dict:
    config = copy.deepcopy(config)
    if field == "oracle.n":
        config["oracle"] = {**config.get("oracle", {}), "n": value}
    elif field.endswith("[0]"):
        key = field[: -len("[0]")]
        config[key] = [value] + config.get(key, [])[1:]
    else:
        config[field] = value
    return config


def _refuse_constant(name):
    raise AssertionError(f"report contains {name}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config=st.sampled_from(SHIPPED_CONFIGS), field=st.sampled_from(FUZZ_FIELDS), value=json_values)
def test_mutated_config_is_refused_or_reports_finite_values(config, field, value):
    try:
        report = run(parse_config(json.dumps(_mutate(config, field, value))))
    except ConfigError:
        return
    json.loads(report.to_json(), parse_constant=_refuse_constant)
