import copy
import csv
import enum
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqt.harness import (
    ConfigError,
    list_protocols,
    parse_config,
    run,
    tv_distance,
    wilson_interval,
)
from pqt.harness import config as config_module, runner as runner_module
from pqt.harness.cli import main
from pqt.harness.config import Inputs, resolve_state
from pqt.harness.report import _GROUPED_MIN_CELLS, Report
from pqt.harness.runner import PROTOCOLS
from pqt.hilbert import plus_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PAULI_X_ENTRIES = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]

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

    @pytest.mark.parametrize(
        "config, field",
        [
            (
                {"protocol": "function-recovery", "oracle": {"n": 2, "truth_table": [0, 1, 1, 0], "promis": "balanced"}},
                "oracle.promis",
            ),
            (
                {"protocol": "deutsch-jozsa", "oracle": {"n": 1, "truth_table": [0, 1], "promise": "balanced", "x": 1}},
                "oracle.x",
            ),
            ({"protocol": "spectrum", "initial_state": "plus", "observables": [{"matrix": PAULI_X_ENTRIES, "nme": "X"}]},
             "observables[0].nme"),
            (
                {"protocol": "simulate-collapse", "initial_state": "plus", "observables": ["pauli:Z"],
                 "library": "eigenstates", "followup_observable": {"name": "X", "matrx": PAULI_X_ENTRIES}},
                "followup_observable.matrx",
            ),
            ({"protocol": "reconstruct", "initial_state": "random-pure:1", "shape": [2, 2], "dimension": 3}, "dimension"),
            ({"protocol": "reconstruct", "initial_state": "random-pure:1", "shape": [2, 2], "dimension": 4}, "dimension"),
        ],
    )
    def test_a_field_that_would_be_dropped_is_refused(self, config, field):
        # Each would otherwise validate and run without it: a misspelt promise, a name, or a contradicting dimension.
        with pytest.raises(ConfigError) as caught:
            parse_config(json.dumps({"name": "bad", **config}))
        assert caught.value.field == field

    def test_round_trip_identity(self):
        first = parse_config(EXAMPLE)
        second = parse_config(first.to_json())
        assert first == second
        for path in sorted(CONFIG_DIR.glob("*.json")):
            config = parse_config(path.read_text())
            assert parse_config(config.to_json()) == config

    def test_payload_is_the_written_config_read_back(self):
        for path in sorted(CONFIG_DIR.glob("*.json")):
            config = parse_config(path.read_text())
            assert config.payload() == json.loads(config.to_json())

    def test_equality_compares_raw_values_and_ignores_inputs(self):
        first, second = parse_config(EXAMPLE), parse_config(EXAMPLE)
        assert first.inputs is not second.inputs and first.inputs.observables[0] is not second.inputs.observables[0]
        assert first == second
        second.inputs = Inputs()
        assert first == second
        second.seed += 1
        assert first != second
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)


class TestRun:
    def test_repeatability_example(self):
        report = run(parse_config(EXAMPLE))
        (metric,) = [m for m in report.metrics if m["name"] == "agreement_rate"]
        assert metric["value"] == pytest.approx(0.5, abs=0.015)

    def test_reports_are_byte_identical(self):
        config = parse_config(EXAMPLE)
        assert run(config).to_json() == run(config).to_json()

    def test_reports_do_not_share_a_config_dict(self):
        config = parse_config(EXAMPLE)
        first, second = run(config), run(config)
        assert first.config is not second.config
        first.config["seed"] = 0
        assert second.config["seed"] == config.payload()["seed"] == 42

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
    for name, (columns, cells) in (tables or {}).items():
        report.add_table(name, columns, cells)
    return report


def _canonical(value):
    """Reference canonical form: floats rounded to 12 significant digits, containers normalised."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, np.bool_):
        return bool(value)
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
        "tables": {
            name: {"columns": t.columns, "rows": [list(row) for row in zip(*t.cells)]} for name, t in report.tables.items()
        },
        "verdicts": report.verdicts,
    }
    return json.dumps(_canonical(fields), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _lines(text: str) -> list[str]:
    """The lines of ``text``, ends kept.

    Two long texts compared as lines fail at once, naming the first line that differs; pytest's diff of
    the two strings takes ~30 s for a 256-row table, and minutes when hypothesis shrinks a failing column.
    """
    return text.splitlines(keepends=True)


# Floats at the edges of the 12-digit rule: texts with no "." or with an exponent, extremes, and
# values just off an integer that round to one (12345678901.04 is written 12345678901.0).
EDGE_FLOATS = [-0.0, 0.0, 100.0, -7.0, 1e-5, 1e-4, 1e11, 1e12, 1e16, 999999999999.5, 12345678901.04, 5e-324]
EDGE_FLOATS += [1.7976931348623157e308, 99999999999.99, 0.000099999999999999, 1234567890123.0, 1 / 3, -2.5e-7]
EDGE_FLOATS += [-value for value in EDGE_FLOATS]

# Long enough to be grouped by value: 0.0 and -0.0 must keep their own texts.
SIGNED_ZEROS = [0.0, -0.0, 1.0, 1e-7] * _GROUPED_MIN_CELLS

# Values near an integer at every magnitude, with the offsets that decide whether 12 digits keep a ".".
near_integral_floats = st.builds(
    lambda digits, scale, offset: digits * 10.0**scale + offset,
    st.integers(-(10**12), 10**12),
    st.integers(-12, 20),
    st.sampled_from([0.0, 1e-12, -1e-9, 1e-6, 0.04, -0.04, 0.5, -0.5]),
)


@st.composite
def repeated_float_columns(draw):
    """A column of up to ~5000 cells drawn from a few values, 0.0 and -0.0 among them, so that values repeat."""
    pool = [0.0, -0.0] + draw(
        st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), near_integral_floats, st.sampled_from(EDGE_FLOATS)),
            min_size=1,
            max_size=12,
        )
    )
    length = draw(st.integers(_GROUPED_MIN_CELLS - 4, _GROUPED_MIN_CELLS + 4) | st.integers(len(pool), 5000))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(pool), size=length)
    return [pool[i] for i in picks[: length - len(pool)].tolist()] + pool  # every pool value at least once


class _Level(enum.IntEnum):
    HIGH = 3


class TestReportJson:
    """``to_json`` writes in one pass what ``json.dumps`` writes of the canonical payload."""

    @pytest.mark.parametrize(
        "report",
        [
            _report(),
            _report({"a": [], "b": {}, "c": ()}, tables={"empty": (["x", "y"], [[], []]), "none": ([], [])}),
            _report({1: "int key", 2.5: "float key", None: "none key", True: "bool key", (1, 2): "tuple key"}),
            _report(
                {"ints": [np.int64(-3), np.int8(2), np.uint16(7), 10**20, _Level.HIGH]},
                metrics=[{"name": "f", "value": np.float32(0.1), "uncertainty": np.float64(1 / 3)}],
            ),
            _report({"complex": [1 + 2j, np.complex128(-0.5 - 0.25j), np.complex64(1j)], "flags": [True, False, None, np.True_]}),
            _report({"name": "Ψ-état 名前", "ψ": "\u00e9\n\"quoted\"\t"}, verdicts={"ünïcode": "ok"}),
            _report({"zeros": [-0.0, 0.0, 1e-300, -1e-300, 5e-324]}),
            _report({"scale": [1e-5, 1e-4, 1e11, 1e12, 1.5e13, 123456789012345.0, 1e16, 1.7976931348623157e308]}),
            _report({"rounding": [1 / 3, 2 / 3, 999999999999.5, 0.1 + 0.2, 100.0, -7.0]}),
            _report({"arrays": np.arange(3), "matrix": np.array([[1.5, 2.0], [3.0, 4.0]])}),
            _report(tables={"t": (["label", "mean"], [["XY", "ZZ"], [0.25, np.float64(-1.0)]])}),
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

    # Tables are written a column at a time, with the bytes ``json.dumps`` writes of their rows.
    @pytest.mark.parametrize(
        "columns, cells",
        [
            (["s"], [["XY", "Ψ-é\n\"q\"", ""]]),
            (["i"], [[0, -3, 10**20]]),
            (["b", "n"], [[True, False, True], [None, None, None]]),
            (["f", "f64"], [[0.25, -1.0, 1e-300], [np.float64(0.1), np.float64(-0.0), np.float64(1e300)]]),
            (["i64", "f32"], [[np.int64(-3), np.int64(2), np.int64(7)], [np.float32(0.1), np.float32(1), np.float32(-2)]]),
            (["mixed", "enum"], [[1, 2.5, "x"], [_Level.HIGH, 1, False]]),
            (["nested"], [[1 + 2j, [1.0, [2, None]], {"k": 0.5, 1: "v"}]]),
            (["a", "b", "c", "d"], [np.array([1.5, 2.0, -0.0]), np.arange(3), np.array([True, False, True]), ("x", "y", "z")]),
            (["label", "mean", "half_width"], [["ZZZ"], [0.125], [0.0]]),
            (["x", "y"], [[], []]),
            (["x", "y"], [np.array([]), ()]),
            (["edge"], [EDGE_FLOATS]),
            (["edge", "array"], [[np.float64(value) for value in EDGE_FLOATS], np.array(EDGE_FLOATS)]),
            (["list", "array"], [SIGNED_ZEROS, np.array(SIGNED_ZEROS)]),
            # Only 1-D float64 arrays take the grouped path: a 2-D array's cells are its rows, as nested lists.
            (["pairs"], [np.array(SIGNED_ZEROS).reshape(-1, 2)]),
            (["f32"], [np.array(SIGNED_ZEROS, dtype=np.float32)]),
        ],
        ids=[
            "str", "int", "bool-none", "float-float64", "int64-float32", "mixed", "nested",
            "arrays", "one-row", "empty", "empty-arrays", "edge-floats", "edge-float64",
            "long-signed-zeros", "2d-float64", "float32-array",
        ],
    )
    def test_equals_json_dumps_of_the_rows(self, columns, cells):
        report = _report(tables={"t": (columns, cells), "other": (["k"], [[1]])})
        assert _lines(report.to_json()) == _lines(_dumped(report))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), near_integral_floats), max_size=300
        )
        | repeated_float_columns()
    )
    def test_any_float_column(self, values):
        report = _report(tables={"t": (["list", "array"], [values, np.array(values, dtype=float)])})
        assert _lines(report.to_json()) == _lines(_dumped(report))

    @pytest.mark.parametrize(
        "column",
        [
            [math.nan], [1.0, math.inf], [-math.inf, 0.5], [np.float64(np.nan)], np.array([0.0, np.nan]), [1, math.nan],
            np.array([0.5, 0.25] * 250 + [math.nan, math.inf]),
        ],
    )
    def test_non_finite_cells_raise(self, column):
        report = _report(tables={"t": (["x"], [column])})
        with pytest.raises(ValueError):
            _dumped(report)
        with pytest.raises(ValueError):
            report.to_json()

    @pytest.mark.parametrize("column", [[object()], [1.0, object()], ["a", object()]])
    def test_unsupported_cells_raise(self, column):
        report = _report(tables={"t": (["x"], [column])})
        with pytest.raises(TypeError):
            _dumped(report)
        with pytest.raises(TypeError):
            report.to_json()

    @pytest.mark.parametrize("columns, cells", [(["x", "y"], [[1, 2], [3]]), (["x", "y"], [[1, 2]]), ([], [[1]])])
    def test_ragged_tables_are_refused(self, columns, cells):
        with pytest.raises(ValueError):
            _report(tables={"t": (columns, cells)})

    def test_memory_of_a_large_table_stays_near_its_text(self):
        # A 6-qubit reconstruction's expectations table: 4095 labels, means and half-widths.  The
        # peak is what serialising adds to a run's peak RSS.
        rng = np.random.default_rng(7)
        labels = ["".join(label) for label in rng.choice(list("IXYZ"), size=(4095, 6)).tolist()]
        cells = [labels, rng.uniform(-1.0, 1.0, 4095), rng.uniform(0.0, 0.1, 4095)]
        report = _report(tables={"expectations": (["observable", "mean", "half_width"], cells)})
        report.to_json()
        tracemalloc.start()
        try:
            text = report.to_json()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * len(text)


def test_csv_holds_the_golden_table_cells_in_order():
    report = run(parse_config((CONFIG_DIR / "reconstruct-3q.json").read_text()))
    golden = json.loads((CONFIG_DIR.parent / "tests" / "golden" / "reconstruct-3q.json").read_text())
    expected = [["table", "row", "column", "value"]]
    for name, table in sorted(golden["tables"].items()):
        for i, row in enumerate(table["rows"]):
            expected += [[name, str(i), column, str(value)] for column, value in zip(table["columns"], row)]
    assert len(expected) == 1 + 63 * 3
    assert list(csv.reader(io.StringIO(report.to_csv()))) == expected


def test_every_protocol_reachable_from_documented_config():
    documented = {}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = parse_config(path.read_text())
        documented[config.protocol] = config
    assert set(documented) == set(PROTOCOLS)
    for protocol, config in sorted(documented.items()):
        report = run(config)
        assert report.payload()["config"]["protocol"] == protocol


class _Unreadable:
    """Stands in for ``config.extras``: any read of it fails."""

    def _refuse(self, *args):
        raise AssertionError("a runner read config.extras")

    __getattr__ = __getitem__ = __contains__ = __iter__ = __len__ = __bool__ = _refuse


RESOLVED_KINDS = ("state", "observable", "mixture", "purification", "candidates", "oracle", "unitary")


def test_run_resolves_no_input(monkeypatch):
    configs = [parse_config(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
    expected = [run(config).to_json() for config in configs]

    def refuse(*args, **kwargs):
        raise AssertionError("an input was resolved during the run")

    def without_extras(runner):
        def wrapped(config, report, stream):
            blind = copy.copy(config)
            blind.extras = _Unreadable()
            runner(blind, report, stream)

        return wrapped

    # Every resolver, patched in each module that defines one or imports it.
    modules = (config_module, runner_module)
    resolvers = {
        name
        for module in modules
        for name, value in vars(module).items()
        if name.startswith("resolve_") and getattr(value, "__module__", None) == module.__name__
    }
    assert resolvers == {f"resolve_{kind}" for kind in RESOLVED_KINDS}
    for module in modules:
        for name in resolvers & set(vars(module)):
            monkeypatch.setattr(module, name, refuse)
    for protocol, (runner, spec) in list(PROTOCOLS.items()):
        monkeypatch.setitem(PROTOCOLS, protocol, (without_extras(runner), spec))
    assert [run(config).to_json() for config in configs] == expected


def test_settings_default_when_the_config_leaves_them_out():
    inputs = parse_config(EXAMPLE).inputs
    assert (inputs.source, inputs.action, inputs.ensemble, inputs.followup_shots) == ("global", "none", False, 1)


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
# H tensor I with entries rounded to +-0.70710678118: max |U^dag U - I| = 1.85e-11, within UNITARY_TOL.
_H = 0.70710678118
NEAR_H_TENSOR_I = [[_H, 0, _H, 0], [0, _H, 0, _H], [_H, 0, -_H, 0], [0, _H, 0, -_H]]
PROJECTOR_ON_0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]  # outcomes 0 and 1, not +-1


LIST_PROTOCOLS = """\
chsh                 passive, quantum            CHSH value from global or local-passive sampling
clone                passive                     copy an unknown state by single-copy readout
deutsch-jozsa        passive, quantum            constant-vs-balanced verdict, one oracle call
discriminate         passive                     identify which candidate state a single copy is in
entanglement         passive                     product-vs-entangled from local measurements on one copy
function-recovery    passive, quantum            recover a full truth table from the post-oracle state
joint-global         passive, quantum (ensemble) joint outcome table from one global device
joint-local          passive                     joint outcome table from independent local passive devices
no-cloning           passive, quantum            inner-product obstruction to unitary cloning
proper-vs-improper   passive                     tell a classical ensemble from an entangled marginal
reconstruct          passive                     single-copy state reconstruction
repeatability        passive, quantum            agreement rate of immediate repeated measurements
signalling           passive, quantum            B-side marginal with and without an A-side action
simulate-collapse    passive                     make passive measurements look collapsed by swapping
spectrum             passive                     recover an observable's spectrum by repetition
teleportation        passive, quantum            teleportation fidelity under either update rule
"""

SIMULATE_COLLAPSE = {"protocol": "simulate-collapse", "initial_state": "plus", "observables": ["pauli:Z"],
                     "library": "eigenstates", "followup_observable": "pauli:X"}


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

    @pytest.mark.parametrize(
        "case, commands, code, message",
        [
            ("unwritable-out", ("run",), 2, "error: cannot write report to {out!r}: "),
            ("non-utf8-config", ("validate", "run"), 1, "invalid: config field '--config': cannot read {config!r}: "),
        ],
        ids=["unwritable-out", "non-utf8-config"],
    )
    def test_a_file_error_prints_one_line(self, tmp_path, capsys, case, commands, code, message):
        config, out = str(CONFIG_DIR / "clone.json"), str(tmp_path / "no-such-dir" / "r.json")
        if case == "non-utf8-config":
            config, out = str(tmp_path / "latin1.json"), str(tmp_path / "r.json")
            Path(config).write_bytes(b'{"name": "\xff", "protocol": "clone"}')
        for command in commands:
            assert main([command, "--config", config, *(["--out", out] if command == "run" else [])]) == code
            err = capsys.readouterr().err
            assert err.startswith(message.format(config=config, out=out)) and err.count("\n") == 1

    def test_runtime_error_exit_code(self, monkeypatch, capsys):
        # An error raised while a validated config runs is a runtime error: exit code 2.
        def fail(*args):
            raise ValueError("candidates 0 and 1 are ray-equal")

        monkeypatch.setattr(runner_module, "discriminate", fail)
        assert main(["run", "--config", str(CONFIG_DIR / "discriminate.json")]) == 2
        assert "error while running 'discriminate': candidates 0 and 1 are ray-equal" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, field",
        [
            (
                {"protocol": "discriminate", "initial_state": "basis:0", "candidates": ["basis:0", "basis:0"]},
                "candidates[1]",
            ),
            (
                {"protocol": "chsh", "initial_state": "bell:phi+",
                 "observables": ["pauli:Z", "pauli:X", {"matrix": PROJECTOR_ON_0}, "bloch:-1,0,1"]},
                "observables[2]",
            ),
            # U psi is normalised to UNITARY_TOL, not to NORM_TOL: evolve takes it as the state it is.
            (
                {"protocol": "no-cloning", "candidates": ["basis:0", "plus"],
                 "unitary": [[[x, 0] for x in row] for row in NEAR_H_TENSOR_I]},
                None,
            ),
        ],
        ids=["ray-equal-candidates", "non-dichotomic-chsh-observable", "near-unitary-no-cloning"],
    )
    def test_a_validated_config_runs_without_a_runtime_error(self, tmp_path, capsys, config, field):
        # Each config is refused by validate, naming its field, or it runs: never exit code 2.
        if field is not None:
            self.assert_invalid(tmp_path, capsys, {"name": "v", "shots": 1000, **config}, field)
            return
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"name": "v", **config}))
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path)]) == 0

    @pytest.mark.parametrize("name", ["reconstruct", "clone", "joint-local", "joint-global", "proper-vs-improper"])
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
        "key, value, field",
        [
            ("shots", "abc", "shots"),
            ("trials", True, "trials"),
            ("trials", 2.7, "trials"),
            ("shape", ["x"], "shape[0]"),
            ("shape", [2, 2, 2, 2, 2, 2, 2], "shape"),
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, capsys, key, value, field):
        config = {"name": "r", "protocol": "reconstruct", "initial_state": "plus", "shots": 10, key: value}
        self.assert_invalid(tmp_path, capsys, config, field)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({**SIMULATE_COLLAPSE, "followup_shots": "abc"}, "followup_shots"),
            ({**SIMULATE_COLLAPSE, "followup_shots": 2.7}, "followup_shots"),
            ({"protocol": "function-recovery", "oracle": {"n": 2.5, "truth_table": [0, 1]}}, "oracle.n"),
        ],
    )
    def test_malformed_extra_is_named_on_a_protocol_that_reads_it(self, tmp_path, capsys, config, field):
        self.assert_invalid(tmp_path, capsys, {"name": "r", "shots": 10, **config}, field)

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"protocol": "chsh", "initial_state": "bell:phi+", "observables": ["pauli:Z", "pauli:X"] * 2,
              "ensemble": True}, "ensemble"),
            ({"protocol": "chsh", "initial_state": "bell:phi+", "observables": ["pauli:Z", "pauli:X"] * 2,
              "oracle": {"n": 1, "truth_table": [0, 1]}}, "oracle"),
            ({"protocol": "reconstruct", "initial_state": "plus", "mixture": [["basis:0", 0.5], ["plus", 0.5]]},
             "mixture"),
            ({"protocol": "reconstruct", "initial_state": "plus", "unitary": "cnot"}, "unitary"),
            ({"protocol": "reconstruct", "initial_state": "plus", "candidates": ["basis:0", "plus"]}, "candidates"),
            ({"protocol": "reconstruct", "initial_state": "plus", "source": "global"}, "source"),
            ({"protocol": "reconstruct", "initial_state": "plus", "followup_observable": "pauli:XX"},
             "followup_observable"),
        ],
    )
    def test_an_extra_its_protocol_never_reads_is_refused(self, tmp_path, capsys, config, field):
        config = {"name": "unread", "shots": 10, **config}
        self.assert_invalid(tmp_path, capsys, config, field)
        with pytest.raises(ConfigError, match=f"^config field '{field}': protocol '{config['protocol']}' does not read"):
            parse_config(json.dumps(config))

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"protocol": "deutsch-jozsa", "oracle": {"n": 1, "truth_table": [0, 1], "promise": "balanced"},
              "dimension": 7}, "dimension"),
            ({"protocol": "no-cloning", "candidates": ["basis:0", "plus"], "shape": [3, 5]}, "shape"),
            ({"protocol": "function-recovery", "oracle": {"n": 1, "truth_table": [0, 1]}, "shape": [2, 2]}, "shape"),
            ({"protocol": "proper-vs-improper", "mixture": [["basis:0", 0.5], ["plus", 0.5]], "shape": [5]}, "shape"),
            ({"protocol": "teleportation", "shape": [2]}, "shape"),
        ],
    )
    def test_a_shape_that_shapes_no_state_is_refused(self, tmp_path, capsys, config, field):
        # The shape would be echoed into the report and read by nothing: no state of the config takes it.
        config = {"name": "unread", "shots": 10, **config}
        self.assert_invalid(tmp_path, capsys, config, field)
        with pytest.raises(ConfigError, match=f"^config field '{field}': protocol '{config['protocol']}' does not read"):
            parse_config(json.dumps(config))

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
            # One copy under collapse cannot show a mixture's member: the single-copy protocol is passive only.
            (
                {"protocol": "proper-vs-improper", "mode": "quantum", "mixture": [["basis:0", 0.5], ["plus", 0.5]],
                 "trials": 3, "seed": 1},
                "mode",
            ),
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
                {"protocol": "function-recovery", "oracle": {"n": 2, "truth_table": [0, 1, 1, 0], "promis": "balanced"}},
                "oracle.promis",
            ),
            ({"protocol": "spectrum", "initial_state": "plus", "observables": [{"matrix": PAULI_X_ENTRIES, "nme": "typo"}]},
             "observables[0].nme"),
            (
                {"protocol": "simulate-collapse", "initial_state": "plus", "observables": ["pauli:Z"],
                 "library": "eigenstates", "followup_observable": {"matrix": PAULI_X_ENTRIES, "nme": "typo"}},
                "followup_observable.nme",
            ),
            ({"protocol": "reconstruct", "initial_state": "random-pure:1", "shape": [2, 2], "dimension": 3}, "dimension"),
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
            assert err.startswith(f"invalid: config field '{field}': ") and err.count("\n") == 1, err

    def test_negative_seed_flag_rejected(self, capsys):
        assert main(["run", "--config", str(CONFIG_DIR / "joint-global.json"), "--seed", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "--seed" in err

    def test_shape_mismatch_names_the_field_once(self, tmp_path, capsys):
        config = {
            "name": "bad",
            "protocol": "repeatability",
            "shape": [2],
            "initial_state": [[1, 0], [0, 0], [0, 0]],
            "observables": ["pauli:Z"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.count("config field 'initial_state'") == 1

    def test_list_protocols(self, capsys):
        assert main(["list-protocols"]) == 0
        assert capsys.readouterr().out == LIST_PROTOCOLS
        assert [name for name, _ in list_protocols()] == sorted(PROTOCOLS)


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
    "candidates[0]",
    "unitary",
    "source",
    "action",
    "ensemble",
    "library",
    "followup_observable",
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


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(config=st.sampled_from(SHIPPED_CONFIGS), field=st.sampled_from(FUZZ_FIELDS), value=json_values)
def test_mutated_config_is_refused_or_reports_finite_values(config, field, value):
    try:
        report = run(parse_config(json.dumps(_mutate(config, field, value))))
    except ConfigError:
        return
    json.loads(report.to_json(), parse_constant=_refuse_constant)
