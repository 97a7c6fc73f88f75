"""``tools/bench_pairs.py``: how one run's output is read, and the summary of fixed pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(run_s, setup_s, wall_run, wall_setup):
    return {"metrics": {"setup_s": setup_s, "run_s": run_s}, "wall": {"setup_s": wall_setup, "run_s": wall_run}}


def test_a_run_is_read_off_its_result_line_and_its_as_measured_lines(tool):
    result = {
        "correct": True,
        "attempted": 6,
        "failed": 0,
        "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "run_s": {"value": 0.02, "unit": "s"}},
    }
    stdout = "\n".join(
        [
            "workload protocol-loops  seed 5  passes 3  setup samples 9",
            "  per pass setup_s: 0.265 0.154 0.250",
            "  per pass setup_s as measured: 0.282 0.275 0.280",
            "  per pass run_s: 0.021 0.019 0.020",
            "  per pass run_s as measured: 0.030 0.024 0.026",
            "  per pass median host probe ms: 4.18 5.65 4.41",
            "  run_s                                            0.02 s",
            json.dumps(result),
        ]
    )
    assert tool.parse_run(stdout) == {
        "metrics": {"setup_s": 0.25, "run_s": 0.02},
        "wall": {"setup_s": 0.28, "run_s": 0.026},
        "correct": True,
        "failed": 0,
    }


def test_quartiles_of_one_value_and_of_five(tool):
    assert tool.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert tool.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)


def test_summary_of_fixed_pairs(tool):
    parent = [run(r, 0.2, 2 * r, 0.3) for r in (0.010, 0.012, 0.011, 0.013, 0.014)]
    change = [run(r, 0.2, 2 * r, 0.3) for r in (0.009, 0.010, 0.012, 0.011, 0.013)]
    assert tool.summarize(parent, change) == [
        "setup_s            parent 0.2 [0.2, 0.2]  change 0.2 [0.2, 0.2]  gap +0 vs parent IQR 0  change lower in 0 of 5",
        "run_s              parent 0.012 [0.011, 0.013]  change 0.011 [0.01, 0.012]  gap +0.001 vs parent IQR 0.002  "
        "change lower in 4 of 5",
        "setup_s wall       parent 0.3 [0.3, 0.3]  change 0.3 [0.3, 0.3]  gap +0 vs parent IQR 0  change lower in 0 of 5",
        "run_s wall         parent 0.024 [0.022, 0.026]  change 0.022 [0.02, 0.024]  gap +0.002 vs parent IQR 0.004  "
        "change lower in 4 of 5",
    ]
