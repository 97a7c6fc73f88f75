"""pqt benchmark: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's configs from the seed, then runs timed passes
until ``--seconds`` is used up (at least two).  Each pass is a fresh
interpreter (``bench/child.py``) that imports the harness, parses every
config and runs them all through ``run`` and ``Report.to_json``, as
``pqt run`` does.  After the passes the parent checks every report
against references computed with numpy (``bench/checks.py``) and that
all passes produced byte-identical reports.

``--trace 0`` prints the end-to-end metrics, each the median over
passes.  ``setup_s`` and ``run_s`` are wall times scaled to a reference
host speed, which a probe task timed inside each pass gives
(``HostProbe`` in ``bench/child.py``); the lines above the result also
print them as measured.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of the traced ones
(``bench/tracer.py``), plus the tracing overhead.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  One
operation is one ``run(config)`` with its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PROTOCOLS = (
    "chsh",
    "clone",
    "deutsch-jozsa",
    "discriminate",
    "entanglement",
    "function-recovery",
    "joint-global",
    "joint-local",
    "no-cloning",
    "proper-vs-improper",
    "reconstruct",
    "repeatability",
    "signalling",
    "simulate-collapse",
    "spectrum",
    "teleportation",
)
# Per-layer metric -> (span name, field of the span summary).
SPAN_METRICS = {
    "measurement.Observable.calls": ("measurement.Observable", "calls"),
    "measurement.Observable.self_s": ("measurement.Observable", "self_s"),
    "hilbert.spectral_decompose.calls": ("hilbert.spectral_decompose", "calls"),
    "hilbert.spectral_decompose.self_s": ("hilbert.spectral_decompose", "self_s"),
    "tomography.linear_inversion.self_s": ("tomography.linear_inversion", "self_s"),
    "tomography.project_to_physical.calls": ("tomography.project_to_physical", "calls"),
    "tomography.project_to_physical.self_s": ("tomography.project_to_physical", "self_s"),
    "harness.report.to_json.self_s": ("harness.report.to_json", "self_s"),
    "measurement.born_distribution.calls": ("measurement.born_distribution", "calls"),
    "measurement.born_distribution.self_s": ("measurement.born_distribution", "self_s"),
    "measurement.sample_indices.calls": ("measurement.sample_indices", "calls"),
    "measurement.sample_indices.self_s": ("measurement.sample_indices", "self_s"),
    "measurement.repeated_measure.calls": ("measurement.repeated_measure", "calls"),
    "measurement.repeated_measure.self_s": ("measurement.repeated_measure", "self_s"),
    "tomography.estimate_expectations.self_s": ("tomography.estimate_expectations", "self_s"),
    "composite.local_passive_joint_sample.self_s": ("composite.local_passive_joint_sample", "self_s"),
    "composite.global_joint_sample.self_s": ("composite.global_joint_sample", "self_s"),
    "protocols.repeatability_experiment.self_s": ("protocols.repeatability_experiment", "self_s"),
    "measurement.measure.calls": ("measurement.measure", "calls"),
    "measurement.measure.self_s": ("measurement.measure", "self_s"),
    "measurement.collapse_update.calls": ("measurement.collapse_update", "calls"),
    "measurement.collapse_update.self_s": ("measurement.collapse_update", "self_s"),
    "hilbert.StateVector.calls": ("hilbert.StateVector", "calls"),
    "hilbert.StateVector.self_s": ("hilbert.StateVector", "self_s"),
    "hilbert.DensityOperator.calls": ("hilbert.DensityOperator", "calls"),
    "hilbert.DensityOperator.self_s": ("hilbert.DensityOperator", "self_s"),
    "hilbert.partial_trace.calls": ("hilbert.partial_trace", "calls"),
    "hilbert.partial_trace.self_s": ("hilbert.partial_trace", "self_s"),
    "composite.lift_local.calls": ("composite.lift_local", "calls"),
    "composite.lift_local.self_s": ("composite.lift_local", "self_s"),
    "rng.stream.calls": ("rng.stream", "calls"),
    "harness.parse_config.self_s": ("harness.config.parse_config", "self_s"),
}
SPAN_METRICS.update({f"harness.runner.{p}.self_s": (f"harness.runner.{p}", "self_s") for p in PROTOCOLS})
COUNTER_METRICS = ("measurement.sample_indices.draws", "measurement.repeated_measure.shots", "harness.report.bytes")
IC_FACTORY_SPANS = ("tomography.pauli_ic_set", "tomography.hermitian_basis_ic_set")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    return "count"


def run_child(texts: list[str], setup_only: bool = False, trace_path: Path | None = None) -> dict:
    """One fresh-interpreter pass; returns the child's JSON result."""
    command = [sys.executable, str(HERE / "child.py")]
    if setup_only:
        command.append("--setup-only")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    begin = time.monotonic()
    command.insert(2, repr(begin))
    proc = subprocess.run(
        command,
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_passes(texts: list[str], seconds: float, trace: bool, trace_path: Path) -> list[dict]:
    """Timed passes until ``seconds`` would be exceeded; in trace mode, untraced/traced pairs."""
    passes: list[dict] = []
    started = time.monotonic()
    while True:
        unit_start = time.monotonic()
        passes.append(run_child(texts))
        if trace:
            traced = run_child(texts, trace_path=trace_path)
            traced["traced"] = True
            passes.append(traced)
        unit_s = time.monotonic() - unit_start
        elapsed = time.monotonic() - started
        if len(passes) >= MIN_PASSES and elapsed + unit_s > seconds:
            return passes


def check_passes(configs: list[dict], passes: list[dict]) -> tuple[int, int, int, list[str]]:
    """Check every operation of every pass.

    Returns the operations attempted, those whose run raised, those whose
    report failed its check, and the problems found.
    """
    attempted = raised = wrong = 0
    problems: list[str] = []
    verdicts: dict[str, list[str]] = {}
    reference = passes[0]["reports"]
    for index, one_pass in enumerate(passes):
        for config, text, error, first in zip(configs, one_pass["reports"], one_pass["errors"], reference):
            attempted += 1
            if error is not None:
                raised += 1
                problems.append(f"pass {index} {config['name']}: run raised {error}")
                continue
            if text not in verdicts:
                verdicts[text] = checks.check(config, json.loads(text))
            found = list(verdicts[text])
            if text != first:
                found.append("report differs from the first pass (same seed, same config)")
            if found:
                wrong += 1
                problems += [f"pass {index} {config['name']}: {p}" for p in found]
    return attempted, raised, wrong, problems


def end_to_end(passes: list[dict], setup_samples: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict], import_samples: list[float]) -> dict:
    traced = [p for p in passes if p.get("traced")]
    plain = [p for p in passes if not p.get("traced")]

    def median_of(get) -> float:
        return statistics.median(get(p["trace"]) for p in traced)

    def span(name: str, field: str):
        return lambda trace: trace.get(name, {"calls": 0, "self_s": 0.0})[field]

    out = {metric: median_of(span(name, field)) for metric, (name, field) in SPAN_METRICS.items()}
    for metric in COUNTER_METRICS:
        out[metric] = median_of(lambda trace: trace["counters"].get(metric, 0))
    out["tomography.ic_set.calls"] = median_of(lambda trace: trace["ic_builds"]["calls"])
    out["tomography.ic_set.self_s"] = median_of(lambda trace: sum(span(n, "self_s")(trace) for n in IC_FACTORY_SPANS))
    out["tomography.ic_set.rebuilds"] = median_of(lambda trace: trace["ic_builds"]["calls"] - trace["ic_builds"]["distinct"])
    out["harness.import_s"] = statistics.median(import_samples)
    out["trace.overhead_s"] = statistics.median(p["run_s"] for p in traced) - statistics.median(p["run_s"] for p in plain)
    return {name: out[name] for name in sorted(out)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pqt" / "harness" / "runner.py").is_file():
        print(f"error: no pqt sources under {ROOT / 'src'}; run from a pqt checkout", file=sys.stderr)
        return 2

    configs = workloads.build(args.workload, args.seed)
    texts = [json.dumps(c, sort_keys=True) for c in configs]
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{args.workload}.spans.npz"
    passes = run_passes(texts, args.seconds, bool(args.trace), trace_path)
    probes = [run_child(texts, setup_only=True) for _ in range(max(0, MIN_SETUP_SAMPLES - len(passes)))]
    setup_samples = [p["setup_s"] for p in passes + probes]
    import_samples = [p["import_s"] for p in passes + probes]

    attempted, raised, wrong, problems = check_passes(configs, passes)
    failed, correct = raised + wrong, wrong == 0
    if args.trace:
        metrics = per_layer(passes, import_samples)
    else:
        metrics = end_to_end(passes, setup_samples)
    units = {name: END_TO_END_UNITS.get(name) or unit_of(name) for name in metrics}

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  setup samples {len(setup_samples)}")
    for kind in ("run_s", "setup_s"):
        print(f"  per pass {kind}: " + " ".join(f"{p[kind]:.3f}" + ("t" if p.get("traced") else "") for p in passes))
        print(f"  per pass {kind} as measured: " + " ".join(f"{p['wall'][kind]:.3f}" for p in passes))
    print("  per pass median host probe ms: " + " ".join(f"{1e3 * p['probe_s']:.2f}" for p in passes))
    for problem in problems[:50]:
        print(f"  FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value!r} {units[name]}")
    print(f"  attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
