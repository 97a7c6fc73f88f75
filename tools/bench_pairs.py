"""Interleaved parent/change pairs of one benchmark workload, summarised per end-to-end metric.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload protocol-loops --seed 5 --pairs 10

Each pair runs ``bench/run.py --workload W --seed S --trace 0`` once in each
checkout, for the run length ``bench/run.py`` takes by default, the parent
first in even pairs and the change first in odd ones, so that the host's drift
in speed falls on both sides alike.  Each
run is read for its end-to-end metrics (the JSON last line) and for the median
of each ``per pass ... as measured`` line (the wall times before host scaling).
The script then prints, per metric, each side's median and quartiles over the
pairs, the change's median gap against the parent's interquartile range, and
in how many pairs the change was lower; then the same for the wall medians.

Each checkout runs with its own ``src/``: ``PYTHONPATH`` is dropped from the
children's environment.  Only the standard library is used, and nothing under
``bench/`` is written but what ``bench/run.py`` itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

WALL_LINE = re.compile(r"^  per pass (\S+) as measured: (.*)$")


def parse_run(stdout: str) -> dict:
    """``{"metrics": {name: value}, "wall": {name: median}, "correct": bool, "failed": int}`` of one run's output."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wall = {}
    for match in filter(None, map(WALL_LINE.match, lines[:-1])):
        wall[match[1]] = statistics.median(map(float, match[2].split()))
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"metrics": metrics, "wall": wall, "correct": result["correct"], "failed": result["failed"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[dict], change: list[dict]) -> list[str]:
    """One line per end-to-end metric and per wall median, from pair-aligned runs as ``parse_run`` reads them."""
    lines = []
    for kind, label in (("metrics", ""), ("wall", " wall")):
        for name in parent[0][kind]:
            before = [run[kind][name] for run in parent]
            after = [run[kind][name] for run in change]
            (p1, pm, p3), (c1, cm, c3) = quartiles(before), quartiles(after)
            lower = sum(b > a for b, a in zip(before, after))
            lines.append(
                f"{name + label:18s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                f"gap {pm - cm:+.3g} vs parent IQR {p3 - p1:.3g}  change lower in {lower} of {len(before)}"
            )
    return lines


def run_bench(checkout: str, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited with {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description="Interleaved parent/change pairs of bench/run.py.")
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    runs = {args.parent: [], args.change: []}
    for pair in range(args.pairs):
        order = (args.parent, args.change) if pair % 2 == 0 else (args.change, args.parent)
        for checkout in order:
            runs[checkout].append(run_bench(checkout, args.workload, args.seed))
        before, after = runs[args.parent][-1]["metrics"]["run_s"], runs[args.change][-1]["metrics"]["run_s"]
        print(f"pair {pair + 1}: run_s parent {before:.6g}  change {after:.6g}", flush=True)
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        bad = [i + 1 for i, run in enumerate(runs[checkout]) if not run["correct"] or run["failed"]]
        if bad:
            print(f"{side}: pairs {bad} were not correct or had failed operations")
    print(f"workload {args.workload}  seed {args.seed}  pairs {args.pairs}")
    for line in summarize(runs[args.parent], runs[args.change]):
        print(line)


if __name__ == "__main__":
    main()
