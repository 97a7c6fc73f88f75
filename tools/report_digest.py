"""One digest over every report the benchmark and the shipped configs produce.

Runs each config of ``bench/workloads.build(workload, seed)`` for the three
workloads at seeds 1-3, and every file in ``configs/``, then hashes each
report's JSON with sha256.  The map from ``"{workload}/{seed}/{index}"`` and
``"configs/{file}"`` to those hashes is serialised with sorted keys and
hashed again; the script prints the number of reports and the first 16 hex
digits of that hash.  Two trees that print the same line produce the same
reports byte for byte.  With ``--each``, one ``key sha256`` line per report
comes first, in key order, so that ``diff`` of two trees' outputs names the
reports that moved.

    python tools/report_digest.py
    python tools/report_digest.py --each > digest.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from pqt.harness import parse_config, run  # noqa: E402

SEEDS = (1, 2, 3)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_hashes() -> dict[str, str]:
    """sha256 of each report's JSON, keyed by where its config came from."""
    hashes = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for index, config in enumerate(workloads.build(workload, seed)):
                hashes[f"{workload}/{seed}/{index}"] = _sha256(run(parse_config(json.dumps(config))).to_json())
    for path in sorted((ROOT / "configs").glob("*.json")):
        hashes[f"configs/{path.name}"] = _sha256(run(parse_config(path.read_text(encoding="utf-8"))).to_json())
    return hashes


def main() -> None:
    parser = argparse.ArgumentParser(description="Digest of every benchmark and shipped-config report.")
    parser.add_argument("--each", action="store_true", help="print one 'key sha256' line per report first")
    args = parser.parse_args()
    start = time.perf_counter()
    hashes = report_hashes()
    if args.each:
        for key in sorted(hashes):
            print(key, hashes[key])
    digest = _sha256(json.dumps(hashes, sort_keys=True))[:16]
    print(f"{len(hashes)} reports, digest {digest}")
    print(f"wall clock: {time.perf_counter() - start:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
