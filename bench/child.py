"""One timed pass of a workload, in a fresh interpreter, as ``pqt run`` would be.

    python3 bench/child.py LAUNCHED_AT [--setup-only] [--trace PATH] < configs.json

Reads a JSON list of config texts from stdin, imports the harness,
parses every config, then runs them all and serialises each report.
``LAUNCHED_AT`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, the
import and parsing.  Writes one JSON object to stdout: the timings, the
peak RSS read before any check, and each report text (or the error that
its run raised).  ``setup_s`` and ``run_s`` are scaled to a reference
host speed (see :class:`HostProbe`); ``wall`` holds them as measured.
With ``--trace PATH`` every pqt call after the import is traced, the
spans are saved to PATH and their summary is included.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time

# The host's speed changes from second to second (other tenants), so each
# time is scaled to a reference speed.  The probe is the median of
# PROBE_REPEATS timings of a fixed task: a pure-Python loop and a loop of
# small numpy calls like those of a per-shot measurement.  It runs in this
# process, on the vCPU the work runs on: once right after set-up, then
# from a SIGALRM handler every PROBE_INTERVAL_S while the configs run,
# and once after the last one.  It takes about PROBE_REFERENCE_S when the
# host is at its fastest.
PROBE_ITERATIONS = 30_000
PROBE_NUMPY_ITERATIONS = 80
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.25
PROBE_REFERENCE_S = 0.004


class HostProbe:
    """Samples of the host's speed: (start, end, median task time) each."""

    def __init__(self):
        import numpy as np  # already imported by pqt; the import is not timed again

        self.np = np
        self.matrix = np.array([[1.0, 0.5j], [-0.5j, -1.0]])
        self.vector = np.array([0.6, 0.8j])
        self.generator = np.random.default_rng(0)
        self.samples: list[tuple[float, float, float]] = []
        self.sampling = False

    def task(self) -> float:
        """Seconds the fixed probe task takes, right now."""
        np = self.np
        begin = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        for _ in range(PROBE_NUMPY_ITERATIONS):
            _, vectors = np.linalg.eigh(self.matrix)
            weights = np.abs(vectors.conj().T @ self.vector) ** 2
            np.searchsorted(np.cumsum(weights), self.generator.random(8))
        return time.perf_counter() - begin

    def sample(self, *_signal_args) -> None:
        if self.sampling:  # a timer signal that arrives during a sample is dropped
            return
        self.sampling = True
        start = time.perf_counter()
        times = [self.task() for _ in range(PROBE_REPEATS)]
        self.samples.append((start, time.perf_counter(), statistics.median(times)))
        self.sampling = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured at the first sample, at the reference speed."""
        return seconds * PROBE_REFERENCE_S / self.samples[0][2]

    def work(self) -> tuple[float, float]:
        """Time between the first and the last sample not spent probing: as measured, and at the reference speed."""
        wall = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(self.samples, self.samples[1:]):
            wall += start - end
            scaled += (start - end) * PROBE_REFERENCE_S / ((before + after) / 2.0)
        return wall, scaled


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("launched_at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    texts = json.loads(sys.stdin.read())

    import_start = time.monotonic()
    import pqt.harness.runner  # noqa: F401 - the import is what is timed
    from pqt.harness import config as config_module, runner

    import_s = time.monotonic() - import_start
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        configs = [config_module.parse_config(text) for text in texts]
        setup_s = time.monotonic() - args.launched_at
        probe = HostProbe()
        probe.sample()
        out = {"setup_s": probe.scaled(setup_s), "import_s": import_s, "wall": {"setup_s": setup_s}}
        if not args.setup_only:
            reports, errors = [], []
            if tracer is None:  # a probe inside a traced call would count as that call's time
                probe.start_timer()
            try:
                for config in configs:
                    try:
                        reports.append(runner.run(config).to_json())
                        errors.append(None)
                    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the pass goes on
                        reports.append(None)
                        errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                probe.stop_timer()
            probe.sample()
            out["wall"]["run_s"], out["run_s"] = probe.work()
            out["probe_s"] = statistics.median(sample[2] for sample in probe.samples)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out["reports"] = reports
            out["errors"] = errors
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(args.trace)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
