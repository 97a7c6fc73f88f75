"""Span tracing of pqt from outside the package.

:class:`Tracer` wraps every public function of every loaded ``pqt``
module, at every place where the function is looked up (a function
imported by name into another module is replaced there too), plus the
value-type constructors, ``OutcomeDistribution.sample_indices``,
``Report.to_json`` and the protocol runners in ``runner.PROTOCOLS``.

Each call records one span: name, start, end and the span that was open
when it began.  Spans stay in memory; :meth:`Tracer.summary` turns them
into per-name call counts and self times (a span's duration minus the
time its child spans cover) and :meth:`Tracer.write` saves them once.
Leaving the ``with`` block restores every wrapped name.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

import numpy as np

# Classes whose constructor, or one method, is traced: (module, class, method, span name).
TRACED_METHODS = (
    ("pqt.hilbert", "StateVector", "__init__", "hilbert.StateVector"),
    ("pqt.hilbert", "DensityOperator", "__init__", "hilbert.DensityOperator"),
    ("pqt.hilbert", "UnitaryOperator", "__init__", "hilbert.UnitaryOperator"),
    ("pqt.hilbert", "SpectralDecomposition", "__init__", "hilbert.SpectralDecomposition"),
    ("pqt.measurement", "Observable", "__init__", "measurement.Observable"),
    ("pqt.measurement", "OutcomeDistribution", "__init__", "measurement.OutcomeDistribution"),
    ("pqt.measurement", "OutcomeDistribution", "sample_indices", "measurement.sample_indices"),
    ("pqt.measurement", "MeasurementRecord", "__init__", "measurement.MeasurementRecord"),
    ("pqt.measurement", "PSystem", "__init__", "measurement.PSystem"),
    ("pqt.composite", "JointFrequencyTable", "__init__", "composite.JointFrequencyTable"),
    ("pqt.harness.report", "Report", "to_json", "harness.report.to_json"),
)

# IC-set factories and the (kind, dimension) pair each call builds.
IC_FACTORIES = {
    "tomography.pauli_ic_set": lambda args, kwargs: ("pauli", 2 ** _arg(args, kwargs, 0, "n_qubits")),
    "tomography.hermitian_basis_ic_set": lambda args, kwargs: ("gell-mann", _arg(args, kwargs, 0, "dim")),
}


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _short(module_name: str) -> str:
    return module_name[len("pqt.") :] if module_name.startswith("pqt.") else module_name


def _pqt_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items()) if name == "pqt" or name.startswith("pqt.")]


class Tracer:
    """Wraps pqt's public callables while active and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.ic_builds: list[tuple[str, int]] = []
        self.patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count(self, key: str, position: int, arg_name: str):
        def after(args, kwargs, result):
            self.counters[key] += int(_arg(args, kwargs, position, arg_name))

        return after

    def _after(self, name: str):
        if name in IC_FACTORIES:
            return lambda args, kwargs, result: self.ic_builds.append(IC_FACTORIES[name](args, kwargs))
        if name == "measurement.sample_indices":
            return self._count("measurement.sample_indices.draws", 2, "n")
        if name == "measurement.repeated_measure":
            return self._count("measurement.repeated_measure.shots", 2, "n")
        if name == "harness.report.to_json":
            return lambda args, kwargs, result: self.counters.update({"harness.report.bytes": len(result.encode())})
        return None

    def _patch(self, holder, key: str, value) -> None:
        if isinstance(holder, dict):
            self.patches.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self.patches.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, value)

    def install(self) -> None:
        modules = _pqt_modules()
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in vars(module).items():
                if isinstance(value, types.FunctionType) and not attr.startswith("_") and value.__module__ == module.__name__:
                    name = f"{_short(module.__name__)}.{attr}"
                    wrappers[id(value)] = self._wrap(name, value, self._after(name))
        # Replace each function wherever a module holds it, under any name.
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and isinstance(value, types.FunctionType):
                    self._patch(module, attr, wrappers[id(value)])
        for module_name, class_name, method, name in TRACED_METHODS:
            cls = getattr(sys.modules[module_name], class_name)
            self._patch(cls, method, self._wrap(name, cls.__dict__[method], self._after(name)))
        protocols = sys.modules["pqt.harness.runner"].PROTOCOLS
        for key, (runner, description) in list(protocols.items()):
            self._patch(protocols, key, (self._wrap(f"harness.runner.{key}", runner), description))

    def restore(self) -> None:
        for holder, key, original in reversed(self.patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self.patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- results --------------------------------------------------------------

    def _arrays(self):
        names = np.asarray(self.span_name, dtype=np.int64)
        parents = np.asarray(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested], minlength=duration.size)
        return names, parents, duration, duration - child_time

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``self_s``; plus the recorded counters."""
        names, _, _, self_time = self._arrays()
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self_time, minlength=len(self.names))
        out = {name: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, name in enumerate(self.names)}
        out["counters"] = dict(self.counters)
        out["ic_builds"] = {"calls": len(self.ic_builds), "distinct": len(set(self.ic_builds))}
        return out

    def write(self, path) -> None:
        """Save every span (name, parent, start, end) as one compressed numpy archive."""
        names, parents, _, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            span_name=names,
            span_parent=parents,
            span_start=np.asarray(self.span_start),
            span_end=np.asarray(self.span_end),
        )
