"""Declarative experiment configuration.

Configs are JSON objects.  States and observables can be given as
presets (``"bell:phi+"``, ``"pauli:ZX"``) or explicitly: states as a
list of ``[re, im]`` amplitude pairs (renormalized on input), matrices
row-major with ``[re, im]`` entries (must be Hermitian within 1e-8).

Validation failures raise :class:`ConfigError`, which names the
offending field and the violated constraint.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .. import rng
from ..hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    State,
    StateVector,
    UnitaryOperator,
    basis_state,
    bell_state,
    maximally_mixed,
    partial_trace,
    pauli_matrix,
    plus_state,
    random_pure_state,
)
from ..measurement import Observable
from ..protocols import MAX_ORACLE_BITS, PURE_AVERAGE_TOL
from ..tomography import MAX_IC_DIMENSION

MODES = ("quantum", "passive")
SEED_LIMIT = 2**64
COUNT_LIMIT = 10**9  # exclusive bound on shots, trials and follow-up shots

# Protocol-specific optional fields accepted on top of the common ones.
EXTRA_FIELDS = (
    "source",
    "action",
    "candidates",
    "mixture",
    "purification",
    "oracle",
    "ensemble",
    "followup_observable",
    "library",
    "unitary",
    "followup_shots",
)

_COMMON_FIELDS = (
    "name",
    "protocol",
    "mode",
    "shape",
    "dimension",
    "initial_state",
    "observables",
    "shots",
    "trials",
    "seed",
)

_CNOT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))

# What each observable a protocol reads acts on: None for the whole state,
# 0 or 1 for that subsystem of a bipartite state.
_OBSERVABLE_TARGETS = {
    "repeatability": (None,),
    "spectrum": (None,),
    "simulate-collapse": (None,),
    "joint-global": (0, 1),
    "joint-local": (0, 1),
    "chsh": (0, 0, 1, 1),
    "signalling": (0, 1),
}


class ConfigError(ValueError):
    """A configuration field violated a constraint."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


def read_integer(value, field: str, low: int, high: float = math.inf) -> int:
    """Read an integral number in [low, high); strings, booleans and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ConfigError(field, f"must be an integer in [{low}, {high}), got {value!r}")
    return value


@dataclass
class ExperimentConfig:
    """A validated experiment description (raw values, JSON-serializable)."""

    name: str
    protocol: str
    mode: str = "passive"
    shape: tuple[int, ...] | None = None
    initial_state: object = None
    observables: list = dataclass_field(default_factory=list)
    shots: int = 10_000
    trials: int = 1
    seed: int = 42
    extras: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "protocol": self.protocol,
            "mode": self.mode,
            "initial_state": self.initial_state,
            "observables": self.observables,
            "shots": self.shots,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.shape is not None:
            payload["shape"] = list(self.shape)
        payload.update(self.extras)
        return json.dumps(payload, sort_keys=True, indent=2)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "expected a JSON object")

    from .runner import PROTOCOLS  # late import: runner imports this module

    for key in ("name", "protocol"):
        if key not in raw:
            raise ConfigError(key, "required field is missing")
    if not isinstance(raw["name"], str) or not raw["name"]:
        raise ConfigError("name", "must be a non-empty string")
    if raw["protocol"] not in PROTOCOLS:
        known = ", ".join(sorted(PROTOCOLS))
        raise ConfigError("protocol", f"unknown protocol {raw['protocol']!r}; known: {known}")

    mode = raw.get("mode", "passive")
    check_mode(raw["protocol"], mode, raw)

    shape = None
    if "shape" in raw:
        entries = raw["shape"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("shape", "must be a non-empty list of subsystem dimensions")
        shape = tuple(read_integer(d, f"shape[{i}]", 2) for i, d in enumerate(entries))
    elif "dimension" in raw:
        shape = (read_integer(raw["dimension"], "dimension", 2),)
    if shape is not None and math.prod(shape) > MAX_IC_DIMENSION:
        field = "shape" if "shape" in raw else "dimension"
        raise ConfigError(field, f"state dimension {math.prod(shape)} is outside the supported range 2..{MAX_IC_DIMENSION}")

    shots = read_integer(raw.get("shots", 10_000), "shots", 1, COUNT_LIMIT)
    trials = read_integer(raw.get("trials", 1), "trials", 1, COUNT_LIMIT)
    seed = read_integer(raw.get("seed", 42), "seed", 0, SEED_LIMIT)

    observables = raw.get("observables", [])
    if not isinstance(observables, list):
        raise ConfigError("observables", "must be a list")

    extras = {k: raw[k] for k in raw if k not in _COMMON_FIELDS}
    for key in extras:
        if key not in EXTRA_FIELDS:
            raise ConfigError(key, f"unknown field; protocol extras are {EXTRA_FIELDS}")
    if "followup_shots" in extras:
        extras["followup_shots"] = read_integer(extras["followup_shots"], "followup_shots", 1, COUNT_LIMIT)
    oracle = extras.get("oracle")
    if isinstance(oracle, dict) and "n" in oracle:
        oracle["n"] = read_integer(oracle["n"], "oracle.n", 1, MAX_ORACLE_BITS + 1)

    config = ExperimentConfig(
        name=raw["name"],
        protocol=raw["protocol"],
        mode=mode,
        shape=shape,
        initial_state=raw.get("initial_state"),
        observables=observables,
        shots=shots,
        trials=trials,
        seed=seed,
        extras=extras,
    )

    # Validate resolvable pieces eagerly so diagnostics appear before a run.
    resolved = [resolve_observable(spec, f"observables[{i}]") for i, spec in enumerate(observables)]
    followup = None
    if "followup_observable" in extras:
        followup = resolve_observable(extras["followup_observable"], "followup_observable")
    if "mixture" in extras:
        resolve_mixture(extras["mixture"])
    if "purification" in extras:
        resolve_purification(extras["purification"], shape)
    if config.protocol == "no-cloning":
        resolve_cloning_test(extras)
    if config.initial_state is not None:
        state = resolve_state(config.initial_state, shape, field="initial_state")
        targets = _OBSERVABLE_TARGETS.get(config.protocol, ())
        if config.protocol == "signalling" and extras.get("action", "none") == "none":
            targets = (1,)
        for i, (obs, target) in enumerate(zip(resolved, targets)):
            _check_observable_dimension(f"observables[{i}]", obs, state, target)
        if config.protocol == "simulate-collapse" and followup is not None:
            _check_observable_dimension("followup_observable", followup, state, None)
    return config


def check_mode(protocol: str, mode, fields: dict) -> None:
    """Refuse a mode that the protocol cannot run in; ``fields`` holds the config's extras."""
    from .runner import PROTOCOLS  # late import: runner imports this module

    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}, got {mode!r}")
    spec = PROTOCOLS[protocol][1]
    if mode not in spec.modes:
        raise ConfigError("mode", f"protocol {protocol!r} runs in {' or '.join(spec.modes)} mode only, got {mode!r}")
    if mode == "quantum" and spec.quantum_needs and not fields.get(spec.quantum_needs):
        raise ConfigError("mode", f"protocol {protocol!r} needs {spec.quantum_needs!r} set to true in quantum mode")


def _check_observable_dimension(field: str, obs: Observable, state: State, target: int | None) -> None:
    if target is None:
        dim, part = state.dim, "state"
    elif len(state.shape) == 2:
        dim, part = state.shape[target], f"subsystem {'AB'[target]}"
    else:
        return  # the runner rejects the non-bipartite shape
    if obs.dim != dim:
        raise ConfigError(field, f"observable dimension {obs.dim} does not match the {part} dimension {dim}")


def _state_shape(dim: int, shape: tuple[int, ...] | None, field: str) -> tuple[int, ...] | None:
    if shape is None:
        return None
    if int(np.prod(shape)) != dim:
        raise ConfigError(field, f"shape {shape} does not match the state dimension {dim}")
    return shape


def resolve_state(spec, shape: tuple[int, ...] | None = None, field: str = "initial_state") -> State:
    """Turn a state spec (preset name or amplitude pairs) into a state."""
    if isinstance(spec, str):
        if spec == "plus":
            n_qubits = len(shape) if shape is not None else 1
            if shape is not None and any(d != 2 for d in shape):
                raise ConfigError(field, "'plus' needs qubit subsystems")
            return plus_state(n_qubits)
        if spec.startswith("basis:"):
            index = _preset_integer(spec, field)
            dim = int(np.prod(shape)) if shape is not None else 2
            if not 0 <= index < dim:
                raise ConfigError(field, f"basis index {index} out of range for dimension {dim}")
            return basis_state(dim, index, shape)
        if spec.startswith("bell:"):
            if shape is not None and shape != (2, 2):
                raise ConfigError(field, f"Bell states live on shape (2, 2), config says {shape}")
            which = spec.split(":", 1)[1]
            try:
                return bell_state(which)
            except ValueError as exc:
                raise ConfigError(field, str(exc)) from exc
        if spec == "maximally-mixed":
            dim = int(np.prod(shape)) if shape is not None else 2
            return maximally_mixed(dim, shape)
        if spec.startswith("random-pure:"):
            state_seed = _preset_integer(spec, field)
            dim = int(np.prod(shape)) if shape is not None else 2
            return random_pure_state(dim, rng.stream(state_seed, "preset/random-pure"), shape)
        raise ConfigError(field, f"unknown state preset {spec!r}")

    if isinstance(spec, list):
        if len(spec) > MAX_IC_DIMENSION:
            raise ConfigError(field, f"explicit state has {len(spec)} amplitudes, more than {MAX_IC_DIMENSION}")
        try:
            amps = np.array([complex(re, im) for re, im in spec])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(field, f"explicit state must be a list of [re, im] pairs ({exc})") from exc
        if not np.isfinite(amps).all():
            raise ConfigError(field, "explicit state amplitudes must be finite")
        with _checked_arithmetic(field):
            norm = float(np.linalg.norm(amps))
        if norm <= 1e-6:
            raise ConfigError(field, "explicit state has (near-)zero norm and cannot be normalized")
        try:
            return StateVector(amps / norm, _state_shape(amps.size, shape, field))
        except ValueError as exc:
            raise ConfigError(field, str(exc)) from exc
    raise ConfigError(field, f"cannot interpret {type(spec).__name__} as a state")


@contextlib.contextmanager
def _checked_arithmetic(field: str):
    """Refuse config numbers whose arithmetic overflows, with a ConfigError instead of a numpy warning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(field, f"values are out of range ({exc})") from None


def _preset_integer(spec: str, field: str) -> int:
    """The integer after the colon of a preset such as ``"basis:1"``."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ConfigError(field, f"preset {spec!r} needs an integer after the colon") from None


def resolve_mixture(entries, field: str = "mixture") -> list[tuple[StateVector, float]]:
    """Turn ``[[state, weight], ...]`` into pure states of one dimension with weights summing to 1."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError(field, "must be a non-empty list of [state, weight] pairs")
    mixture = []
    for i, entry in enumerate(entries):
        name = f"{field}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(name, "must be a [state, weight] pair")
        spec, weight = entry
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not 0.0 <= weight <= 1.0:
            raise ConfigError(name, f"weight must be a number in [0, 1], got {weight!r}")
        state = resolve_state(spec, None, field=name)
        if not isinstance(state, StateVector):
            raise ConfigError(name, "mixture members must be pure states")
        if mixture and state.dim != mixture[0][0].dim:
            raise ConfigError(name, f"dimension {state.dim} differs from the first member's {mixture[0][0].dim}")
        mixture.append((state, float(weight)))
    total = math.fsum(weight for _, weight in mixture)
    if not abs(total - 1.0) <= 1e-9:
        raise ConfigError(field, f"weights sum to {total!r}, expected 1")
    average = sum(weight * state.projector() for state, weight in mixture)
    if np.trace(average @ average).real >= 1.0 - PURE_AVERAGE_TOL:
        raise ConfigError(field, "the average state is pure: the presentations are indistinguishable")
    return mixture


def resolve_purification(spec, shape: tuple[int, ...] | None, field: str = "purification") -> State:
    """Turn a purification spec into a bipartite state whose subsystem A is mixed."""
    state = resolve_state(spec, shape, field=field)
    if len(state.shape) != 2:
        raise ConfigError(field, f"must be a bipartite state, got shape {state.shape}")
    if partial_trace(state, keep=0).purity() >= 1.0 - PURE_AVERAGE_TOL:
        raise ConfigError(field, "the reduced state is pure: the presentations are indistinguishable")
    return state


def resolve_cloning_test(extras: dict) -> tuple[StateVector, StateVector, UnitaryOperator]:
    """The two test states of a ``no-cloning`` config and its candidate cloning unitary."""
    specs = extras.get("candidates")
    if not isinstance(specs, list) or len(specs) != 2:
        raise ConfigError("candidates", "need exactly two test states")
    states = []
    for i, spec in enumerate(specs):
        state = resolve_state(spec, None, field=f"candidates[{i}]")
        if not isinstance(state, StateVector):
            raise ConfigError(f"candidates[{i}]", "test states must be pure")
        states.append(state)
    psi, phi = states
    if phi.dim != psi.dim:
        raise ConfigError("candidates[1]", f"dimension {phi.dim} differs from the first test state's {psi.dim}")
    return psi, phi, resolve_unitary(extras.get("unitary", "cnot"), psi.dim)


def resolve_unitary(spec, dim: int, field: str = "unitary") -> UnitaryOperator:
    """Turn ``"cnot"`` or a row-major matrix of ``[re, im]`` pairs into a unitary on two copies of C^dim."""
    if spec == "cnot":
        if dim != 2:
            raise ConfigError(field, "the 'cnot' preset needs qubit test states")
        return UnitaryOperator(np.array(_CNOT, dtype=complex))
    try:
        matrix = np.array([[complex(re, im) for re, im in row] for row in spec])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field, f"must be 'cnot' or matrix rows of [re, im] pairs ({exc})") from exc
    side = dim * dim
    if matrix.shape != (side, side):
        raise ConfigError(field, f"must be {side} x {side}, acting on two copies of the test states; got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ConfigError(field, "matrix entries must be finite")
    with _checked_arithmetic(field):
        try:
            return UnitaryOperator(matrix)
        except ValueError as exc:
            raise ConfigError(field, str(exc)) from exc


def _bloch_observable(spec: str, field: str) -> Observable:
    parts = spec.split(":", 1)[1].split(",")
    if len(parts) != 3:
        raise ConfigError(field, "bloch observable needs three components, e.g. 'bloch:1,0,1'")
    try:
        vector = np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(field, f"bloch components must be numbers, got {spec!r}") from None
    with _checked_arithmetic(field):
        norm = float(np.linalg.norm(vector))
    if not 1e-6 < norm < math.inf:
        raise ConfigError(field, f"bloch vector needs a finite norm above 1e-6, got {norm!r}")
    x, y, z = vector / norm
    return Observable(spec, x * PAULI_X + y * PAULI_Y + z * PAULI_Z)


def resolve_observable(spec, field: str = "observables[0]") -> Observable:
    """Turn an observable spec (preset name or explicit matrix) into an Observable."""
    if isinstance(spec, str):
        if spec.startswith("pauli:"):
            label = spec.split(":", 1)[1]
            try:
                return Observable(label, pauli_matrix(label))
            except ValueError as exc:
                raise ConfigError(field, str(exc)) from exc
        if spec.startswith("bloch:"):
            return _bloch_observable(spec, field)
        raise ConfigError(field, f"unknown observable preset {spec!r}")

    if isinstance(spec, dict):
        if "matrix" not in spec:
            raise ConfigError(field, "explicit observable needs a 'matrix' entry")
        try:
            matrix = np.array([[complex(re, im) for re, im in row] for row in spec["matrix"]])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(field, f"matrix rows must be lists of [re, im] pairs ({exc})") from exc
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigError(field, "matrix must be square")
        if not np.isfinite(matrix).all():
            raise ConfigError(field, "matrix entries must be finite")
        with _checked_arithmetic(field):
            if np.abs(matrix - matrix.conj().T).max() > 1e-8:
                raise ConfigError(field, "matrix is not Hermitian (tolerance 1e-8)")
            matrix = (matrix + matrix.conj().T) / 2.0
            try:
                return Observable(str(spec.get("name", field)), matrix)
            except ValueError as exc:
                raise ConfigError(field, str(exc)) from exc
    raise ConfigError(field, f"cannot interpret {type(spec).__name__} as an observable")
