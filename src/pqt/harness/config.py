"""Declarative experiment configuration.

Configs are JSON objects.  States and observables can be given as
presets (``"bell:phi+"``, ``"pauli:ZX"``) or explicitly: states as a
list of ``[re, im]`` amplitude pairs (renormalized on input), matrices
row-major with ``[re, im]`` entries (must be Hermitian within 1e-8).

This module reads what protocols share: common fields, shape, state and
observables.  Each record in ``runner.PROTOCOLS`` says what its protocol
reads of them and which extras, and owns the checks only it needs.

Validation failures raise :class:`ConfigError`, which names the
offending field and the violated constraint.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .. import rng
from ..hilbert import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    State,
    StateVector,
    UnitaryOperator,
    _Record,
    basis_state,
    bell_state,
    maximally_mixed,
    pauli_matrix,
    plus_state,
    random_pure_state,
)
from ..measurement import MODES, Observable
from ..tomography import MAX_IC_DIMENSION

SEED_LIMIT = 2**64
COUNT_LIMIT = 10**9  # exclusive bound on shots, trials and follow-up shots

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

class ConfigError(ValueError):
    """A configuration field violated a constraint."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field {field!r}: {message}")


def refuse_unknown_keys(spec: dict, known: tuple[str, ...], field: str) -> None:
    """Refuse the first key of the object ``field`` that is not in ``known``, naming it as ``field.key``."""
    for key in spec:
        if key not in known:
            raise ConfigError(f"{field}.{key}", f"unknown field; expected one of {known}")


def read_integer(value, field: str, low: int, high: float = math.inf) -> int:
    """Read an integral number in [low, high); strings, booleans and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ConfigError(field, f"must be an integer in [{low}, {high}), got {value!r}")
    return value


class Inputs(_Record):
    """A config's inputs as ``parse_config`` resolved them: states, observables and oracle (None where absent)
    and the protocol settings, with their defaults where the config leaves them out."""

    __slots__ = ("state", "observables", "followup", "mixture", "purification", "candidates", "unitary", "oracle")
    __slots__ += ("library", "source", "action", "ensemble", "followup_shots")

    def __init__(
        self,
        state: State | None = None,
        observables: tuple[Observable, ...] = (),
        followup: Observable | None = None,
        mixture: tuple[tuple[StateVector, float], ...] | None = None,
        purification: State | None = None,
        candidates: tuple[StateVector, ...] | None = None,
        unitary: UnitaryOperator | None = None,
        oracle=None,  # a protocols.OracleSpec
        library: dict[int, StateVector] | None = None,
        source: str = "global",
        action: str = "none",
        ensemble: bool = False,
        followup_shots: int = 0,  # parse_config sets the config's shots when the field is absent
    ):
        fields = (state, observables, followup, mixture, purification, candidates, unitary, oracle, library, source)
        _Record.__init__(self, *fields, action, ensemble, followup_shots)


class ExperimentConfig(_Record):
    """A validated experiment description: raw values (JSON-serializable) and the inputs resolved from them.

    Configs compare by their raw values; ``inputs`` is derived from them and is not compared.
    """

    __slots__ = ("name", "protocol", "mode", "shape", "initial_state", "observables", "shots", "trials", "seed")
    __slots__ += ("extras", "inputs")

    def __eq__(self, other) -> bool:
        return type(other) is ExperimentConfig and self._fields()[:-1] == other._fields()[:-1]

    def payload(self) -> dict:
        """A fresh dict of the raw values, the one ``to_json`` writes; nested values are the config's own."""
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
        return payload

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "expected a JSON object")

    from .runner import EXTRA_FIELDS, PROTOCOLS  # late import: runner imports this module

    for key in ("name", "protocol"):
        if key not in raw:
            raise ConfigError(key, "required field is missing")
    if not isinstance(raw["name"], str) or not raw["name"]:
        raise ConfigError("name", "must be a non-empty string")
    if raw["protocol"] not in PROTOCOLS:
        known = ", ".join(sorted(PROTOCOLS))
        raise ConfigError("protocol", f"unknown protocol {raw['protocol']!r}; known: {known}")

    spec = PROTOCOLS[raw["protocol"]][1]
    mode = raw.get("mode", "passive")
    check_mode(raw["protocol"], spec, mode, raw)

    shape = None
    if "shape" in raw and "dimension" in raw:
        raise ConfigError("dimension", "give 'shape' or 'dimension', not both")
    if "shape" in raw:
        entries = raw["shape"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("shape", "must be a non-empty list of subsystem dimensions")
        shape = tuple(read_integer(d, f"shape[{i}]", 2) for i, d in enumerate(entries))
    elif "dimension" in raw:
        shape = (read_integer(raw["dimension"], "dimension", 2),)
    field = "shape" if "shape" in raw else "dimension"
    if shape is not None and math.prod(shape) > MAX_IC_DIMENSION:
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
        if key not in spec.extras:
            readers = ", ".join(repr(name) for name in sorted(PROTOCOLS) if key in PROTOCOLS[name][1].extras)
            raise ConfigError(key, f"protocol {raw['protocol']!r} does not read this field (read by {readers})")
    for key, allowed in spec.extras.items():  # in the record's order; a boolean matches no number
        if allowed is int and key in extras:
            extras[key] = read_integer(extras[key], key, 1, COUNT_LIMIT)
        elif allowed and key in extras and not any(type(extras[key]) is type(c) and extras[key] == c for c in allowed):
            raise ConfigError(key, f"must be one of {json.dumps(allowed)}, got {json.dumps(extras[key])}")
    inputs = _resolve_inputs(raw["protocol"], spec, shape, raw.get("initial_state"), observables, extras, shots)
    if shape is not None and inputs.state is None and inputs.purification is None:  # the only states a shape shapes
        raise ConfigError(field, f"protocol {raw['protocol']!r} does not read this field: no state here takes a shape")

    fields = (raw["name"], raw["protocol"], mode, shape, raw.get("initial_state"), observables, shots, trials, seed)
    return ExperimentConfig(*fields, extras, inputs)


def check_mode(protocol: str, spec, mode, fields: dict) -> None:
    """Refuse a mode that the protocol (``spec`` is its ``runner.Protocol``) cannot run in; ``fields`` holds its extras."""
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}, got {mode!r}")
    if mode not in spec.modes:
        raise ConfigError("mode", f"protocol {protocol!r} runs in {' or '.join(spec.modes)} mode only, got {mode!r}")
    if mode == "quantum" and spec.quantum_needs and not fields.get(spec.quantum_needs):
        raise ConfigError("mode", f"protocol {protocol!r} needs {spec.quantum_needs!r} set to true in quantum mode")


def _resolve_inputs(
    protocol: str, spec, shape: tuple[int, ...] | None, initial_state, observables: list, extras: dict, shots: int
) -> Inputs:
    """Resolve every input of a config once, refusing any that its protocol's runner could not use or never reads."""
    for key in spec.requires:
        if key not in extras:
            raise ConfigError(key, f"protocol {protocol!r} requires this field")
    resolved = tuple(resolve_observable(obs, f"observables[{i}]") for i, obs in enumerate(observables))
    targets, kind, condition = spec.reads(spec, extras, resolved) if spec.reads else (spec.observables, spec.state, "")
    if len(resolved) < len(targets):
        raise ConfigError("observables", f"protocol {protocol!r} needs {len(targets)} observable(s), got {len(resolved)}")
    if len(resolved) > len(targets):
        field = f"observables[{len(targets)}]"
        raise ConfigError(field, f"protocol {protocol!r} reads {len(targets)} observable(s), got {len(resolved)}")
    if kind is not None and spec.state_required and initial_state is None:
        raise ConfigError("initial_state", f"protocol {protocol!r} requires an initial state")
    state = None
    if initial_state is not None:
        if kind is None:
            raise ConfigError("initial_state", f"protocol {protocol!r} does not read this field")
        state = resolve_state(initial_state, shape, field="initial_state")
        _check_state_kind(protocol, kind, condition, state)
        for i, (obs, target) in enumerate(zip(resolved, targets)):
            _check_observable_dimension(f"observables[{i}]", obs, state, target)
    # A count or a choice reaches the runner as given, unless the protocol's own inputs replace it.
    fields = {"followup_shots": shots, **{key: value for key, value in extras.items() if spec.extras[key]}}
    fields.update(spec.inputs(extras, shape, state, resolved) if spec.inputs else {})
    return Inputs(state, resolved, **fields)


def _check_state_kind(protocol: str, kind: str, condition: str, state: State) -> None:
    if kind in ("bipartite", "pure bipartite") and len(state.shape) != 2:
        raise ConfigError(
            "shape", f"protocol {protocol!r}{condition} needs a bipartite state (two subsystem dimensions), got {state.shape}"
        )
    if kind.startswith("pure") and not isinstance(state, StateVector):
        raise ConfigError("initial_state", f"protocol {protocol!r} needs a pure state")
    if kind == "pure qubit" and state.dim != 2:
        raise ConfigError("initial_state", f"protocol {protocol!r} needs a qubit state, got dimension {state.dim}")


def _check_observable_dimension(field: str, obs: Observable, state: State, target: int | None) -> None:
    if target is None:
        dim, part = state.dim, "state"
    else:
        dim, part = state.shape[target], f"subsystem {'AB'[target]}"
    if obs.dim != dim:
        raise ConfigError(field, f"observable dimension {obs.dim} does not match the {part} dimension {dim}")


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
            return StateVector(amps / norm, shape)
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
            letters = MAX_IC_DIMENSION.bit_length() - 1  # a string on n qubits is a 2^n x 2^n matrix
            if len(label) > letters:
                raise ConfigError(field, f"pauli label has {len(label)} letters, more than {letters}")
            try:
                return Observable(label, pauli_matrix(label))
            except ValueError as exc:
                raise ConfigError(field, str(exc)) from exc
        if spec.startswith("bloch:"):
            return _bloch_observable(spec, field)
        raise ConfigError(field, f"unknown observable preset {spec!r}")

    if isinstance(spec, dict):
        refuse_unknown_keys(spec, ("name", "matrix"), field)
        if "matrix" not in spec:
            raise ConfigError(field, "explicit observable needs a 'matrix' entry")
        if isinstance(spec["matrix"], list) and len(spec["matrix"]) > MAX_IC_DIMENSION:
            raise ConfigError(field, f"explicit observable has {len(spec['matrix'])} rows, more than {MAX_IC_DIMENSION}")
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
