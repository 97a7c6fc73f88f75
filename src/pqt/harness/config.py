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
import itertools
import json
import math

import numpy as np

from .. import rng
from ..composite import CHSH_SOURCES, SIGNALLING_ACTIONS, non_dichotomic
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
    partial_trace,
    pauli_matrix,
    plus_state,
    random_pure_state,
)
from ..measurement import MODES, PROBABILITY_SUM_TOL, Observable
from ..protocols import MAX_ORACLE_BITS, PURE_AVERAGE_TOL, OracleSpec
from ..tomography import MAX_IC_DIMENSION

SEED_LIMIT = 2**64
COUNT_LIMIT = 10**9  # exclusive bound on shots, trials and follow-up shots

# Protocol-specific optional fields accepted on top of the common ones, each with the protocols that read it.
EXTRA_FIELDS = {
    "source": ("chsh",),
    "action": ("signalling",),
    "candidates": ("discriminate", "no-cloning"),
    "mixture": ("proper-vs-improper",),
    "purification": ("proper-vs-improper",),
    "oracle": ("deutsch-jozsa", "function-recovery"),
    "ensemble": ("joint-global",),
    "followup_observable": ("simulate-collapse",),
    "library": ("simulate-collapse",),
    "unitary": ("no-cloning",),
    "followup_shots": ("simulate-collapse",),
}

# Protocol extras that take one of a few JSON values (booleans are not numbers here).
CHOICES = {
    "source": CHSH_SOURCES,
    "action": SIGNALLING_ACTIONS,
    "ensemble": (True, False),
    "library": ("eigenstates",),
}

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
        oracle: OracleSpec | None = None,
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

    from .runner import PROTOCOLS  # late import: runner imports this module

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
            raise ConfigError(key, f"unknown field; protocol extras are {tuple(EXTRA_FIELDS)}")
        if raw["protocol"] not in EXTRA_FIELDS[key]:
            readers = ", ".join(map(repr, EXTRA_FIELDS[key]))
            raise ConfigError(key, f"protocol {raw['protocol']!r} does not read this field (read by {readers})")
    if "followup_shots" in extras:
        extras["followup_shots"] = read_integer(extras["followup_shots"], "followup_shots", 1, COUNT_LIMIT)
    for key, choices in CHOICES.items():
        if key in extras and not any(type(extras[key]) is type(c) and extras[key] == c for c in choices):
            raise ConfigError(key, f"must be one of {json.dumps(choices)}, got {json.dumps(extras[key])}")
    inputs = _resolve_inputs(raw["protocol"], spec, shape, raw.get("initial_state"), observables, extras, shots)

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
    """Resolve every input of a config once, refusing any that its protocol's runner could not use."""
    for key in spec.requires:
        if key not in extras:
            raise ConfigError(key, f"protocol {protocol!r} requires this field")
    if protocol == "proper-vs-improper" and ("mixture" in extras) == ("purification" in extras):
        raise ConfigError("mixture", f"protocol {protocol!r} needs exactly one of 'mixture' and 'purification'")

    resolved = tuple(resolve_observable(obs, f"observables[{i}]") for i, obs in enumerate(observables))
    targets, kind = spec.observables, spec.state
    if protocol == "signalling" and extras.get("action", "none") == "none":
        targets = (1,)  # only B's marginal is compared
    if protocol == "simulate-collapse" and "library" not in extras:
        kind = "bipartite"  # the replacement comes from a global reconstruction
    if len(resolved) < len(targets):
        raise ConfigError("observables", f"protocol {protocol!r} needs {len(targets)} observable(s), got {len(resolved)}")
    if protocol == "chsh":
        for i, obs in enumerate(resolved[: len(targets)]):
            offending = non_dichotomic(obs.eigenvalues)
            if offending:
                raise ConfigError(f"observables[{i}]", f"a CHSH correlator needs +-1 outcomes, got {offending[0]!r}")
    if kind is not None and spec.state_required and initial_state is None:
        raise ConfigError("initial_state", f"protocol {protocol!r} requires an initial state")
    followup = None
    if "followup_observable" in extras:
        followup = resolve_observable(extras["followup_observable"], "followup_observable")
    state = None
    if initial_state is not None:
        state = resolve_state(initial_state, shape, field="initial_state")
        if kind is not None:
            _check_state_kind(protocol, kind, state)
        for i, (obs, target) in enumerate(zip(resolved, targets)):
            _check_observable_dimension(f"observables[{i}]", obs, state, target)
        if followup is not None:
            _check_observable_dimension("followup_observable", followup, state, None)

    candidates = unitary = library = None
    if protocol == "discriminate":
        candidates = resolve_candidates(extras["candidates"], shape, dim=state.dim)
        for i, j in itertools.combinations(range(len(candidates)), 2):
            if candidates[i].ray_equal(candidates[j]):
                raise ConfigError(f"candidates[{j}]", f"is ray-equal to candidates[{i}]; candidates must be distinct")
    if protocol == "no-cloning":
        candidates = resolve_candidates(extras["candidates"], None, count=2)
        unitary = resolve_unitary(extras.get("unitary", "cnot"), candidates[0].dim)
    if "library" in extras:
        library = _eigenstate_library(resolved[0])
    return Inputs(
        state=state,
        observables=resolved,
        followup=followup,
        mixture=resolve_mixture(extras["mixture"]) if "mixture" in extras else None,
        purification=resolve_purification(extras["purification"], shape) if "purification" in extras else None,
        candidates=candidates,
        unitary=unitary,
        oracle=resolve_oracle(extras["oracle"], protocol == "deutsch-jozsa") if "oracle" in extras else None,
        library=library,
        followup_shots=extras.get("followup_shots", shots),
        **{key: extras[key] for key in ("source", "action", "ensemble") if key in extras},
    )


def _check_state_kind(protocol: str, kind: str, state: State) -> None:
    if kind in ("bipartite", "pure bipartite") and len(state.shape) != 2:
        reason = " without an eigenstate 'library'" if protocol == "simulate-collapse" else ""
        raise ConfigError(
            "shape", f"protocol {protocol!r}{reason} needs a bipartite state (two subsystem dimensions), got {state.shape}"
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


def resolve_mixture(entries, field: str = "mixture") -> tuple[tuple[StateVector, float], ...]:
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
    if not abs(total - 1.0) <= PROBABILITY_SUM_TOL:
        raise ConfigError(field, f"weights sum to {total!r}, expected 1")
    average = sum(weight * state.projector() for state, weight in mixture)
    if np.trace(average @ average).real >= 1.0 - PURE_AVERAGE_TOL:
        raise ConfigError(field, "the average state is pure: the presentations are indistinguishable")
    return tuple(mixture)


def resolve_purification(spec, shape: tuple[int, ...] | None, field: str = "purification") -> State:
    """Turn a purification spec into a bipartite state whose subsystem A is mixed."""
    state = resolve_state(spec, shape, field=field)
    if len(state.shape) != 2:
        raise ConfigError(field, f"must be a bipartite state, got shape {state.shape}")
    if partial_trace(state, keep=0).purity() >= 1.0 - PURE_AVERAGE_TOL:
        raise ConfigError(field, "the reduced state is pure: the presentations are indistinguishable")
    return state


def resolve_candidates(
    specs, shape: tuple[int, ...] | None, dim: int | None = None, count: int | None = None
) -> tuple[StateVector, ...]:
    """Turn ``candidates`` into ``count`` (default: two or more) pure states of dimension ``dim`` (default: the first's)."""
    expected = f"exactly {count}" if count else "at least two"
    if not isinstance(specs, list) or len(specs) < 2 or count not in (None, len(specs)):
        raise ConfigError("candidates", f"need {expected} states")
    states = []
    for i, spec in enumerate(specs):
        field = f"candidates[{i}]"
        state = resolve_state(spec, shape, field=field)
        if not isinstance(state, StateVector):
            raise ConfigError(field, "candidates must be pure states")
        dim = dim or state.dim
        if state.dim != dim:
            raise ConfigError(field, f"dimension {state.dim} differs from the expected {dim}")
        states.append(state)
    return tuple(states)


def resolve_oracle(spec, promise_required: bool = False) -> OracleSpec:
    """Turn ``{"n": ..., "truth_table": [bits], "promise": ...}`` into an OracleSpec."""
    if not isinstance(spec, dict) or "n" not in spec or "truth_table" not in spec:
        raise ConfigError("oracle", "expected an object with 'n' and 'truth_table'")
    refuse_unknown_keys(spec, ("n", "truth_table", "promise"), "oracle")
    n = spec["n"] = read_integer(spec["n"], "oracle.n", 1, MAX_ORACLE_BITS + 1)
    table = spec["truth_table"]
    if not isinstance(table, list) or len(table) != 2**n:
        raise ConfigError("oracle.truth_table", f"must be a list of {2**n} bits for n = {n}, got {table!r}")
    bits = tuple(read_integer(b, f"oracle.truth_table[{i}]", 0, 2) for i, b in enumerate(table))
    if promise_required and spec.get("promise") is None:
        raise ConfigError("oracle.promise", "the promise must be declared: 'constant' or 'balanced'")
    try:
        return OracleSpec(n, bits, spec.get("promise"))
    except ValueError as exc:  # every other check passed: the promise is unknown or contradicts the table
        raise ConfigError("oracle.promise", str(exc)) from exc


def _eigenstate_library(obs: Observable) -> dict[int, StateVector]:
    """The eigenstate that replaces the system after each outcome of a non-degenerate observable."""
    library = {}
    for index, projector in enumerate(obs.projectors):
        values, vectors = np.linalg.eigh(projector)
        if int(round(values.sum())) != 1:
            raise ConfigError("library", "eigenstate library needs a non-degenerate observable")
        library[index] = StateVector.normalized(vectors[:, -1])
    return library


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
        refuse_unknown_keys(spec, ("name", "matrix"), field)
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
