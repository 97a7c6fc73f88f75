"""Correctness checks for pqt reports, against references computed here.

Every check takes the generated config (a dict) and the report payload
(the parsed ``Report.to_json`` output) and returns a list of problems;
an empty list means the report is correct.  References are computed
with numpy from the config alone: states, observables and Born
probabilities are rebuilt here, not taken from the program.

Statistical checks allow ``Z`` standard deviations, wide enough to hold
on any seed; exact quantities are compared at ``EXACT_TOL``.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

Z = 6.0
EXACT_TOL = 1e-9
CONFIDENCE_Z = 1.96

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_BELL = {
    "phi+": [1, 0, 0, 1],
    "phi-": [1, 0, 0, -1],
    "psi+": [0, 1, 1, 0],
    "psi-": [0, 1, -1, 0],
}


# ---------------------------------------------------------------------------
# Reference states, observables and probabilities
# ---------------------------------------------------------------------------


def pauli(label: str) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for letter in label:
        out = np.kron(out, _PAULI[letter])
    return out


def _preset_random_pure(state_seed: int, dim: int) -> np.ndarray:
    """The ``random-pure:SEED`` preset: Philox keyed by (seed, SHA-256 of its path)."""
    index = int.from_bytes(hashlib.sha256(b"preset/random-pure").digest()[:8], "little")
    gen = np.random.Generator(np.random.Philox(key=[state_seed & (2**64 - 1), index]))
    amps = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return amps / np.linalg.norm(amps)


def state_vector(spec, dim: int = 2) -> np.ndarray:
    """Unit amplitude vector of a pure-state spec, for a state of dimension ``dim``."""
    if isinstance(spec, list):
        amps = np.array([complex(re, im) for re, im in spec])
        return amps / np.linalg.norm(amps)
    if spec == "plus":
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    kind, _, arg = spec.partition(":")
    if kind == "basis":
        out = np.zeros(dim, dtype=complex)
        out[int(arg)] = 1.0
        return out
    if kind == "bell":
        return np.array(_BELL[arg], dtype=complex) / np.sqrt(2.0)
    if kind == "random-pure":
        return _preset_random_pure(int(arg), dim)
    raise ValueError(f"no reference for state spec {spec!r}")


def config_dim(config: dict) -> int:
    if "shape" in config:
        return int(np.prod(config["shape"]))
    return int(config.get("dimension", 2))


def observable_matrix(spec) -> np.ndarray:
    if isinstance(spec, dict):
        matrix = np.array([[complex(re, im) for re, im in row] for row in spec["matrix"]])
        return (matrix + matrix.conj().T) / 2.0
    kind, _, arg = spec.partition(":")
    if kind == "pauli":
        return pauli(arg)
    if kind == "bloch":
        vector = np.array([float(c) for c in arg.split(",")])
        x, y, z = vector / np.linalg.norm(vector)
        return x * _PAULI["X"] + y * _PAULI["Y"] + z * _PAULI["Z"]
    raise ValueError(f"no reference for observable spec {spec!r}")


def outcomes(matrix: np.ndarray, tol: float = 1e-6) -> tuple[list[float], list[np.ndarray]]:
    """Distinct eigenvalues (ascending) and their eigenprojectors."""
    values, vectors = np.linalg.eigh(matrix)
    groups = [[0]]
    for i in range(1, values.size):
        if values[i] - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    eigenvalues = [float(values[g].mean()) for g in groups]
    projectors = [vectors[:, g] @ vectors[:, g].conj().T for g in groups]
    return eigenvalues, projectors


def born(psi: np.ndarray, projectors) -> np.ndarray:
    return np.array([np.vdot(psi, p @ psi).real for p in projectors])


def expectation(psi: np.ndarray, matrix: np.ndarray) -> float:
    return float(np.vdot(psi, matrix @ psi).real)


def project_to_physical(matrix: np.ndarray) -> np.ndarray:
    """Closest density matrix in Frobenius norm (spectrum onto the simplex)."""
    values, vectors = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    descending = np.sort(values)[::-1]
    cumulative = np.cumsum(descending)
    ranks = np.arange(1, values.size + 1)
    k = int(np.nonzero(descending + (1.0 - cumulative) / ranks > 0.0)[0][-1]) + 1
    shift = (1.0 - cumulative[k - 1]) / k
    return (vectors * np.clip(values + shift, 0.0, None)) @ vectors.conj().T


def fidelity_floor(dim: int, shots: int) -> float:
    """Lowest single-copy reconstruction fidelity the shot count allows.

    The linear-inversion error has squared Frobenius norm at most
    sum_k var_k / dim <= (dim^2 - 1) / (shots * dim) in expectation; the
    projection does not increase it, and 1 - F <= ||estimate - rho||_F.
    The factor 2 covers the fluctuation of the sum over dim^2 - 1 terms.
    """
    return 1.0 - np.sqrt(2.0 * (dim * dim - 1) / (shots * dim))


# ---------------------------------------------------------------------------
# Report access
# ---------------------------------------------------------------------------


def metric(payload: dict, name: str) -> float:
    for entry in payload["metrics"]:
        if entry["name"] == name:
            return entry["value"]
    raise KeyError(f"report has no metric {name!r}")


def _table(payload: dict, name: str) -> list[list]:
    return payload["tables"][name]["rows"]


def _close(problems: list[str], what: str, got, want, tol: float = EXACT_TOL) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.3g})")


def _counts_match(problems: list[str], what: str, count: int, shots: int, probability: float) -> None:
    """A sampled count against shots * p: exact zero for p = 0, else Z sigma plus a Poisson margin."""
    if probability <= 1e-12:
        if count != 0:
            problems.append(f"{what}: {count} hits on a zero-probability outcome")
        return
    mean = shots * probability
    sigma = np.sqrt(shots * probability * (1.0 - probability))
    if abs(count - mean) > Z * sigma + Z:
        problems.append(f"{what}: count {count}, expected {mean:.1f} +- {sigma:.1f}")


# ---------------------------------------------------------------------------
# Per-protocol checks
# ---------------------------------------------------------------------------


def _check_tomography(problems, psi: np.ndarray, payload: dict, shots: int) -> None:
    """Expectations against exact <psi|S|psi>, then fidelity and purity of the projected estimate."""
    dim = psi.size
    n_qubits = dim.bit_length() - 1
    rows = _table(payload, "expectations")
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n_qubits)][1:]
    if sorted(row[0] for row in rows) != sorted(labels):
        problems.append(f"expectations table does not list the {len(labels)} Pauli strings")
        return
    raw = np.eye(dim, dtype=complex)
    for label, mean, half_width in rows:
        matrix = pauli(label)
        exact = expectation(psi, matrix)
        sigma = np.sqrt((1.0 - exact**2 + 1.0 / shots) / shots)
        if abs(mean - exact) > Z * sigma:
            problems.append(f"<{label}>: mean {mean!r}, exact {exact!r} (sigma {sigma:.3g})")
        plus_count = (1.0 + mean) * shots / 2.0
        if abs(plus_count - round(plus_count)) > 1e-6:
            problems.append(f"<{label}>: mean {mean!r} is not a frequency over {shots} shots")
        _close(problems, f"<{label}> half-width", half_width, CONFIDENCE_Z * np.sqrt(max(1.0 - mean**2, 0.0) / shots))
        raw += mean * matrix
    estimate = project_to_physical(raw / dim)
    fidelity = metric(payload, "fidelity")
    purity = metric(payload, "purity")
    _close(problems, "fidelity of the projected estimate", fidelity, expectation(psi, estimate), 1e-8)
    _close(problems, "purity of the projected estimate", purity, float(np.trace(estimate @ estimate).real), 1e-8)
    if not fidelity >= fidelity_floor(dim, shots):
        problems.append(f"fidelity {fidelity!r} below the floor {fidelity_floor(dim, shots):.4f} for {shots} shots")


def check_reconstruct(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    psi = state_vector(config["initial_state"], config_dim(config))
    _check_tomography(problems, psi, payload, config["shots"])
    if payload["verdicts"].get("state_unchanged") is not True:
        problems.append("state_unchanged is not true")
    return problems


def _joint_check(problems, config, payload, probabilities, a_values, b_values) -> None:
    shots = config["shots"]
    rows = _table(payload, "joint_counts")
    cells = [(a, b) for a in a_values for b in b_values]
    if len(rows) != len(cells):
        problems.append(f"joint table has {len(rows)} cells, expected {len(cells)}")
        return
    total = 0
    for (a, b, count), (want_a, want_b), p in zip(rows, cells, probabilities.reshape(-1)):
        _close(problems, "outcome label a", a, want_a)
        _close(problems, "outcome label b", b, want_b)
        _counts_match(problems, f"cell ({want_a:+.3f}, {want_b:+.3f})", count, shots, p)
        total += count
    if total != shots:
        problems.append(f"joint counts sum to {total}, expected {shots}")
    if all(abs(abs(v) - 1.0) <= EXACT_TOL for v in (*a_values, *b_values)):
        empirical = sum(a * b * count for a, b, count in rows) / shots
        _close(problems, "correlator", metric(payload, "correlator"), empirical)


def _bipartite_setting(config):
    psi = state_vector(config["initial_state"], 4)
    a_values, a_proj = outcomes(observable_matrix(config["observables"][0]))
    b_values, b_proj = outcomes(observable_matrix(config["observables"][1]))
    return psi, a_values, a_proj, b_values, b_proj


def check_joint_local(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    psi, a_values, a_proj, b_values, b_proj = _bipartite_setting(config)
    eye = np.eye(2)
    marg_a = born(psi, [np.kron(p, eye) for p in a_proj])
    marg_b = born(psi, [np.kron(eye, q) for q in b_proj])
    _joint_check(problems, config, payload, np.outer(marg_a, marg_b), a_values, b_values)
    return problems


def check_joint_global(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    psi, a_values, a_proj, b_values, b_proj = _bipartite_setting(config)
    joint = np.array([[born(psi, [np.kron(p, q)])[0] for q in b_proj] for p in a_proj])
    _joint_check(problems, config, payload, joint, a_values, b_values)
    return problems


def check_chsh(config: dict, payload: dict) -> list[str]:
    psi = state_vector(config["initial_state"], 4)
    a1, a2, b1, b2 = (observable_matrix(spec) for spec in config["observables"])
    eye = np.eye(2)

    def correlation(a, b):
        if config.get("source", "global") == "global":
            return expectation(psi, np.kron(a, b))
        return expectation(psi, np.kron(a, eye)) * expectation(psi, np.kron(eye, b))

    exact = correlation(a1, b1) + correlation(a1, b2) + correlation(a2, b1) - correlation(a2, b2)
    problems: list[str] = []
    _close(problems, "CHSH S", metric(payload, "chsh_s"), exact, Z * 2.0 / np.sqrt(config["shots"]))
    return problems


def check_repeatability(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    rate = metric(payload, "agreement_rate")
    trials = config["trials"]
    if config.get("mode", "passive") == "quantum":
        if rate != 1.0:
            problems.append(f"quantum agreement rate {rate!r}, expected exactly 1")
        return problems
    psi = state_vector(config["initial_state"], config_dim(config))
    _, projectors = outcomes(observable_matrix(config["observables"][0]))
    probs = born(psi, projectors)
    exact = float(np.sum(probs**2))
    _close(problems, "passive agreement rate", rate, exact, Z * np.sqrt(exact * (1.0 - exact) / trials) + EXACT_TOL)
    agreements = rate * trials
    if abs(agreements - round(agreements)) > 1e-6:
        problems.append(f"agreement rate {rate!r} is not a frequency over {trials} trials")
    return problems


def check_function_recovery(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    oracle = config["oracle"]
    if payload["verdicts"].get("truth_table") != list(oracle["truth_table"]):
        problems.append(f"truth table {payload['verdicts'].get('truth_table')} != oracle {oracle['truth_table']}")
    if config.get("mode", "passive") == "passive":
        _close(problems, "oracle calls", metric(payload, "oracle_calls"), 1)
    elif not metric(payload, "oracle_calls_mean") >= 2 ** oracle["n"]:
        problems.append("quantum recovery used fewer oracle calls than there are inputs")
    return problems


def check_deutsch_jozsa(config: dict, payload: dict) -> list[str]:
    promise = config["oracle"]["promise"]
    verdict = payload["verdicts"].get("verdict")
    return [] if verdict == promise else [f"verdict {verdict!r}, promise {promise!r}"]


def check_teleportation(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    want = 1.0 if config.get("mode", "passive") == "quantum" else 0.5
    _close(problems, "teleportation fidelity", metric(payload, "average_fidelity"), want)
    return problems


def check_signalling(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    tv = metric(payload, "tv_distance")
    if not 0.0 <= tv <= 1e-12:
        problems.append(f"signalling TV distance {tv!r} exceeds 1e-12")
    psi = state_vector(config["initial_state"], 4)
    _, b_proj = outcomes(observable_matrix(config["observables"][-1]))
    marginal = born(psi, [np.kron(np.eye(2), q) for q in b_proj])
    for row, p in zip(_table(payload, "marginals"), marginal):
        _close(problems, "B marginal without action", row[1], p)
    return problems


def check_no_cloning(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    psi, phi = (state_vector(spec, 2) for spec in config["candidates"])
    overlap = np.vdot(psi, phi)
    _close(problems, "no-cloning obstruction", metric(payload, "obstruction"), abs(overlap - overlap**2))
    if payload["verdicts"].get("clones_both") is not False:
        problems.append("a unitary was reported to clone two non-orthogonal states")
    return problems


def check_proper_vs_improper(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    want = "proper" if "mixture" in config else "improper"
    if payload["verdicts"].get("verdict") != want:
        problems.append(f"verdict {payload['verdicts'].get('verdict')!r}, presentation is {want!r}")
    if len(_table(payload, "trials")) != config["trials"]:
        problems.append("trial log length differs from the trial count")
    purity = metric(payload, "mean_purity")
    if not 0.0 < purity <= 1.0 + EXACT_TOL:
        problems.append(f"mean purity {purity!r} outside (0, 1]")
    return problems


def check_spectrum(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    exact = np.linalg.eigvalsh(observable_matrix(config["observables"][0]))
    reported = [row[0] for row in _table(payload, "spectrum")]
    if len(reported) != exact.size:
        return [f"spectrum has {len(reported)} values, expected {exact.size}"]
    for got, want in zip(reported, exact):
        _close(problems, "eigenvalue", got, float(want))
    return problems


def check_discriminate(config: dict, payload: dict) -> list[str]:
    dim = config_dim(config)
    psi = state_vector(config["initial_state"], dim)
    scores = [abs(np.vdot(state_vector(spec, dim), psi)) ** 2 for spec in config["candidates"]]
    chosen = payload["verdicts"].get("chosen_index")
    return [] if chosen == int(np.argmax(scores)) else [f"chose candidate {chosen}, true one is {int(np.argmax(scores))}"]


def check_entanglement(config: dict, payload: dict) -> list[str]:
    psi = state_vector(config["initial_state"], 4).reshape(2, 2)
    reduced = psi @ psi.conj().T
    purity = float(np.trace(reduced @ reduced).real)
    want = "entangled" if purity <= 0.85 else "product" if purity >= 0.99 else None
    verdict = payload["verdicts"].get("verdict")
    if want is None:
        return [f"input purity {purity:.3f} is too close to the decision thresholds to check"]
    return [] if verdict == want else [f"verdict {verdict!r}, reduced purity {purity:.3f} means {want!r}"]


def check_clone(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    dim = config_dim(config)
    fidelity = metric(payload, "clone_fidelity")
    if not fidelity_floor(dim, config["shots"]) <= fidelity <= 1.0:
        problems.append(f"clone fidelity {fidelity!r} below the floor for {config['shots']} shots")
    if payload["verdicts"].get("original_unchanged") is not True:
        problems.append("original_unchanged is not true")
    if payload["verdicts"].get("clone_dim") != dim:
        problems.append("clone has the wrong dimension")
    return problems


def check_simulate_collapse(config: dict, payload: dict) -> list[str]:
    problems: list[str] = []
    values, _ = outcomes(observable_matrix(config["observables"][0]))
    outcome = payload["verdicts"].get("outcome")
    if not any(abs(outcome - v) <= EXACT_TOL for v in values):
        problems.append(f"outcome {outcome!r} is not an eigenvalue")
    shots = config["followup_shots"]
    followup_values, _ = outcomes(observable_matrix(config["followup_observable"]))
    # Two independent samples of one distribution: each frequency differs by
    # at most sqrt(2 * 1/4 / shots) per standard deviation.
    bound = 0.5 * len(followup_values) * Z * np.sqrt(0.5 / shots)
    tv = metric(payload, "followup_tv")
    if not 0.0 <= tv <= bound:
        problems.append(f"follow-up TV distance {tv!r} exceeds {bound:.4f}")
    return problems


CHECKS = {
    "chsh": check_chsh,
    "clone": check_clone,
    "deutsch-jozsa": check_deutsch_jozsa,
    "discriminate": check_discriminate,
    "entanglement": check_entanglement,
    "function-recovery": check_function_recovery,
    "joint-global": check_joint_global,
    "joint-local": check_joint_local,
    "no-cloning": check_no_cloning,
    "proper-vs-improper": check_proper_vs_improper,
    "reconstruct": check_reconstruct,
    "repeatability": check_repeatability,
    "signalling": check_signalling,
    "simulate-collapse": check_simulate_collapse,
    "spectrum": check_spectrum,
    "teleportation": check_teleportation,
}


def check(config: dict, payload: dict) -> list[str]:
    """Problems with one report; a malformed report is a problem too."""
    try:
        return CHECKS[config["protocol"]](config, payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
