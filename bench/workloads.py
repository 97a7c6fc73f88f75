"""Workload inputs for the pqt benchmark, generated from a workload seed.

Each workload is a list of experiment configs (plain dicts, serialised to
JSON before they reach the program).  The same ``(workload, seed)`` pair
always yields the same configs: every random choice is drawn from a
numpy generator keyed by the seed and the workload name.

- ``reconstruct-6q``: one ``reconstruct`` run on a random 6-qubit pure
  state, 1000 shots per Pauli string (4095 strings).
- ``passive-sampling``: passive runs on dimension <= 4 at 10^6 to 10^7
  shots per call: ``reconstruct`` on two qubits, ``joint-local``,
  ``chsh`` with a global source and passive ``repeatability``.
- ``protocol-loops``: the 16 configs shipped in ``configs/`` (copied
  below, seeds drawn from the workload seed) plus scaled per-trial
  variants: quantum ``repeatability`` and ``function-recovery``,
  ``proper-vs-improper`` with a mixture and with a purification, and
  quantum ``teleportation``.
"""

from __future__ import annotations

import copy
import zlib

import numpy as np

# The configs in configs/ as shipped; only "seed" is replaced per run.
SHIPPED_CONFIGS = (
    {
        "name": "chsh-tsirelson",
        "protocol": "chsh",
        "mode": "passive",
        "initial_state": "bell:phi+",
        "observables": ["pauli:Z", "pauli:X", "bloch:1,0,1", "bloch:-1,0,1"],
        "source": "global",
        "shots": 100000,
    },
    {"name": "clone-plus", "protocol": "clone", "mode": "passive", "initial_state": "plus", "shots": 10000},
    {
        "name": "deutsch-jozsa-balanced",
        "protocol": "deutsch-jozsa",
        "mode": "quantum",
        "oracle": {"n": 2, "truth_table": [0, 1, 1, 0], "promise": "balanced"},
    },
    {
        "name": "discriminate-zero-vs-plus",
        "protocol": "discriminate",
        "mode": "passive",
        "shape": [2],
        "initial_state": "basis:0",
        "candidates": ["basis:0", "plus"],
        "shots": 10000,
    },
    {"name": "entanglement-bell", "protocol": "entanglement", "mode": "passive", "initial_state": "bell:phi+", "shots": 10000},
    {
        "name": "function-recovery-n2",
        "protocol": "function-recovery",
        "mode": "passive",
        "oracle": {"n": 2, "truth_table": [0, 0, 1, 1]},
        "shots": 10000,
    },
    {
        "name": "joint-global-bell-zz",
        "protocol": "joint-global",
        "mode": "passive",
        "initial_state": "bell:phi+",
        "observables": ["pauli:Z", "pauli:Z"],
        "shots": 10000,
    },
    {
        "name": "joint-local-bell-zz",
        "protocol": "joint-local",
        "mode": "passive",
        "initial_state": "bell:phi+",
        "observables": ["pauli:Z", "pauli:Z"],
        "shots": 100000,
    },
    {"name": "no-cloning-cnot", "protocol": "no-cloning", "candidates": ["basis:0", "plus"], "unitary": "cnot"},
    {
        "name": "proper-mixture",
        "protocol": "proper-vs-improper",
        "mode": "passive",
        "mixture": [["basis:0", 0.5], ["plus", 0.5]],
        "trials": 50,
        "shots": 10000,
    },
    {
        "name": "reconstruct-random-qubit",
        "protocol": "reconstruct",
        "mode": "passive",
        "initial_state": "random-pure:7",
        "shots": 10000,
    },
    {
        "name": "rep",
        "protocol": "repeatability",
        "mode": "passive",
        "initial_state": "plus",
        "observables": ["pauli:Z"],
        "shots": 1,
        "trials": 100000,
    },
    {
        "name": "signalling-bell",
        "protocol": "signalling",
        "mode": "passive",
        "initial_state": "bell:phi+",
        "action": "quantum-measure-nonselective",
        "observables": ["pauli:Z", "pauli:X"],
    },
    {
        "name": "simulate-collapse-qubit",
        "protocol": "simulate-collapse",
        "mode": "passive",
        "initial_state": "plus",
        "observables": ["pauli:Z"],
        "library": "eigenstates",
        "followup_observable": "pauli:X",
        "followup_shots": 10000,
    },
    {
        "name": "spectrum-qutrit",
        "protocol": "spectrum",
        "mode": "passive",
        "initial_state": [[1, 0], [1, 0], [1, 0]],
        "observables": [
            {
                "name": "H3",
                "matrix": [
                    [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
                    [[0.5, 0.0], [2.0, 0.0], [0.3, 0.0]],
                    [[0.0, 0.0], [0.3, 0.0], [3.0, 0.0]],
                ],
            }
        ],
        "shots": 1000,
    },
    {
        "name": "teleportation-passive",
        "protocol": "teleportation",
        "mode": "passive",
        "initial_state": "random-pure:3",
        "trials": 10,
    },
)

# Purity ceilings that keep generated mixtures and purifications far from
# the proper/improper decision threshold on every seed.
MAX_AVERAGE_PURITY = 0.75


def _generator(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode("utf-8"))])


def _seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**63))


def _amplitude_pairs(vector: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in vector]


def _matrix_entries(matrix: np.ndarray) -> list[list[list[float]]]:
    return [_amplitude_pairs(row) for row in matrix]


def random_pure(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unit vector."""
    amps = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_bloch(gen: np.random.Generator) -> str:
    """A ``bloch:x,y,z`` observable along a uniformly random direction."""
    vector = gen.normal(size=3)
    x, y, z = (float(c) for c in vector / np.linalg.norm(vector))
    return f"bloch:{x!r},{y!r},{z!r}"


def random_observable(gen: np.random.Generator, dim: int, name: str) -> dict:
    """Explicit Hermitian matrix with ``dim`` eigenvalues at least 0.5 apart."""
    values = np.arange(dim) - (dim - 1) / 2.0 + gen.uniform(-0.2, 0.2, size=dim)
    q, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    matrix = (q * values) @ q.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    return {"name": name, "matrix": _matrix_entries(matrix)}


def _distinct_pure_states(gen: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """Random pure states with pairwise fidelity at most 1/2."""
    while True:
        states = [random_pure(gen, dim) for _ in range(count)]
        overlaps = [abs(np.vdot(a, b)) ** 2 for i, a in enumerate(states) for b in states[i + 1 :]]
        if max(overlaps) <= 0.5:
            return states


def _mixture(gen: np.random.Generator, dim: int, count: int) -> list:
    """Mixture entries whose average state has purity <= MAX_AVERAGE_PURITY."""
    while True:
        states = _distinct_pure_states(gen, dim, count)
        weights = gen.uniform(0.5, 1.0, size=count)
        weights = weights / weights.sum()
        average = sum(w * np.outer(s, s.conj()) for s, w in zip(states, weights))
        if np.trace(average @ average).real <= MAX_AVERAGE_PURITY:
            break
    weights = [float(w) for w in weights[:-1]]
    weights.append(1.0 - sum(weights))
    return [[_amplitude_pairs(s), w] for s, w in zip(states, weights)]


def _purification(gen: np.random.Generator, dim: int) -> np.ndarray:
    """A pure state on C^dim x C^dim whose reduced state has purity <= MAX_AVERAGE_PURITY."""
    while True:
        schmidt = gen.uniform(0.2, 1.0, size=dim)
        schmidt = schmidt / schmidt.sum()
        if float(np.sum(schmidt**2)) <= MAX_AVERAGE_PURITY:
            break
    qa, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    qb, _ = np.linalg.qr(gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim)))
    return sum(np.sqrt(schmidt[i]) * np.kron(qa[:, i], qb[:, i]) for i in range(dim))


def reconstruct_6q(seed: int) -> list[dict]:
    gen = _generator("reconstruct-6q", seed)
    return [
        {
            "name": "reconstruct-6q",
            "protocol": "reconstruct",
            "mode": "passive",
            "shape": [2] * 6,
            "initial_state": _amplitude_pairs(random_pure(gen, 64)),
            "shots": 1000,
            "seed": _seed(gen),
        }
    ]


def passive_sampling(seed: int) -> list[dict]:
    gen = _generator("passive-sampling", seed)
    return [
        {
            "name": "reconstruct-2q",
            "protocol": "reconstruct",
            "mode": "passive",
            "shape": [2, 2],
            "initial_state": _amplitude_pairs(random_pure(gen, 4)),
            "shots": 1_000_000,
            "seed": _seed(gen),
        },
        {
            "name": "joint-local-2q",
            "protocol": "joint-local",
            "mode": "passive",
            "shape": [2, 2],
            "initial_state": _amplitude_pairs(random_pure(gen, 4)),
            "observables": [random_bloch(gen), random_bloch(gen)],
            "shots": 10_000_000,
            "seed": _seed(gen),
        },
        {
            "name": "chsh-global",
            "protocol": "chsh",
            "mode": "passive",
            "source": "global",
            "shape": [2, 2],
            "initial_state": _amplitude_pairs(random_pure(gen, 4)),
            "observables": [random_bloch(gen) for _ in range(4)],
            "shots": 1_000_000,
            "seed": _seed(gen),
        },
        {
            "name": "repeatability-passive-d4",
            "protocol": "repeatability",
            "mode": "passive",
            "dimension": 4,
            "initial_state": _amplitude_pairs(random_pure(gen, 4)),
            "observables": [random_observable(gen, 4, "H4")],
            "trials": 1_000_000,
            "seed": _seed(gen),
        },
    ]


def protocol_loops(seed: int) -> list[dict]:
    gen = _generator("protocol-loops", seed)
    configs = []
    for shipped in SHIPPED_CONFIGS:
        config = copy.deepcopy(shipped)
        config["seed"] = _seed(gen)
        configs.append(config)
    oracle_bits = [int(b) for b in gen.integers(0, 2, size=8)]
    configs += [
        {
            "name": "repeatability-quantum",
            "protocol": "repeatability",
            "mode": "quantum",
            "initial_state": _amplitude_pairs(random_pure(gen, 2)),
            "observables": [random_bloch(gen)],
            "trials": 20_000,
            "seed": _seed(gen),
        },
        {
            "name": "function-recovery-quantum",
            "protocol": "function-recovery",
            "mode": "quantum",
            "oracle": {"n": 3, "truth_table": oracle_bits},
            "trials": 200,
            "seed": _seed(gen),
        },
        {
            "name": "proper-vs-improper-mixture",
            "protocol": "proper-vs-improper",
            "mode": "passive",
            "mixture": _mixture(gen, 2, 3),
            "trials": 400,
            "shots": 1000,
            "seed": _seed(gen),
        },
        {
            "name": "proper-vs-improper-purification",
            "protocol": "proper-vs-improper",
            "mode": "passive",
            "shape": [3, 3],
            "purification": _amplitude_pairs(_purification(gen, 3)),
            "trials": 400,
            "shots": 1000,
            "seed": _seed(gen),
        },
        {
            "name": "teleportation-quantum",
            "protocol": "teleportation",
            "mode": "quantum",
            "trials": 1500,
            "seed": _seed(gen),
        },
    ]
    return configs


WORKLOADS = {
    "reconstruct-6q": reconstruct_6q,
    "passive-sampling": passive_sampling,
    "protocol-loops": protocol_loops,
}


def build(workload: str, seed: int) -> list[dict]:
    """The configs of one workload at one seed."""
    return WORKLOADS[workload](seed)
