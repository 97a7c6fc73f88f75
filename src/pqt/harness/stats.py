"""Small statistics toolbox for experiment reports and tests."""

from __future__ import annotations

import numpy as np


def tv_distance(p, q) -> float:
    """Total variation distance (1/2) sum |p_i - q_i| between distributions."""
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.size != q.size:
        raise ValueError(f"length mismatch: {p.size} vs {q.size}")
    return 0.5 * float(np.abs(p - q).sum())


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("need at least one observation")
    if not 0 <= successes <= total:
        raise ValueError(f"successes {successes} out of range for {total} observations")
    phat = successes / total
    denominator = 1.0 + z**2 / total
    center = (phat + z**2 / (2 * total)) / denominator
    margin = z * np.sqrt(phat * (1 - phat) / total + z**2 / (4 * total**2)) / denominator
    return max(center - margin, 0.0), min(center + margin, 1.0)
