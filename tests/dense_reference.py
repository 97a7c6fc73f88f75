"""Dense references for measurement: every projector P_r formed as a d x d matrix, and every rule one product and trace.

An ``Observable`` keeps ``eigh``'s eigenvectors V with the column range of each
outcome, and measures from them: Born weights |V^dag psi|^2 or diag(V^dag rho V)
summed per outcome, collapse as V_r (V_r^dag x), and a global joint table from
the weights of V_A tensor V_B.  These are the rules those replace, one outcome
at a time: ``dense_projectors`` forms P_r = V_r V_r^dag, ``dense_born`` takes
<psi|P_r|psi> or Tr(P_r rho), ``dense_branch`` P_r psi or P_r rho P_r and
``dense_collapse`` that branch normalised, and ``dense_joint``
Tr[(P_a tensor Q_b) rho] with its own ``np.kron``, matmul and trace per cell.

The two sides agree to within ``bound(d)`` = 2 d eps, entry by entry.  A
collapsed state is the exception: dividing by p amplifies the dense branch's
own rounding by 1/sqrt(p) (5.9 d eps at p = 1e-6), so the branches are compared
in double precision, and the normalised states against ``dense_collapse``
evaluated in ``np.clongdouble``.
"""

import numpy as np

from pqt.hilbert import StateVector

EPS = np.finfo(float).eps


def bound(dim):
    """The largest entrywise gap allowed between an eigenbasis rule and its dense reference on C^dim."""
    return 2 * dim * EPS


def dense_projectors(obs, dtype=complex):
    """P_r = V_r V_r^dag for each outcome r of ``obs``, in eigenvalue order, computed in ``dtype``."""
    blocks = (obs.decomposition.block(r).astype(dtype) for r in range(len(obs.eigenvalues)))
    return [block @ block.conj().T for block in blocks]


def dense_born(obs, state):
    """<psi|P_r|psi> or Tr(P_r rho) for each outcome r."""
    if isinstance(state, StateVector):
        return np.array([np.vdot(state.amplitudes, p @ state.amplitudes).real for p in dense_projectors(obs)])
    return np.array([np.trace(p @ state.matrix).real for p in dense_projectors(obs)])


def dense_branch(state, obs, index, dtype=complex):
    """The unnormalised branch of outcome ``index``, computed in ``dtype``: P_r psi, or P_r rho P_r."""
    projector = dense_projectors(obs, dtype)[index]
    if isinstance(state, StateVector):
        return projector @ state.amplitudes.astype(dtype)
    return projector @ state.matrix.astype(dtype) @ projector


def dense_collapse(state, obs, index, dtype=complex):
    """P_r psi / |P_r psi| as amplitudes, or P_r rho P_r / Tr(P_r rho P_r) as a matrix, computed in ``dtype``."""
    branch = dense_branch(state, obs, index, dtype)
    if isinstance(state, StateVector):
        return branch / np.sqrt(np.vdot(branch, branch).real)
    return branch / np.trace(branch).real


def dense_joint(state, a_obs, b_obs):
    """Tr[(P_a tensor Q_b) rho] one cell at a time, each with its own np.kron, matmul and trace, clipped at zero."""
    matrix = state.projector() if isinstance(state, StateVector) else state.matrix
    probs = np.empty((len(a_obs.eigenvalues), len(b_obs.eigenvalues)))
    for i, pa in enumerate(dense_projectors(a_obs)):
        for j, qb in enumerate(dense_projectors(b_obs)):
            probs[i, j] = np.trace(np.kron(pa, qb) @ matrix).real
    return np.clip(probs, 0.0, None)
