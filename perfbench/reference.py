"""Independent exact-diagonalization reference for the oracle_ladder workload.

Builds each cluster Hamiltonian H = -sum J_ij S_i.S_j with ``np.kron`` and
diagonalizes it with LAPACK (``np.linalg.eigh``), so it shares no code with
the spindimer oracle it checks.  Concurrence is Wootters' formula, read as the
singular values of sqrt(rho) (sy x sy) sqrt(rho)* (sy x sy), which keeps the
small roots at full absolute precision.
"""

import numpy as np

# mu_B/k_B in K/Oe, the value the library documents; a change to it changes
# every susceptibility the program reports and is meant to be caught here.
MU_B_OVER_K_B = 6.71714e-5

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
_YY = np.kron(_PAULI[1], _PAULI[1])


def _site_operator(pauli, site, n_sites):
    op = np.ones((1, 1), dtype=complex)
    for k in range(n_sites):
        op = np.kron(op, 0.5 * pauli if k == site else np.eye(2))
    return op


def _concurrence(rho):
    values, vectors = np.linalg.eigh(rho)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    singular = np.linalg.svd(root @ _YY @ root.conj() @ _YY, compute_uv=False)
    return max(0.0, singular[0] - singular[1] - singular[2] - singular[3])


def cluster_curves(n_sites, bonds, g, grid):
    """Rows (chi, concurrence of sites (0, 1)) of one cluster, one per T in ``grid``."""
    ops = [[_site_operator(p, site, n_sites) for site in range(n_sites)] for p in _PAULI]
    dim = 2**n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for i, j, j_over_kb in bonds:
        for axis in range(3):
            h -= j_over_kb * (ops[axis][i] @ ops[axis][j])
    energies, vectors = np.linalg.eigh(h)
    mz = sum(op.diagonal().real for op in ops[2])
    populations_per_state = np.abs(vectors) ** 2
    rest = dim // 4
    rows = []
    for t in grid:
        weights = np.exp(-(energies - energies[0]) / t)
        weights /= weights.sum()
        populations = populations_per_state @ weights
        variance = populations @ (mz * mz) - (populations @ mz) ** 2
        chi = g * g * MU_B_OVER_K_B * variance / t
        rho = (vectors * weights) @ vectors.conj().T
        pair = np.einsum("ikjk->ij", rho.reshape(4, rest, 4, rest))
        rows.append((float(chi), _concurrence(pair)))
    return rows
