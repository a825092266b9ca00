"""Dense complex linear algebra and spin-operator construction.

Everything here operates on plain ``numpy.ndarray`` objects with dtype
``complex128``.  Conventions fixed once for the whole library:

* qubit 0 is the leftmost tensor factor,
* the two-qubit computational basis is ordered |00>, |01>, |10>, |11>,
* spin operators are S = sigma/2 (hbar = 1).

Hermitian eigendecompositions go to LAPACK through ``numpy.linalg.eigh``,
with a deterministic eigenvector phase and a dimension cap of 4096.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotHermitianError,
    SiteOutOfRangeError,
    TooManySitesError,
)

HERMITIAN_ATOL = 1e-12
EIG_DIM_CAP = 4096
MAX_SITES = 12

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


class EigenDecomposition(NamedTuple):
    """Eigenvalues in ascending order and matching orthonormal column vectors."""

    values: np.ndarray
    vectors: np.ndarray


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(a: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= atol)


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix (LAPACK via numpy).

    Eigenvalues are returned in ascending order; each eigenvector's phase is
    fixed by making its first component with |v| > 1e-12 real and positive,
    so the decomposition is deterministic.

    Raises
    ------
    NotHermitianError
        if ``a`` is not Hermitian within 1e-12 absolute.
    DimensionTooLargeError
        above the 4096-dimension cap.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > EIG_DIM_CAP:
        raise DimensionTooLargeError(f"dimension {n} exceeds cap {EIG_DIM_CAP}")
    a = a.astype(complex, copy=False)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian to 1e-12 absolute")

    # Symmetrize to remove the (tolerated) asymmetry exactly.
    values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
    lead_rows = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    lead = vectors[lead_rows, np.arange(n)]
    vectors = vectors * (np.conj(lead) / np.abs(lead))
    return EigenDecomposition(values=values, vectors=vectors)


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``rho`` is one matrix or a stack (..., d, d); leading stack axes are kept
    as they are.  ``dims`` lists the subsystem dimensions left-to-right;
    their product must equal d.  Kept subsystems stay in ascending original
    order.  Trace and Hermiticity are preserved exactly (sums only).
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if rho.ndim < 2 or rho.shape[-2:] != (total, total):
        raise DimensionMismatchError(
            f"matrix shape {rho.shape} does not match subsystem dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionMismatchError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    n = len(dims)
    stack = rho.shape[:-2]
    tensor = rho.reshape(stack + tuple(dims + dims))
    remaining = n
    for i in [j for j in range(n) if j not in keep][::-1]:
        axis = len(stack) + i
        tensor = np.trace(tensor, axis1=axis, axis2=axis + remaining)
        remaining -= 1
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return tensor.reshape(stack + (kept_dim, kept_dim))


def spin_operator(axis: str, site: int, n_sites: int) -> np.ndarray:
    """S_axis = sigma_axis / 2 acting on ``site``, identity elsewhere.

    Site 0 is the leftmost tensor factor.
    """
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if not 1 <= n_sites <= MAX_SITES:
        raise TooManySitesError(f"n_sites must be in [1, {MAX_SITES}], got {n_sites}")
    if not 0 <= site < n_sites:
        raise SiteOutOfRangeError(f"site {site} out of range for {n_sites} sites")
    op = np.ones((1, 1), dtype=complex)
    for k in range(n_sites):
        factor = 0.5 * PAULI[axis] if k == site else IDENTITY_2
        op = np.kron(op, factor)
    return op


def total_sz_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of sum_i S_i^z in the computational basis (bit 0 = spin up)."""
    if not 1 <= n_sites <= MAX_SITES:
        raise TooManySitesError(f"n_sites must be in [1, {MAX_SITES}], got {n_sites}")
    basis = np.arange(2**n_sites)
    mz = np.zeros(2**n_sites)
    for site in range(n_sites):
        bit = (basis >> (n_sites - 1 - site)) & 1
        mz += 0.5 - bit.astype(float)
    return mz
