"""Entanglement and nonlocality measures for two-qubit density matrices.

Three quantifiers are provided for an arbitrary 4x4 density matrix rho:

* ``concurrence`` -- the standard spin-flip entanglement monotone
  C = max(0, sqrt(L1) - sqrt(L2) - sqrt(L3) - sqrt(L4)) where the L's are
  the (decreasingly ordered) eigenvalues of
  R = rho (sy x sy) rho* (sy x sy).
* ``bell_expectation`` -- <B> for the four-direction Bell-CHSH operator
  B = n1.s x (n2.s - n4.s) + n3.s x (n2.s + n4.s); |<B>| <= 2 for every
  separable state, 2*sqrt(2) at most.
* ``chsh_maximum`` -- the direction-set optimum 2*sqrt(u1+u2) from the two
  largest eigenvalues of T^T T, T_ab = tr(rho sa x sb).  It upper-bounds
  |bell_expectation| over all direction sets, so it certifies whether a
  chosen set is optimal.

``DEFAULT_BELL_DIRECTIONS`` is the set that maximally violates the
inequality for the antiferromagnetic-dimer ground state; with it the Bell
operator reduces to sqrt(2)*(sz x sz + sx x sx).

Each measure takes one 4x4 matrix or a stack (..., 4, 4) of them and
returns a Python float for one matrix, an array over the stack axes for a
stack (``correlation_matrix``: a 3x3 matrix, or a (..., 3, 3) stack).

There is also ``witness_from_chi``, the susceptibility-based entanglement
witness for N spin-S particles,

    EW(N) = 3 k_B T chibar / ((g mu_B)^2 N S) - 1,

negative exactly when the magnetometry data certifies entanglement.  The
supplied chibar is taken to be already averaged over the three orthogonal
field directions (for powder/isotropic data that is the measured chi).
"""

from dataclasses import dataclass

import numpy as np

from .constants import _float_or_array, check_temperature, reduced_susceptibility
from .errors import InvalidStateError
from .quantum import SIGMA_X, SIGMA_Y, SIGMA_Z, kron

PSD_CLAMP = 1e-10  # tolerated negative eigenvalue of a density matrix (round-off)

_YY = kron(SIGMA_Y, SIGMA_Y)
# _PAULI_PAIRS[a, b] = sigma_a x sigma_b, so T_ab = tr(rho _PAULI_PAIRS[a, b])
_PAULI_PAIRS = np.array([[kron(sa, sb) for sb in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
                         for sa in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


@dataclass
class BellDirections:
    """Four unit vectors defining a Bell-CHSH measurement set."""

    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    n4: np.ndarray

    def __post_init__(self):
        for name in ("n1", "n2", "n3", "n4"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a real 3-vector")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError(f"{name} must have unit norm to 1e-12")
            setattr(self, name, vec)


DEFAULT_BELL_DIRECTIONS = BellDirections(
    n1=np.array([0.0, 0.0, -1.0]),
    n2=np.array([-1.0, 0.0, -1.0]) / np.sqrt(2.0),
    n3=np.array([-1.0, 0.0, 0.0]),
    n4=np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0),
)


def direction_operator(n) -> np.ndarray:
    """Spin projection n . sigma for a real 3-vector n."""
    n = np.asarray(n, dtype=float)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


def check_state(rho: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix or a (..., 4, 4) stack; returns it as complex ndarray.

    Raises :class:`InvalidStateError` unless every matrix is Hermitian
    (1e-12), unit trace (1e-12) and positive semidefinite (eigenvalues >= -1e-10).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (4, 4):
        raise InvalidStateError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if np.any(np.abs(rho - rho.swapaxes(-1, -2).conj()) > 1e-12):
        raise InvalidStateError("density matrix is not Hermitian to 1e-12")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(trace.real - 1.0) > 1e-12) or np.any(np.abs(trace.imag) > 1e-12):
        raise InvalidStateError("density matrix does not have unit trace to 1e-12")
    lowest = np.linalg.eigvalsh(rho)[..., 0]
    if np.any(lowest < -PSD_CLAMP):
        raise InvalidStateError(f"density matrix has eigenvalue {np.min(lowest):.3e} < -1e-10")
    return rho


def concurrence(rho: np.ndarray):
    """Concurrence of a two-qubit density matrix, in [0, 1].

    The sqrt(L_i) of the non-Hermitian R = rho (sy x sy) rho* (sy x sy) are
    the singular values of M = (sy x sy) sqrt(rho)* (sy x sy) sqrt(rho),
    since M^dagger M equals the Hermitian-equivalent product
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho).  Taking them from an SVD
    of M keeps the small sqrt(L_i) at full absolute precision instead of
    squaring them below round-off.  sqrt(rho) = V sqrt(L) V^dagger does not
    depend on the phases of the eigenvectors V.
    """
    rho = check_state(rho)
    values, vectors = np.linalg.eigh(rho)
    root_values = np.sqrt(np.maximum(values, 0.0))[..., None, :]
    root = (vectors * root_values) @ vectors.swapaxes(-1, -2).conj()
    flipped_root = _YY @ root.conj() @ _YY  # = sqrt of (sy x sy) rho* (sy x sy)
    roots = np.linalg.svd(flipped_root @ root, compute_uv=False)  # descending
    c = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return _float_or_array(np.maximum(0.0, c))


def bell_operator(dirs: BellDirections = DEFAULT_BELL_DIRECTIONS) -> np.ndarray:
    """The 4x4 Bell-CHSH operator for a direction set."""
    op_1 = direction_operator(dirs.n1)
    op_2 = direction_operator(dirs.n2)
    op_3 = direction_operator(dirs.n3)
    op_4 = direction_operator(dirs.n4)
    return kron(op_1, op_2 - op_4) + kron(op_3, op_2 + op_4)


def bell_expectation(rho: np.ndarray, dirs: BellDirections = DEFAULT_BELL_DIRECTIONS):
    """Signed mean value <B> = tr(rho B) for the given direction set."""
    rho = check_state(rho)
    return _float_or_array(np.einsum("...ij,ji->...", rho, bell_operator(dirs)).real)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 spin-correlation matrix T_ab = tr(rho sigma_a x sigma_b)."""
    rho = check_state(rho)
    return np.einsum("...ij,abji->...ab", rho, _PAULI_PAIRS).real


def chsh_maximum(rho: np.ndarray):
    """Largest attainable |<B>| over all direction sets: 2*sqrt(u1 + u2).

    u1 >= u2 are the two largest eigenvalues of T^T T (Horodecki, Horodecki
    & Horodecki, Phys. Lett. A 200, 340 (1995)).  A value above 2 means some
    direction set violates the CHSH inequality; 2*sqrt(2) is the absolute
    ceiling.
    """
    t = correlation_matrix(rho)
    # complex dtype: the same LAPACK eigensolver as check_state, not a second one
    u = np.linalg.eigvalsh((t.swapaxes(-1, -2) @ t).astype(complex))  # ascending, >= 0
    u = np.maximum(u, 0.0)
    return _float_or_array(2.0 * np.sqrt(u[..., -1] + u[..., -2]))


def witness_from_chi(chi_bar, temperature, g, n_spins: int, spin: float):
    """Susceptibility entanglement witness EW(N); negative certifies entanglement.

    ``chi_bar`` is the direction-averaged susceptibility per formula unit in
    mu_B FU^-1 Oe^-1, ``n_spins`` the number of spin-``spin`` particles the
    normalization counts.  ``chi_bar`` and ``temperature`` may be arrays.
    """
    temperature = check_temperature(temperature)
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    if spin <= 0.0:
        raise ValueError(f"spin must be positive, got {spin}")
    x = reduced_susceptibility(chi_bar, temperature, g)
    return 3.0 * x / (n_spins * spin) - 1.0
