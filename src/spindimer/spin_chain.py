"""Exact-diagonalization oracle for small spin-1/2 systems.

Brute-force reference implementation used to validate every closed form in
:mod:`spindimer.dimer`: builds the dense Heisenberg Hamiltonian

    H = - sum_bonds J_ij S_i . S_j        (energies in K via J/k_B)

diagonalizes it, forms thermal states, and evaluates the zero-field
susceptibility through the fluctuation-dissipation relation

    chi = (g mu_B)^2 / (k_B T) * ( <M^2> - <M>^2 ),   M = sum_i S_i^z,

which is exact in the low-field limit and needs no field step-size tuning.
Pair entanglement comes from the partial trace of the thermal state.

Dense diagonalization caps the system at 12 sites (4096 x 4096).  The
eigendecomposition of a spec is cached and reused across temperatures;
specs are frozen (hashable) for that reason.

Every function of T takes a scalar or an array of temperatures: a scalar T
gives a Python float (a matrix for the thermal states), an array T an array
of the same shape (a stack (..., dim, dim) of matrices).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import two_qubit
from .constants import MU_B_OVER_K_B, _float_or_array, check_temperature
from .errors import (
    NonUniformGError,
    SiteOutOfRangeError,
    TooManySitesError,
)
from .quantum import (
    MAX_SITES,
    EigenDecomposition,
    hermitian_eig,
    partial_trace,
    spin_operator,
    total_sz_diagonal,
)


@dataclass(frozen=True)
class SpinChainSpec:
    """A small spin-1/2 cluster: sites, exchange bonds, per-site g-factors.

    bonds are (site_i, site_j, j_over_kb_K) triples; J < 0 couples the pair
    antiferromagnetically under the H = -J S_i.S_j convention.
    """

    n_sites: int
    bonds: tuple
    g_factors: tuple

    def __post_init__(self):
        if not 1 <= self.n_sites <= MAX_SITES:
            raise TooManySitesError(
                f"n_sites must be in [1, {MAX_SITES}], got {self.n_sites}"
            )
        bonds = tuple((int(i), int(j), float(j_k)) for i, j, j_k in self.bonds)
        object.__setattr__(self, "bonds", bonds)
        seen = set()
        for i, j, _ in bonds:
            if i == j:
                raise ValueError(f"bond ({i}, {j}) couples a site to itself")
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
                raise SiteOutOfRangeError(f"bond ({i}, {j}) outside {self.n_sites} sites")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise ValueError(f"duplicate bond between sites {pair}")
            seen.add(pair)
        g_factors = tuple(float(g) for g in self.g_factors)
        object.__setattr__(self, "g_factors", g_factors)
        if len(g_factors) != self.n_sites:
            raise ValueError(
                f"need {self.n_sites} g-factors, got {len(g_factors)}"
            )

    @property
    def dimension(self) -> int:
        return 2**self.n_sites


def dimer_spec(j_over_kb: float, g: float) -> SpinChainSpec:
    """Two sites with a single exchange bond."""
    return SpinChainSpec(n_sites=2, bonds=((0, 1, j_over_kb),), g_factors=(g, g))


def dimer_plus_monomer_spec(j_over_kb: float, j_prime: float, g: float) -> SpinChainSpec:
    """Dimer (sites 0, 1) weakly coupled to a monomer (site 2) by j_prime."""
    return SpinChainSpec(
        n_sites=3,
        bonds=((0, 1, j_over_kb), (1, 2, j_prime)),
        g_factors=(g, g, g),
    )


@dataclass
class ThermalEnsemble:
    """Eigenbasis of H plus Boltzmann weights at one temperature, or at each
    of an array of temperatures (weights then have shape (..., dim)).

    Weights are computed from energy differences to the ground state, so a
    constant shift of H leaves them unchanged.
    """

    eigenbasis: EigenDecomposition
    temperature: float
    weights: np.ndarray


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense 2^n x 2^n Heisenberg Hamiltonian, energies in K."""
    dim = spec.dimension
    h = np.zeros((dim, dim), dtype=complex)
    ops = {
        (axis, site): spin_operator(axis, site, spec.n_sites)
        for axis in "xyz"
        for site in range(spec.n_sites)
    }
    for i, j, j_k in spec.bonds:
        for axis in "xyz":
            h -= j_k * (ops[(axis, i)] @ ops[(axis, j)])
    return h


@lru_cache(maxsize=64)
def _eigensystem(spec: SpinChainSpec) -> EigenDecomposition:
    return hermitian_eig(build_hamiltonian(spec))


def _ensemble(eig: EigenDecomposition, temperature) -> ThermalEnsemble:
    t = check_temperature(temperature)
    weights = np.exp(-(eig.values - eig.values[0]) / np.expand_dims(t, -1))
    weights /= weights.sum(axis=-1, keepdims=True)
    return ThermalEnsemble(eigenbasis=eig, temperature=t, weights=weights)


def _density_matrix(ens: ThermalEnsemble) -> np.ndarray:
    vectors = ens.eigenbasis.vectors
    return (vectors * ens.weights[..., None, :]) @ vectors.conj().T


def thermal_ensemble(spec: SpinChainSpec, temperature) -> ThermalEnsemble:
    return _ensemble(_eigensystem(spec), temperature)


def thermal_state_from_hamiltonian(h: np.ndarray, temperature) -> np.ndarray:
    """exp(-H/T)/Z for an explicit Hamiltonian (energies in K)."""
    return _density_matrix(_ensemble(hermitian_eig(h), temperature))


def thermal_state(spec: SpinChainSpec, temperature) -> np.ndarray:
    """Thermal density matrix exp(-H/T)/Z of the cluster."""
    return _density_matrix(thermal_ensemble(spec, temperature))


def mean_energy(spec: SpinChainSpec, temperature):
    """tr(rho H) in K; non-decreasing in temperature."""
    ens = thermal_ensemble(spec, temperature)
    return _float_or_array(ens.weights @ ens.eigenbasis.values)


def fluctuation_susceptibility(spec: SpinChainSpec, temperature):
    """Zero-field susceptibility from total-S_z fluctuations, per cluster.

    Requires a uniform g-factor: with site-dependent g the magnetization
    operator is no longer g * M and this form does not apply.
    """
    g0 = spec.g_factors[0]
    if any(g != g0 for g in spec.g_factors):
        raise NonUniformGError("fluctuation susceptibility needs a uniform g-factor")
    ens = thermal_ensemble(spec, temperature)
    # M is diagonal in the computational basis, so only the basis populations
    # rho_jj = sum_k w_k |V_jk|^2 are needed.
    populations = ens.weights @ (np.abs(ens.eigenbasis.vectors) ** 2).T
    mz = total_sz_diagonal(spec.n_sites)
    mean = populations @ mz
    variance = populations @ (mz * mz) - mean * mean
    return _float_or_array(g0 * g0 * MU_B_OVER_K_B * variance / ens.temperature)


def pair_concurrence(spec: SpinChainSpec, temperature, pair):
    """Concurrence of the reduced two-site thermal state."""
    i, j = (int(p) for p in pair)
    if i == j:
        raise ValueError("pair must name two distinct sites")
    for site in (i, j):
        if not 0 <= site < spec.n_sites:
            raise SiteOutOfRangeError(f"site {site} out of range for {spec.n_sites} sites")
    rho = thermal_state(spec, temperature)
    reduced = partial_trace(rho, [2] * spec.n_sites, keep=(i, j))
    return two_qubit.concurrence(reduced)
