"""Closed-form physics of an exchange-coupled spin-1/2 dimer plus Curie monomer.

Model
-----
The compound susceptibility is a superposition chi = chi_d + chi_m of

    chi_d = (g mu_B)^2 / (k_B T) * 2 / (3 + exp(-J/(k_B T)))      (dimer)
    chi_m = C / T                                                  (monomer)

with the exchange quoted as J/k_B in kelvin, J < 0 antiferromagnetic.  The
dimer Hamiltonian convention is H = -J S1.S2, chosen because it reproduces
the dimer susceptibility above: the singlet then sits at 3J/4 and the
triplet at -J/4, a gap of -J.

Writing K = exp(-J/(k_B T)) and the reduced susceptibility
x(T) = k_B T chi_d / (g mu_B)^2 = 2/(3 + K), the thermal dimer state gives
closed forms for the entanglement quantifiers:

    concurrence     C(T)   = max(0, 1 - 6/(3 + K)) = max(0, 1 - 3 x)
    Bell mean value |<B>|  = 4 sqrt(2) |x - 1/2|

and their experimental twins obtained by substituting the measured chi via
x = k_B T (chi - C/T) / (g mu_B)^2.  Setting these expressions to their
critical values yields the three temperatures reported by ``thresholds``:

    concurrence reaches 0      at  T_e       = -J / (k_B ln 3)
    |<B>| crosses 2            at  T_Bell    = -J / (k_B ln(5 + 4 sqrt(2)))
    concurrence falls to 1-eps at  T_plateau = -J / (k_B ln(6/eps - 3))

All temperatures are in kelvin and chi in mu_B FU^-1 Oe^-1 throughout.
Every function of T also takes an array of temperatures: a scalar T gives a
Python float (a 4x4 matrix for ``thermal_dimer_state``), an array T an
array (a stack of 4x4 matrices).
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    _float_or_array,
    check_temperature,
    reduced_susceptibility,
    susceptibility_from_reduced,
)
from .errors import NotAntiferromagneticError

BELL_CEILING = 2.0 * math.sqrt(2.0)
_FOUR_SQRT2 = 4.0 * math.sqrt(2.0)
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_SINGLET_PROJECTOR = np.outer(_SINGLET, _SINGLET).astype(complex)

# exp argument above which exp(-J/k_B T) would overflow a double; the
# asymptotic form 2*exp(J/k_B T) is exact to better than 1e-290 there.
_EXP_OVERFLOW = 700.0


@dataclass
class ModelParams:
    """Fitted physical parameters plus witness normalization metadata.

    j_over_kb : exchange coupling J/k_B in K (negative = antiferromagnetic)
    g         : Lande factor
    curie_c   : monomer Curie constant in K mu_B FU^-1 Oe^-1
    n_spins   : number of spins per formula unit entering the witness
    spin      : spin quantum number of those spins
    """

    j_over_kb: float
    g: float
    curie_c: float
    n_spins: int = 3
    spin: float = 0.5

    def __post_init__(self):
        for name in ("j_over_kb", "g", "curie_c", "spin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g <= 0.0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.curie_c < 0.0:
            raise ValueError(f"curie_c must be >= 0, got {self.curie_c}")
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be >= 1, got {self.n_spins}")
        if self.spin <= 0.0:
            raise ValueError(f"spin must be positive, got {self.spin}")


@dataclass
class ThresholdSet:
    """Critical temperatures of the entanglement quantifiers, in kelvin."""

    t_entanglement: float
    t_bell: float
    t_plateau: float
    plateau_epsilon: float


def reduced_chi_dimer(j_over_kb: float, temperature):
    """Dimensionless x(T) = 2/(3 + exp(-J/(k_B T))), overflow-safe; T may be an array."""
    t = check_temperature(temperature)
    a = -j_over_kb / t
    x = np.where(a > _EXP_OVERFLOW,
                 2.0 * np.exp(-np.maximum(a, _EXP_OVERFLOW)),
                 2.0 / (3.0 + np.exp(np.minimum(a, _EXP_OVERFLOW))))
    return _float_or_array(x)


def chi_dimer(params: ModelParams, temperature):
    """Dimer susceptibility in mu_B FU^-1 Oe^-1; T may be an array."""
    x = reduced_chi_dimer(params.j_over_kb, temperature)
    return susceptibility_from_reduced(x, temperature, params.g)


def chi_monomer(params: ModelParams, temperature):
    """Curie-law monomer susceptibility C/T; T may be an array."""
    return params.curie_c / check_temperature(temperature)


def chi_total(params: ModelParams, temperature):
    """Compound susceptibility chi_d + chi_m; T may be an array."""
    return chi_dimer(params, temperature) + chi_monomer(params, temperature)


def thermal_dimer_state(params: ModelParams, temperature) -> np.ndarray:
    """Thermal state of H = -J S1.S2 as a 4x4 density matrix, or a (..., 4, 4)
    stack of them for an array of temperatures.

    Diagonal in the singlet-triplet basis with singlet weight K/(3+K) and
    1/(3+K) = x/2 per triplet state, K = exp(-J/(k_B T)); that is
    rho = (x/2) I + (1 - 2x) |S><S| with |S> the singlet.  Returned in the
    computational basis |00>, |01>, |10>, |11>.
    """
    x = np.asarray(reduced_chi_dimer(params.j_over_kb, temperature))[..., None, None]
    return 0.5 * x * np.eye(4) + (1.0 - 2.0 * x) * _SINGLET_PROJECTOR


def concurrence_closed(params: ModelParams, temperature):
    """Dimer concurrence max(0, 1 - 6/(3 + K)) from the closed form; T may be an array."""
    x = reduced_chi_dimer(params.j_over_kb, temperature)
    return _float_or_array(np.maximum(0.0, 1.0 - 3.0 * x))


def concurrence_from_chi(chi, temperature, params: ModelParams):
    """Concurrence from a measured susceptibility; chi and T may be arrays.

    Subtracts the monomer Curie term and applies
    C = max(0, 1 - 3 k_B T (chi - C/T) / (g mu_B)^2).  With chi produced by
    ``chi_total`` this matches ``concurrence_closed`` to rounding.
    """
    t = check_temperature(temperature)
    x = reduced_susceptibility(chi - params.curie_c / t, t, params.g)
    return _float_or_array(np.maximum(0.0, 1.0 - 3.0 * x))


def bell_closed(params: ModelParams, temperature):
    """|<B>| = 4 sqrt(2) |2/(3+K) - 1/2| for the optimal direction set; T may be an array."""
    x = reduced_chi_dimer(params.j_over_kb, temperature)
    return _FOUR_SQRT2 * abs(x - 0.5)


def bell_from_chi(chi, temperature, params: ModelParams):
    """|<B>| from a measured susceptibility (monomer term subtracted); chi and T may be arrays."""
    t = check_temperature(temperature)
    x = reduced_susceptibility(chi - params.curie_c / t, t, params.g)
    return _FOUR_SQRT2 * abs(x - 0.5)


def bisect_root(func, lo: float, hi: float, xtol: float = 1e-6) -> float:
    """Bisection root of a scalar function with a sign change on [lo, hi]."""
    f_lo = func(lo)
    f_hi = func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def thresholds(params: ModelParams, plateau_epsilon: float = 0.01) -> ThresholdSet:
    """Critical temperatures T_plateau < T_Bell < T_entanglement.

    Closed forms are used; the tests pin each one to a ``bisect_root`` root
    of its curve.  Requires an antiferromagnetic coupling (J < 0); otherwise
    the quantifiers never reach their critical values and
    :class:`NotAntiferromagneticError` is raised.
    """
    if params.j_over_kb >= 0.0:
        raise NotAntiferromagneticError(
            f"thresholds require J/k_B < 0, got {params.j_over_kb}"
        )
    if not 0.0 < plateau_epsilon < 1.0:
        raise ValueError(f"plateau_epsilon must be in (0, 1), got {plateau_epsilon}")

    j = params.j_over_kb
    t_entanglement = -j / math.log(3.0)
    t_bell = -j / math.log(5.0 + 4.0 * math.sqrt(2.0))
    t_plateau = -j / math.log(6.0 / plateau_epsilon - 3.0)

    return ThresholdSet(
        t_entanglement=t_entanglement,
        t_bell=t_bell,
        t_plateau=t_plateau,
        plateau_epsilon=plateau_epsilon,
    )
