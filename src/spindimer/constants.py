"""Unit conventions and physical constants.

The whole library works in the magnetometry unit system of the modelled
compounds: temperatures and exchange couplings (quoted as J/k_B) in kelvin,
molar susceptibility chi in mu_B FU^-1 Oe^-1 (Bohr magnetons per formula
unit per oersted), Lande g-factors dimensionless.  The only physical
constant that then enters anywhere is the ratio mu_B/k_B.

The dimensionless "reduced" susceptibility

    x = k_B T chi / (g mu_B)^2 = T chi / (g^2 * MU_B_OVER_K_B)

is what the entanglement quantities are built from; the helpers below
convert between the two representations.
"""

import numpy as np

from .errors import NonPositiveTemperatureError

# CODATA Bohr magneton over Boltzmann constant, in K/Oe.
MU_B_OVER_K_B = 6.71714e-5


def reduced_susceptibility(chi, temperature, g):
    """Dimensionless x = k_B T chi / (g mu_B)^2 for chi in mu_B FU^-1 Oe^-1."""
    return temperature * chi / (g * g * MU_B_OVER_K_B)


def susceptibility_from_reduced(x, temperature, g):
    """Inverse of :func:`reduced_susceptibility`."""
    return g * g * MU_B_OVER_K_B * x / temperature


def check_temperature(temperature):
    """Checked temperatures in K: a float for scalar input, else a float ndarray.

    Raises :class:`NonPositiveTemperatureError` unless every value is finite and > 0.
    """
    t = np.asarray(temperature, dtype=float)
    valid = np.isfinite(t) & (t > 0.0)
    if not valid.all():
        bad = float(t[~valid].flat[0])
        raise NonPositiveTemperatureError(f"temperature must be finite and > 0 K, got {bad}")
    return _float_or_array(t)


def _float_or_array(value):
    """Scalar in, Python float out; array in, array out (every function of T)."""
    return float(value) if np.ndim(value) == 0 else value
