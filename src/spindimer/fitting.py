"""Nonlinear least-squares fitting of the dimer+monomer susceptibility model.

Fits (J/k_B, g, C) to measured chi(T) points by Levenberg-Marquardt,
minimizing sum_i w_i (chi_model(T_i) - chi_i)^2 with w_i = 1/sigma_i^2 when
uncertainties are present and 1 otherwise.

Internally the parameters are reconditioned to order unity,

    u = ( (J/k_B)/100 K,  g,  ln((C + 1e-12)/1e-5) ),

which both equilibrates a Jacobian whose raw columns differ by seven orders
of magnitude and enforces C >= 0 without a constrained solver.  g is fitted
directly; steps that would drive it nonpositive are rejected.  The damping
factor starts at 1e-3, x10 on a rejected step, /10 on an accepted one, for
at most 200 iterations.  The Jacobian is closed-form: x = 2/(3 + exp(-J/(k_B T)))
has dx/dJ = x (1 - 3x/2)/T on both branches of its overflow-safe evaluation,
so each weighted residual r = w (chi_model - chi) has

    dr/du = w/T * (100 g^2 (mu_B/k_B) x (1 - 3x/2)/T,  2 g (mu_B/k_B) x,  1e-5 exp(u_2)).

The model is strictly chi_d + C/T; a temperature-independent (van Vleck /
diamagnetic) background would be a fourth parameter and is intentionally
not fitted.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import MU_B_OVER_K_B, check_temperature, susceptibility_from_reduced
from .dimer import ModelParams, chi_total, reduced_chi_dimer
from .errors import EmptyDatasetError, SingularJacobianError, TooFewPointsError

_SCALE_J = 100.0
_SCALE_C = 1e-5
_EPS_C = 1e-12

_MAX_ITERATIONS = 200
_LAMBDA_START = 1e-3
_COST_TOL = 1e-10   # relative cost reduction below this => converged
_GRAD_TOL = 1e-12   # infinity norm of the gradient below this => converged


@dataclass
class SusceptibilityDataset:
    """Measured (T, chi) points with optional 1-sigma uncertainties.

    temperatures in K, chi in mu_B FU^-1 Oe^-1, applied_field in Oe
    (metadata only; the model is the low-field limit); all values finite.
    """

    temperatures: np.ndarray
    chi: np.ndarray
    sigma: Optional[np.ndarray] = None
    applied_field: float = 100.0
    label: str = ""

    def __post_init__(self):
        self.temperatures = np.asarray(self.temperatures, dtype=float)
        self.chi = np.asarray(self.chi, dtype=float)
        if self.temperatures.ndim != 1 or self.chi.shape != self.temperatures.shape:
            raise ValueError("temperatures and chi must be 1-D arrays of equal length")
        if self.temperatures.size == 0:
            raise EmptyDatasetError("dataset has no points")
        check_temperature(self.temperatures)
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("all chi values must be finite")
        if not math.isfinite(self.applied_field):
            raise ValueError(f"applied_field must be finite, got {self.applied_field}")
        if self.sigma is not None:
            self.sigma = np.asarray(self.sigma, dtype=float)
            if self.sigma.shape != self.temperatures.shape:
                raise ValueError("sigma must match the number of points")
            if not np.all(np.isfinite(self.sigma) & (self.sigma > 0.0)):
                raise ValueError("all sigmas must be finite and > 0")

    @property
    def n_points(self) -> int:
        return int(self.temperatures.size)


@dataclass
class FitResult:
    """Best-fit parameters plus convergence diagnostics.

    covariance_diag holds the per-parameter variance estimates for
    (J/k_B, g, C) from (J^T W J)^-1 at the solution, diagnostic only.  An
    unweighted fit has no sigma to set the scale, so its (J^T J)^-1 is
    multiplied by the residual variance s^2 = cost/(n - 3).
    cost_history lists the weighted sum of squares after every accepted
    step (never increasing).
    """

    params: ModelParams
    residual_norm: float
    covariance_diag: np.ndarray
    iterations: int
    converged: bool
    cost_history: list = field(default_factory=list)


def model_chi(params: ModelParams, temperatures) -> np.ndarray:
    """chi_total evaluated on an array of temperatures."""
    return chi_total(params, np.atleast_1d(temperatures))


def residuals(dataset: SusceptibilityDataset, params: ModelParams) -> np.ndarray:
    """Weighted residuals (model - data)/sigma in dataset order."""
    res = model_chi(params, dataset.temperatures) - dataset.chi
    if dataset.sigma is not None:
        res = res / dataset.sigma
    return res


def synth_dataset(params: ModelParams, grid, noise_rel: float, seed: int,
                  applied_field: float = 100.0, label: str = "") -> SusceptibilityDataset:
    """Synthetic dataset chi_i = chi_total(T_i) * (1 + noise_rel * z_i).

    z_i are standard normal draws from a generator seeded with ``seed``,
    so the dataset is deterministic for a fixed seed.
    """
    grid = np.asarray(grid, dtype=float)
    if not 0.0 <= noise_rel < math.inf:
        raise ValueError(f"noise_rel must be finite and >= 0, got {noise_rel}")
    chi = model_chi(params, grid)
    if noise_rel > 0.0:
        rng = np.random.default_rng(seed)
        chi = chi * (1.0 + noise_rel * rng.standard_normal(grid.size))
    return SusceptibilityDataset(
        temperatures=grid, chi=chi, applied_field=applied_field, label=label
    )


def _pack(j_over_kb: float, g: float, curie_c: float) -> np.ndarray:
    return np.array([j_over_kb / _SCALE_J, g, math.log((curie_c + _EPS_C) / _SCALE_C)])


def _unpack(u: np.ndarray):
    curie_c = math.exp(u[2]) * _SCALE_C - _EPS_C
    return float(u[0] * _SCALE_J), float(u[1]), max(0.0, curie_c)


def _weighted_residuals(u, temperatures, chi, weights_sqrt):
    j_over_kb, g, curie_c = _unpack(u)
    x = reduced_chi_dimer(j_over_kb, temperatures)
    model = susceptibility_from_reduced(x, temperatures, g) + curie_c / temperatures
    return (model - chi) * weights_sqrt


def _jacobian(u, temperatures, weights_sqrt):
    """Closed-form d(weighted residual)/du; see the module docstring."""
    j_over_kb, g, _ = _unpack(u)
    x = reduced_chi_dimer(j_over_kb, temperatures)
    scale = weights_sqrt / temperatures
    return np.column_stack((
        scale * _SCALE_J * g * g * MU_B_OVER_K_B * x * (1.0 - 1.5 * x) / temperatures,
        scale * 2.0 * g * MU_B_OVER_K_B * x,
        scale * math.exp(u[2]) * _SCALE_C,
    ))


def fit(dataset: SusceptibilityDataset, initial: ModelParams) -> FitResult:
    """Levenberg-Marquardt fit of (J/k_B, g, C) to a susceptibility dataset.

    Returns the best parameters found whether or not the convergence
    criteria (relative cost reduction < 1e-10 or gradient infinity norm
    < 1e-12) were met within 200 iterations.  The witness metadata
    (n_spins, spin) is carried over unchanged from ``initial``.

    Raises
    ------
    TooFewPointsError
        for fewer than 4 points (3 parameters).
    SingularJacobianError
        if the damped normal equations become singular.
    """
    if dataset.n_points < 4:
        raise TooFewPointsError(
            f"3-parameter fit needs >= 4 points, got {dataset.n_points}"
        )
    if initial.g <= 0.0:
        raise ValueError("initial g must be positive")

    # Canonical point order makes the result invariant (bit-identical)
    # under permutations of the input points.
    order = np.lexsort(
        (dataset.sigma if dataset.sigma is not None else np.zeros(dataset.n_points),
         dataset.chi, dataset.temperatures)
    )
    temperatures = dataset.temperatures[order]
    chi = dataset.chi[order]
    if dataset.sigma is not None:
        weights_sqrt = 1.0 / dataset.sigma[order]
    else:
        weights_sqrt = np.ones(dataset.n_points)

    u = _pack(initial.j_over_kb, initial.g, initial.curie_c)
    res = _weighted_residuals(u, temperatures, chi, weights_sqrt)
    cost = float(res @ res)
    cost_history = [cost]
    damping = _LAMBDA_START
    converged = False
    iterations = 0
    gradient_scale = None  # set on the first iteration

    for iteration in range(1, _MAX_ITERATIONS + 1):
        iterations = iteration
        jac = _jacobian(u, temperatures, weights_sqrt)
        jtj = jac.T @ jac
        gradient = jac.T @ res
        gradient_norm = float(np.max(np.abs(gradient)))
        if gradient_scale is None:
            gradient_scale = gradient_norm
        # Stationarity test in the problem's own scale: the absolute value
        # of J^T r depends on the chi units (~1e-7 here), so the 1e-12
        # gradient tolerance is applied relative to the starting gradient.
        if gradient_norm <= _GRAD_TOL * gradient_scale:
            converged = True
            break
        normal = jtj + damping * np.diag(np.diag(jtj))
        try:
            delta = np.linalg.solve(normal, -gradient)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(iteration)
        if not np.all(np.isfinite(delta)):
            raise SingularJacobianError(iteration)

        u_try = u + delta
        if u_try[1] <= 0.0:  # reject-if-nonpositive for g
            damping *= 10.0
            continue
        res_try = _weighted_residuals(u_try, temperatures, chi, weights_sqrt)
        cost_try = float(res_try @ res_try)
        if cost_try <= cost:
            relative_reduction = (cost - cost_try) / cost if cost > 0.0 else 0.0
            u, res, cost = u_try, res_try, cost_try
            cost_history.append(cost)
            damping = max(damping / 10.0, 1e-14)
            if relative_reduction < _COST_TOL:
                converged = True
                break
        else:
            damping *= 10.0
            if damping > 1e15:
                break

    j_over_kb, g, curie_c = _unpack(u)
    params = ModelParams(
        j_over_kb=j_over_kb,
        g=g,
        curie_c=curie_c,
        n_spins=initial.n_spins,
        spin=initial.spin,
    )

    jac = _jacobian(u, temperatures, weights_sqrt)
    # Variances in physical units: scale the internal covariance by
    # (d param / d u)^2 per parameter.
    jacobian_phys = np.array([_SCALE_J, 1.0, math.exp(u[2]) * _SCALE_C])
    try:
        covariance_u = np.linalg.inv(jac.T @ jac)
        if dataset.sigma is None:
            covariance_u *= cost / (dataset.n_points - 3)
        covariance_diag = np.diag(covariance_u) * jacobian_phys**2
    except np.linalg.LinAlgError:
        covariance_diag = np.full(3, np.inf)

    return FitResult(
        params=params,
        residual_norm=float(np.sqrt(cost / dataset.n_points)),
        covariance_diag=covariance_diag,
        iterations=iterations,
        converged=converged,
        cost_history=cost_history,
    )
