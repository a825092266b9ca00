"""Levenberg-Marquardt susceptibility-fit tests."""

import math

import numpy as np
import pytest

from spindimer.constants import MU_B_OVER_K_B
from spindimer.dimer import ModelParams
from spindimer.errors import (
    EmptyDatasetError,
    NonPositiveTemperatureError,
    TooFewPointsError,
)
from spindimer.fitting import (
    SusceptibilityDataset,
    _jacobian,
    _pack,
    _weighted_residuals,
    fit,
    model_chi,
    residuals,
    synth_dataset,
)

TRUTH = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=7.02e-5)
START = ModelParams(j_over_kb=-400.0, g=2.0, curie_c=1e-5)
GRID = np.logspace(np.log10(5.0), np.log10(350.0), 60)


def relative_errors(found: ModelParams, truth: ModelParams):
    return (
        abs(found.j_over_kb - truth.j_over_kb) / abs(truth.j_over_kb),
        abs(found.g - truth.g) / truth.g,
        abs(found.curie_c - truth.curie_c) / truth.curie_c,
    )


class TestDataset:
    def test_rejects_empty(self):
        with pytest.raises(EmptyDatasetError):
            SusceptibilityDataset(temperatures=np.array([]), chi=np.array([]))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            SusceptibilityDataset(temperatures=np.array([0.0]), chi=np.array([1e-6]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonPositiveTemperatureError):
                SusceptibilityDataset(temperatures=np.array([10.0, bad]), chi=np.ones(2) * 1e-6)

    def test_rejects_non_finite_chi_and_sigma(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="chi"):
                SusceptibilityDataset(
                    temperatures=np.array([10.0, 20.0]), chi=np.array([1e-6, bad])
                )
            with pytest.raises(ValueError, match="sigma"):
                SusceptibilityDataset(
                    temperatures=np.array([10.0, 20.0]),
                    chi=np.array([1e-6, 1e-6]),
                    sigma=np.array([1e-8, bad]),
                )
            with pytest.raises(ValueError, match="applied_field"):
                SusceptibilityDataset(
                    temperatures=np.array([10.0, 20.0]),
                    chi=np.array([1e-6, 1e-6]),
                    applied_field=bad,
                )

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            SusceptibilityDataset(
                temperatures=np.array([10.0]),
                chi=np.array([1e-6]),
                sigma=np.array([0.0]),
            )

    def test_single_point_is_a_valid_dataset(self):
        ds = SusceptibilityDataset(temperatures=np.array([10.0]), chi=np.array([1e-6]))
        assert ds.n_points == 1


class TestSynthDataset:
    def test_noiseless_equals_model(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.0, seed=0)
        assert np.array_equal(ds.chi, model_chi(TRUTH, GRID))

    def test_deterministic_for_fixed_seed(self):
        a = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=42)
        b = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=42)
        assert np.array_equal(a.chi, b.chi)
        c = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=43)
        assert not np.array_equal(a.chi, c.chi)

    def test_noise_rms_statistics(self):
        grid = np.linspace(5.0, 350.0, 1000)
        ds = synth_dataset(TRUTH, grid, noise_rel=0.01, seed=123)
        relative = ds.chi / model_chi(TRUTH, grid) - 1.0
        rms = float(np.sqrt(np.mean(relative**2)))
        assert 0.008 <= rms <= 0.012

    def test_rejects_bad_grid_and_noise(self):
        with pytest.raises(NonPositiveTemperatureError):
            synth_dataset(TRUTH, [-1.0, 10.0], noise_rel=0.0, seed=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(NonPositiveTemperatureError):
                synth_dataset(TRUTH, [bad, 10.0], noise_rel=0.0, seed=0)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                synth_dataset(TRUTH, GRID, noise_rel=bad, seed=0)


def reference_chi(params: ModelParams, t: float) -> float:
    """The model evaluated per point with math.exp, overflow branch at a = 700."""
    a = -params.j_over_kb / t
    x = 2.0 * math.exp(-a) if a > 700.0 else 2.0 / (3.0 + math.exp(a))
    return params.g * params.g * MU_B_OVER_K_B * x / t + params.curie_c / t


# The overflow branch takes over at a = -J/(k_B T) = 700, i.e. T = 0.990 K
# for J/k_B = -693.15 K.  x stays a normal double for a < 708.
BOUNDARY_AS = np.array([699.0, 699.999, 700.001, 701.0, 705.0])


class TestVectorizedModel:
    @pytest.mark.parametrize("curie_c", [7.02e-5, 0.0])
    def test_model_chi_matches_per_point_reference(self, curie_c):
        params = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=curie_c)
        grid = np.sort(np.concatenate(
            (np.logspace(np.log10(0.5), 4.0, 400), 693.15 / BOUNDARY_AS)
        ))
        got = model_chi(params, grid)
        expected = np.array([reference_chi(params, float(t)) for t in grid])
        assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))

    @staticmethod
    def central_differences(u, temperatures, chi, weights_sqrt):
        jac = np.empty((temperatures.size, 3))
        for k in range(3):
            step = 1e-6 * max(abs(u[k]), 1.0)
            up, down = u.copy(), u.copy()
            up[k] += step
            down[k] -= step
            jac[:, k] = (_weighted_residuals(up, temperatures, chi, weights_sqrt)
                         - _weighted_residuals(down, temperatures, chi, weights_sqrt)) / (2 * step)
        return jac

    @pytest.mark.parametrize("with_sigma", [False, True])
    def test_jacobian_matches_central_differences(self, with_sigma):
        temperatures = np.concatenate(
            (693.15 / BOUNDARY_AS, np.logspace(np.log10(1.0), 4.0, 40))
        )
        a = 693.15 / temperatures
        assert np.any(a > 700.0) and np.any(a < 700.0)
        chi = synth_dataset(TRUTH, temperatures, noise_rel=0.01, seed=5).chi
        sigma = 0.01 * np.abs(chi) if with_sigma else np.ones_like(chi)
        weights_sqrt = 1.0 / sigma

        # All three columns, per column, on data with a Curie term.
        u = _pack(-693.15, 2.3, 5e-5)
        analytic = _jacobian(u, temperatures, weights_sqrt)
        numeric = self.central_differences(u, temperatures, chi, weights_sqrt)
        for k in range(3):
            column = np.max(np.abs(analytic[:, k]))
            assert np.max(np.abs(numeric[:, k] - analytic[:, k])) <= 1e-6 * column

        # The J and g columns point by point, so that the overflow branch
        # (x ~ 1e-304) counts: with chi = 0 and C clamped to 0 the residual
        # is the dimer term alone.
        u = np.array([-6.9315, 2.3, -50.0])
        zero = np.zeros_like(chi)
        analytic = _jacobian(u, temperatures, weights_sqrt)
        numeric = self.central_differences(u, temperatures, zero, weights_sqrt)
        for k in range(2):
            assert np.all(np.abs(analytic[:, k]) > 0.0)
            assert np.all(np.abs(numeric[:, k] - analytic[:, k]) <= 1e-6 * np.abs(analytic[:, k]))


class TestResiduals:
    def test_noiseless_residuals_vanish(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.0, seed=0)
        assert np.max(np.abs(residuals(ds, TRUTH))) == 0.0

    def test_fitted_vs_generating_mean_near_zero(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=42)
        res = residuals(ds, TRUTH)
        assert abs(np.mean(res / np.abs(ds.chi))) < 0.01

    def test_single_point(self):
        ds = SusceptibilityDataset(temperatures=np.array([100.0]), chi=np.array([1e-6]))
        assert residuals(ds, TRUTH).shape == (1,)

    def test_sigma_weighting(self):
        ds = SusceptibilityDataset(
            temperatures=np.array([100.0, 200.0]),
            chi=np.array([1e-6, 1e-6]),
            sigma=np.array([2.0, 4.0]),
        )
        unweighted = model_chi(TRUTH, ds.temperatures) - ds.chi
        assert np.allclose(residuals(ds, TRUTH), unweighted / ds.sigma)


class TestFit:
    def test_noiseless_round_trip(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.0, seed=0)
        result = fit(ds, START)
        assert result.converged
        assert max(relative_errors(result.params, TRUTH)) <= 1e-6

    def test_one_percent_noise_recovery(self):
        # seeded Monte Carlo check; relative errors for seed 42 are
        # (7.0e-3, 5.6e-3, 1.2e-3), comfortably inside the 3% band
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=42)
        result = fit(ds, START)
        assert max(relative_errors(result.params, TRUTH)) <= 0.03

    def test_zero_curie_constant_recovered_as_zero(self):
        truth = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=0.0)
        ds = synth_dataset(truth, GRID, noise_rel=0.0, seed=0)
        result = fit(ds, START)
        assert result.params.curie_c <= 1e-8

    def test_reorder_invariance(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.005, seed=9)
        rng = np.random.default_rng(17)
        perm = rng.permutation(ds.n_points)
        shuffled = SusceptibilityDataset(
            temperatures=ds.temperatures[perm], chi=ds.chi[perm]
        )
        a = fit(ds, START)
        b = fit(shuffled, START)
        assert a.params == b.params
        assert a.cost_history == b.cost_history
        assert a.iterations == b.iterations

    def test_cost_history_never_increases(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=4)
        result = fit(ds, START)
        history = result.cost_history
        assert len(history) >= 2
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_round_trip_property_over_parameter_box(self):
        # randomized property run, fixed seed: truths drawn from
        # J in [-1200, -100], g in [1.8, 2.4], C in [0, 2e-4];
        # starts perturbed +-30 percent
        rng = np.random.default_rng(2027)
        for _ in range(8):
            truth = ModelParams(
                j_over_kb=float(rng.uniform(-1200.0, -100.0)),
                g=float(rng.uniform(1.8, 2.4)),
                curie_c=float(rng.uniform(0.0, 2e-4)),
            )
            start = ModelParams(
                j_over_kb=truth.j_over_kb * (1.0 + rng.uniform(-0.3, 0.3)),
                g=truth.g * (1.0 + rng.uniform(-0.3, 0.3)),
                curie_c=truth.curie_c * (1.0 + rng.uniform(-0.3, 0.3)),
            )
            ds = synth_dataset(truth, GRID, noise_rel=0.0, seed=0)
            result = fit(ds, start)
            errors = relative_errors(result.params, truth)
            assert errors[0] <= 1e-5 and errors[1] <= 1e-5
            if truth.curie_c > 1e-9:
                assert errors[2] <= 1e-5
            else:
                assert abs(result.params.curie_c - truth.curie_c) <= 1e-10

    def test_weighted_fit_uses_sigmas(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=13)
        weighted = SusceptibilityDataset(
            temperatures=ds.temperatures,
            chi=ds.chi,
            sigma=0.01 * np.abs(model_chi(TRUTH, ds.temperatures)),
        )
        result = fit(weighted, START)
        assert result.converged
        assert max(relative_errors(result.params, TRUTH)) <= 0.03
        # with sigma = 1% of the model, the weighted RMS per point is O(1)
        assert 0.1 <= result.residual_norm <= 10.0

    def test_too_few_points(self):
        ds = SusceptibilityDataset(
            temperatures=np.array([10.0, 50.0, 100.0]), chi=np.ones(3) * 1e-6
        )
        with pytest.raises(TooFewPointsError):
            fit(ds, START)

    def test_nonpositive_initial_g_cannot_be_expressed(self):
        with pytest.raises(ValueError):
            ModelParams(j_over_kb=-400.0, g=-2.0, curie_c=1e-5)

    def test_singular_jacobian_error_carries_iteration(self):
        from spindimer.errors import SingularJacobianError

        err = SingularJacobianError(17)
        assert err.iteration == 17
        assert "17" in str(err)

    def test_witness_metadata_carried_over(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.0, seed=0)
        start = ModelParams(j_over_kb=-400.0, g=2.0, curie_c=1e-5, n_spins=2, spin=0.5)
        assert fit(ds, start).params.n_spins == 2

    def test_covariance_diag_is_positive_and_finite(self):
        ds = synth_dataset(TRUTH, GRID, noise_rel=0.01, seed=21)
        result = fit(ds, START)
        assert result.covariance_diag.shape == (3,)
        assert np.all(np.isfinite(result.covariance_diag))
        assert np.all(result.covariance_diag > 0.0)

    def test_unweighted_covariance_in_physical_units(self):
        # Unscaled, (J^T J)^-1 of residuals in chi units reads ~2e17 K^2
        # here; times the residual variance it is ~7 K^2.  s^2 (J^T J)^-1
        # assumes equal absolute noise on every point, which 1 % relative
        # noise is closest to where chi varies least, so the grid stays
        # above 50 K.
        grid = np.logspace(np.log10(50.0), np.log10(700.0), 300)
        result = fit(synth_dataset(TRUTH, grid, noise_rel=0.01, seed=21), START)
        sigma_j = math.sqrt(result.covariance_diag[0])
        assert math.isfinite(sigma_j)
        assert 0.0 < sigma_j < 0.01 * abs(result.params.j_over_kb)
