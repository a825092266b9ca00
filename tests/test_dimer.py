"""Closed-form dimer model tests.

Frozen expected values were computed ahead of the implementation from the
defining formulas (and brute-force 4x4 algebra where applicable); anchor
temperatures exploit exact exponent identities, e.g. 693.15/100 = 10 ln 2
up to 4e-5 so exp() is essentially 1024 at 100 K.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindimer import two_qubit
from spindimer.constants import MU_B_OVER_K_B, susceptibility_from_reduced
from spindimer.dimer import (
    ModelParams,
    bell_closed,
    bell_from_chi,
    bisect_root,
    chi_dimer,
    chi_monomer,
    chi_total,
    concurrence_closed,
    concurrence_from_chi,
    reduced_chi_dimer,
    thermal_dimer_state,
    thresholds,
)
from spindimer.errors import NonPositiveTemperatureError, NotAntiferromagneticError

PAPER_LIKE = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=7.02e-5)
BELL_CEILING = 2.0 * math.sqrt(2.0)

T_ENTANGLEMENT = 630.9323199363922
T_BELL = 292.9376384703577
T_PLATEAU = 108.4416439862282

# Every closed form of T, each called with (PAPER_LIKE, T) or its equivalent.
CLOSED_FORMS_OF_T = {
    "reduced_chi_dimer": lambda p, t: reduced_chi_dimer(p.j_over_kb, t),
    "chi_dimer": chi_dimer,
    "chi_monomer": chi_monomer,
    "chi_total": chi_total,
    "concurrence_closed": concurrence_closed,
    "bell_closed": bell_closed,
    "concurrence_from_chi": lambda p, t: concurrence_from_chi(1e-6, t, p),
    "bell_from_chi": lambda p, t: bell_from_chi(1e-6, t, p),
}


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(j_over_kb=-1.0, g=0.0, curie_c=0.0)
        with pytest.raises(ValueError):
            ModelParams(j_over_kb=-1.0, g=2.0, curie_c=-1e-9)
        with pytest.raises(ValueError):
            ModelParams(j_over_kb=-1.0, g=2.0, curie_c=0.0, n_spins=0)

        for name in ("j_over_kb", "g", "curie_c", "spin"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                values = {"j_over_kb": -693.15, "g": 2.21, "curie_c": 7.02e-5, "spin": 0.5}
                values[name] = bad
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ModelParams(**values)


class TestChiDimer:
    def test_uncoupled_limit(self):
        # J = 0: 3 + e^0 = 4 at any temperature
        assert reduced_chi_dimer(0.0, 123.0) == pytest.approx(0.5, abs=1e-15)

    def test_entanglement_temperature_anchor(self):
        # exponent is exactly ln 3 at T = -J/(k_B ln 3)
        assert reduced_chi_dimer(-693.15, T_ENTANGLEMENT) == pytest.approx(
            1.0 / 3.0, abs=1e-14
        )

    def test_value_at_100k(self):
        assert reduced_chi_dimer(-693.15, 100.0) == pytest.approx(
            0.0019473649237642273, rel=1e-13
        )
        # coarse anchor: exp(6.93147) = 1024 so x is essentially 2/1027
        assert reduced_chi_dimer(-693.15, 100.0) == pytest.approx(2.0 / 1027.0, rel=1e-4)

    def test_chi_units(self):
        # chi_d = g^2 (mu_B/k_B) x / T
        value = chi_dimer(PAPER_LIKE, 300.0)
        x = reduced_chi_dimer(-693.15, 300.0)
        assert value == pytest.approx(2.21**2 * MU_B_OVER_K_B * x / 300.0, rel=1e-15)

    def test_overflow_guard(self):
        # -J/(k_B T) > 700: evaluated via the asymptotic branch, stays finite
        x = reduced_chi_dimer(-693.15, 0.5)
        assert x == 0.0 or x == pytest.approx(2.0 * math.exp(-693.15 / 0.5), rel=1e-12)
        assert concurrence_closed(PAPER_LIKE, 0.5) == 1.0
        assert bell_closed(PAPER_LIKE, 0.5) == pytest.approx(BELL_CEILING, abs=1e-15)
        x2 = reduced_chi_dimer(-693.15, 0.99)  # just above the overflow cutoff
        assert x2 == pytest.approx(2.0 * math.exp(-693.15 / 0.99), rel=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            chi_dimer(PAPER_LIKE, 0.0)
        with pytest.raises(NonPositiveTemperatureError):
            chi_dimer(PAPER_LIKE, -5.0)
        # NaN and +-inf are not temperatures either, as scalars or in arrays
        with pytest.raises(NonPositiveTemperatureError):
            reduced_chi_dimer(-100.0, math.nan)
        with pytest.raises(NonPositiveTemperatureError):
            chi_total(PAPER_LIKE, math.inf)
        for bad in (math.nan, math.inf, -math.inf, np.array([10.0, math.nan]),
                    np.array([[10.0], [0.0]])):
            for name, form in CLOSED_FORMS_OF_T.items():
                with pytest.raises(NonPositiveTemperatureError):
                    form(PAPER_LIKE, bad)
            with pytest.raises(NonPositiveTemperatureError):
                thermal_dimer_state(PAPER_LIKE, bad)


class TestArrayTemperatures:
    @given(
        j_over_kb=st.floats(-5000.0, 5000.0),
        temperatures=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=20),
    )
    def test_scalar_equals_array_element(self, j_over_kb, temperatures):
        params = ModelParams(j_over_kb=j_over_kb, g=2.21, curie_c=7.02e-5)
        grid = np.array(temperatures)
        for name, form in CLOSED_FORMS_OF_T.items():
            values = form(params, grid)
            assert isinstance(values, np.ndarray) and values.shape == grid.shape, name
            for t, value in zip(temperatures, values):
                scalar = form(params, t)
                assert type(scalar) is float, name
                assert scalar == value, name
        states = thermal_dimer_state(params, grid)
        assert states.shape == grid.shape + (4, 4)
        for t, state in zip(temperatures, states):
            assert np.array_equal(thermal_dimer_state(params, t), state)
        chi = chi_total(params, grid)
        witness = two_qubit.witness_from_chi(chi, grid, params.g, 3, 0.5)
        for k, t in enumerate(temperatures):
            scalar = two_qubit.witness_from_chi(float(chi[k]), t, params.g, 3, 0.5)
            assert type(scalar) is float
            assert scalar == witness[k]


class TestChiMonomerAndTotal:
    def test_zero_curie_constant(self):
        params = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=0.0)
        for temperature in (10.0, 300.0):
            assert chi_monomer(params, temperature) == 0.0
            assert chi_total(params, temperature) == chi_dimer(params, temperature)

    def test_curie_law_values(self):
        assert chi_monomer(PAPER_LIKE, 300.0) == pytest.approx(2.34e-7, rel=1e-15)
        assert chi_monomer(PAPER_LIKE, 70.2) == pytest.approx(1.0e-6, rel=1e-15)

    def test_uncoupled_dimer_total(self):
        params = ModelParams(j_over_kb=0.0, g=2.21, curie_c=7.02e-5)
        t = 200.0
        expected = 2.21**2 * MU_B_OVER_K_B / (2.0 * t) + 7.02e-5 / t
        assert chi_total(params, t) == pytest.approx(expected, rel=1e-14)

    def test_reduced_parts_at_300k(self):
        x_dimer = reduced_chi_dimer(-693.15, 300.0)
        x_monomer = 300.0 * chi_monomer(PAPER_LIKE, 300.0) / (2.21**2 * MU_B_OVER_K_B)
        assert x_dimer == pytest.approx(0.15291147508139707, rel=1e-13)
        assert x_monomer == pytest.approx(0.21397752737791148, rel=1e-13)


class TestThermalDimerState:
    def test_infinite_temperature_limit(self):
        # deviation from I/4 decays like J/(k_B T)
        rho = thermal_dimer_state(PAPER_LIKE, 1e15)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) <= 1e-12

    def test_zero_temperature_limit_is_singlet(self):
        rho = thermal_dimer_state(PAPER_LIKE, 0.01)
        singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        assert np.max(np.abs(rho - np.outer(singlet, singlet.conj()))) <= 1e-12

    def test_fluctuation_susceptibility_matches_chi_dimer(self):
        # fluctuation-dissipation on the 4x4 state itself
        from spindimer.quantum import spin_operator

        total_sz = spin_operator("z", 0, 2) + spin_operator("z", 1, 2)
        for temperature in (50.0, 300.0, 1000.0):
            rho = thermal_dimer_state(PAPER_LIKE, temperature)
            mean = np.trace(rho @ total_sz).real
            second = np.trace(rho @ total_sz @ total_sz).real
            chi = 2.21**2 * MU_B_OVER_K_B * (second - mean**2) / temperature
            assert chi == pytest.approx(chi_dimer(PAPER_LIKE, temperature), rel=1e-10)

    def test_is_valid_state(self):
        rho = thermal_dimer_state(PAPER_LIKE, 300.0)
        two_qubit.check_state(rho)


class TestConcurrenceClosed:
    def test_zero_exactly_at_entanglement_temperature(self):
        assert concurrence_closed(PAPER_LIKE, T_ENTANGLEMENT) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_plateau_value_at_100k(self):
        assert concurrence_closed(PAPER_LIKE, 100.0) == pytest.approx(
            0.9941579052287073, abs=1e-12
        )

    def test_uncoupled_dimer_is_separable(self):
        params = ModelParams(j_over_kb=0.0, g=2.0, curie_c=0.0)
        assert concurrence_closed(params, 10.0) == 0.0

    def test_ferromagnetic_is_separable_everywhere(self):
        params = ModelParams(j_over_kb=+693.15, g=2.0, curie_c=0.0)
        for temperature in (1.0, 100.0, 5000.0):
            assert concurrence_closed(params, temperature) == 0.0


class TestBellClosed:
    def test_zero_temperature_limit(self):
        assert bell_closed(PAPER_LIKE, 1e-2) == pytest.approx(BELL_CEILING, abs=1e-12)

    def test_value_at_100k(self):
        assert bell_closed(PAPER_LIKE, 100.0) == pytest.approx(
            2.8174111652018823, abs=1e-12
        )

    def test_threshold_crossing_near_292_9(self):
        assert bell_closed(PAPER_LIKE, 292.9) == pytest.approx(2.000196544224563, abs=1e-12)
        assert bell_closed(PAPER_LIKE, T_BELL) == pytest.approx(2.0, abs=1e-12)


class TestFromChiEquivalence:
    def test_concurrence_equivalence_on_log_grid(self):
        for temperature in np.logspace(0.0, math.log10(2000.0), 50):
            t = float(temperature)
            chi = chi_total(PAPER_LIKE, t)
            assert abs(
                concurrence_from_chi(chi, t, PAPER_LIKE) - concurrence_closed(PAPER_LIKE, t)
            ) <= 1e-12

    def test_bell_equivalence_on_log_grid(self):
        for temperature in np.logspace(0.0, math.log10(2000.0), 50):
            t = float(temperature)
            chi = chi_total(PAPER_LIKE, t)
            assert abs(
                bell_from_chi(chi, t, PAPER_LIKE) - bell_closed(PAPER_LIKE, t)
            ) <= 1e-12

    def test_bell_from_chi_mirrors_closed_anchors(self):
        for temperature, expected in (
            (1e-2, BELL_CEILING),
            (100.0, 2.8174111652018823),
            (292.9, 2.000196544224563),
        ):
            chi = chi_total(PAPER_LIKE, temperature)
            assert bell_from_chi(chi, temperature, PAPER_LIKE) == pytest.approx(
                expected, abs=1e-10
            )

    def test_dead_dimer_clamps_to_one(self):
        # chi = C/T exactly: the algebraic limit gives max(0, 1 - 0) = 1;
        # the CLI flags such rows as carrying no dimer signal
        chi = PAPER_LIKE.curie_c / 200.0
        assert concurrence_from_chi(chi, 200.0, PAPER_LIKE) == 1.0

    def test_witness_boundary_chi(self):
        # reduced dimer part exactly 1/3 -> concurrence 0
        chi = (
            susceptibility_from_reduced(1.0 / 3.0, 200.0, PAPER_LIKE.g)
            + PAPER_LIKE.curie_c / 200.0
        )
        assert concurrence_from_chi(chi, 200.0, PAPER_LIKE) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_100k_from_chi(self):
        chi = chi_total(PAPER_LIKE, 100.0)
        assert concurrence_from_chi(chi, 100.0, PAPER_LIKE) == pytest.approx(
            0.9941579052287073, abs=1e-10
        )


class TestWitnessConcurrenceIdentity:
    def test_pure_dimer_witness_equals_minus_concurrence(self):
        pure = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=0.0, n_spins=2, spin=0.5)
        for temperature in np.logspace(0.5, 3.2, 40):
            t = float(temperature)
            witness = two_qubit.witness_from_chi(chi_dimer(pure, t), t, pure.g, 2, 0.5)
            conc = concurrence_closed(pure, t)
            if conc > 0.0:
                assert witness == pytest.approx(-conc, abs=1e-12)
            else:
                assert witness >= -1e-12


class TestMonotonicityAndBounds:
    def test_reduced_chi_strictly_increasing_for_antiferromagnetic(self):
        grid = np.logspace(0.0, 3.5, 200)
        values = [reduced_chi_dimer(-693.15, float(t)) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_concurrence_nonincreasing(self):
        grid = np.logspace(0.0, 3.5, 200)
        values = [concurrence_closed(PAPER_LIKE, float(t)) for t in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_global_bounds(self):
        for temperature in np.logspace(-1.0, 4.0, 120):
            t = float(temperature)
            assert 0.0 <= concurrence_closed(PAPER_LIKE, t) <= 1.0
            assert 0.0 <= bell_closed(PAPER_LIKE, t) <= BELL_CEILING + 1e-15


class TestOracleEquivalence:
    def test_thermal_state_concurrence_matches_closed_form(self):
        for temperature in np.logspace(1.0, 3.0, 50):
            t = float(temperature)
            rho = thermal_dimer_state(PAPER_LIKE, t)
            assert abs(
                two_qubit.concurrence(rho) - concurrence_closed(PAPER_LIKE, t)
            ) <= 1e-10


class TestThresholds:
    def test_paper_like_values(self):
        ts = thresholds(PAPER_LIKE)
        assert ts.t_entanglement == pytest.approx(T_ENTANGLEMENT, abs=1e-9)
        assert ts.t_bell == pytest.approx(T_BELL, abs=1e-9)
        assert ts.t_plateau == pytest.approx(T_PLATEAU, abs=1e-9)
        assert abs(ts.t_entanglement - 630.9) < 0.1
        assert abs(ts.t_bell - 292.9) < 0.5
        assert abs(ts.t_plateau - 108.4) < 0.1

    def test_bisection_agrees_with_closed_forms(self):
        ts = thresholds(PAPER_LIKE)
        j = PAPER_LIKE.j_over_kb
        pairs = (
            (ts.t_entanglement, lambda t: reduced_chi_dimer(j, t) - 1.0 / 3.0),
            (ts.t_bell, lambda t: bell_closed(PAPER_LIKE, t) - 2.0),
            (ts.t_plateau, lambda t: concurrence_closed(PAPER_LIKE, t) - 0.99),
        )
        for closed, curve in pairs:
            root = bisect_root(curve, 0.5 * closed, 2.0 * closed, xtol=1e-8)
            assert abs(root - closed) <= 1e-6

    def test_ordering_invariant(self):
        for j in (-100.0, -693.15, -1200.0, -1e10, -1e12):
            for epsilon in (0.001, 0.01, 0.1):
                params = ModelParams(j_over_kb=j, g=2.0, curie_c=0.0)
                ts = thresholds(params, plateau_epsilon=epsilon)
                assert ts.t_plateau < ts.t_bell < ts.t_entanglement

    def test_scaling_with_coupling(self):
        # thresholds are proportional to |J|
        a = thresholds(ModelParams(j_over_kb=-200.0, g=2.0, curie_c=0.0))
        b = thresholds(ModelParams(j_over_kb=-400.0, g=2.0, curie_c=0.0))
        assert b.t_entanglement == pytest.approx(2.0 * a.t_entanglement, rel=1e-12)

    def test_rejects_non_antiferromagnetic(self):
        for j in (0.0, +50.0):
            with pytest.raises(NotAntiferromagneticError):
                thresholds(ModelParams(j_over_kb=j, g=2.0, curie_c=0.0))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            thresholds(PAPER_LIKE, plateau_epsilon=0.0)
        with pytest.raises(ValueError):
            thresholds(PAPER_LIKE, plateau_epsilon=1.0)
