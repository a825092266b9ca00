"""Exact-diagonalization oracle tests.

The dimer spectrum anchor: H = -J S1.S2 puts the singlet at 3J/4 and the
threefold triplet at -J/4, so J/k_B = -693.15 K gives {-519.8625 K,
+173.2875 K (x3)} and a gap of 693.15 K.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindimer.constants import MU_B_OVER_K_B
from spindimer.dimer import ModelParams, chi_dimer, chi_total, concurrence_closed
from spindimer.errors import (
    NonPositiveTemperatureError,
    NonUniformGError,
    SiteOutOfRangeError,
    TooManySitesError,
)
from spindimer.quantum import total_sz_diagonal
from spindimer.spin_chain import (
    SpinChainSpec,
    build_hamiltonian,
    dimer_plus_monomer_spec,
    dimer_spec,
    fluctuation_susceptibility,
    mean_energy,
    pair_concurrence,
    thermal_ensemble,
    thermal_state,
    thermal_state_from_hamiltonian,
)
from spindimer.validate import (
    jprime_sweep,
    run_decoupling_suite,
    run_equivalence_suite,
    temperature_grid,
)

PAPER_LIKE = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=0.0)
DIMER = dimer_spec(-693.15, 2.21)


class TestSpecValidation:
    def test_rejects_too_many_sites(self):
        with pytest.raises(TooManySitesError):
            SpinChainSpec(n_sites=13, bonds=(), g_factors=(2.0,) * 13)

    def test_rejects_self_bond(self):
        with pytest.raises(ValueError):
            SpinChainSpec(n_sites=2, bonds=((0, 0, -1.0),), g_factors=(2.0, 2.0))

    def test_rejects_out_of_range_bond(self):
        with pytest.raises(SiteOutOfRangeError):
            SpinChainSpec(n_sites=2, bonds=((0, 2, -1.0),), g_factors=(2.0, 2.0))

    def test_rejects_duplicate_bond(self):
        with pytest.raises(ValueError):
            SpinChainSpec(
                n_sites=2, bonds=((0, 1, -1.0), (1, 0, -2.0)), g_factors=(2.0, 2.0)
            )

    def test_rejects_wrong_g_count(self):
        with pytest.raises(ValueError):
            SpinChainSpec(n_sites=2, bonds=(), g_factors=(2.0,))


class TestBuildHamiltonian:
    def test_dimer_spectrum(self):
        values = np.sort(np.linalg.eigvalsh(build_hamiltonian(DIMER)))
        assert np.allclose(values, [-519.8625, 173.2875, 173.2875, 173.2875], atol=1e-10)

    def test_uncoupled_sites_give_zero(self):
        spec = SpinChainSpec(n_sites=2, bonds=(), g_factors=(2.0, 2.0))
        assert np.max(np.abs(build_hamiltonian(spec))) == 0.0

    def test_decoupled_third_site_doubles_spectrum(self):
        trimer = dimer_plus_monomer_spec(-693.15, 0.0, 2.21)
        values = np.sort(np.linalg.eigvalsh(build_hamiltonian(trimer)))
        dimer_values = np.sort(np.linalg.eigvalsh(build_hamiltonian(DIMER)))
        assert np.allclose(values, np.sort(np.repeat(dimer_values, 2)), atol=1e-10)

    def test_commutes_with_total_sz(self):
        specs = (
            DIMER,
            dimer_plus_monomer_spec(-693.15, -20.0, 2.21),
            SpinChainSpec(
                n_sites=5,
                bonds=((0, 1, -100.0), (1, 2, -55.0), (2, 3, 30.0), (3, 4, -7.0)),
                g_factors=(2.0,) * 5,
            ),
        )
        for spec in specs:
            h = build_hamiltonian(spec)
            sz = np.diag(total_sz_diagonal(spec.n_sites).astype(complex))
            assert np.max(np.abs(h @ sz - sz @ h)) <= 1e-12 * max(
                1.0, np.linalg.norm(h)
            )

    def test_hermitian(self):
        h = build_hamiltonian(dimer_plus_monomer_spec(-693.15, -5.0, 2.21))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12


class TestThermalState:
    def test_infinite_temperature_limit(self):
        # leading deviation from I/2^n scales like |J|/T
        rho = thermal_state(dimer_spec(-10.0, 2.0), 1e9)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) <= 1e-8
        rho = thermal_state(DIMER, 1e10)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) <= 1e-8

    def test_singlet_population_at_300k(self):
        ens = thermal_ensemble(DIMER, 300.0)
        k = np.exp(693.15 / 300.0)
        assert ens.weights[0] == pytest.approx(k / (3.0 + k), rel=1e-12)
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_dimer_state(self):
        from spindimer.dimer import thermal_dimer_state

        for temperature in (50.0, 300.0, 2000.0):
            oracle = thermal_state(DIMER, temperature)
            closed = thermal_dimer_state(PAPER_LIKE, temperature)
            assert np.max(np.abs(oracle - closed)) <= 1e-10

    def test_mean_energy_nondecreasing_in_temperature(self):
        spec = dimer_plus_monomer_spec(-693.15, -30.0, 2.21)
        grid = np.logspace(0.5, 3.5, 25)
        energies = [mean_energy(spec, float(t)) for t in grid]
        assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))

    def test_shift_invariance(self):
        h = build_hamiltonian(DIMER)
        rho = thermal_state_from_hamiltonian(h, 200.0)
        shifted = thermal_state_from_hamiltonian(h + 1e4 * np.eye(4), 200.0)
        assert np.max(np.abs(rho - shifted)) <= 1e-12

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            thermal_state(DIMER, 0.0)
        h = build_hamiltonian(DIMER)
        for bad in (0.0, np.nan, np.inf, -np.inf, np.array([100.0, -5.0])):
            with pytest.raises(NonPositiveTemperatureError):
                thermal_state(DIMER, bad)
            with pytest.raises(NonPositiveTemperatureError):
                thermal_state_from_hamiltonian(h, bad)


class TestFluctuationSusceptibility:
    def test_dimer_matches_closed_form(self):
        for temperature in (50.0, 100.0, 300.0, 630.93, 1000.0):
            oracle = fluctuation_susceptibility(DIMER, temperature)
            closed = chi_dimer(PAPER_LIKE, temperature)
            assert abs(oracle - closed) <= 1e-10 * closed

    def test_free_spin_curie_law(self):
        spec = SpinChainSpec(n_sites=1, bonds=(), g_factors=(2.21,))
        curie_constant = 2.21**2 * MU_B_OVER_K_B / 4.0
        assert curie_constant == pytest.approx(8.2017958685e-5, rel=1e-10)
        for temperature in (10.0, 100.0, 500.0):
            assert fluctuation_susceptibility(spec, temperature) == pytest.approx(
                curie_constant / temperature, rel=1e-12
            )

    def test_decoupled_trimer_reproduces_superposition(self):
        trimer = dimer_plus_monomer_spec(-693.15, 0.0, 2.21)
        params = ModelParams(
            j_over_kb=-693.15, g=2.21, curie_c=2.21**2 * MU_B_OVER_K_B / 4.0
        )
        for temperature in temperature_grid(count=20):
            t = float(temperature)
            oracle = fluctuation_susceptibility(trimer, t)
            closed = chi_total(params, t)
            assert abs(oracle - closed) <= 1e-10 * closed

    def test_positive_at_all_temperatures(self):
        spec = dimer_plus_monomer_spec(-693.15, -20.0, 2.21)
        for temperature in np.logspace(0.0, 3.5, 30):
            assert fluctuation_susceptibility(spec, float(temperature)) > 0.0

    def test_rejects_nonuniform_g(self):
        spec = SpinChainSpec(n_sites=2, bonds=((0, 1, -100.0),), g_factors=(2.0, 2.3))
        with pytest.raises(NonUniformGError):
            fluctuation_susceptibility(spec, 100.0)


class TestPairConcurrence:
    def test_dimer_sweep_matches_closed_form(self):
        for temperature in temperature_grid(count=20):
            t = float(temperature)
            oracle = pair_concurrence(DIMER, t, (0, 1))
            closed = concurrence_closed(PAPER_LIKE, t)
            assert abs(oracle - closed) <= 1e-10 * max(closed, 1.0)

    def test_decoupled_trimer_pairs(self):
        trimer = dimer_plus_monomer_spec(-693.15, 0.0, 2.21)
        for temperature in (50.0, 100.0, 300.0):
            assert pair_concurrence(trimer, temperature, (0, 1)) == pytest.approx(
                concurrence_closed(PAPER_LIKE, temperature), abs=1e-10
            )
            assert pair_concurrence(trimer, temperature, (1, 2)) == 0.0

    def test_weak_coupling_perturbative_regression(self):
        # J'/J = 0.01 moves the dimer-pair concurrence at 100 K by ~4e-5;
        # the spec-level claim is < 1e-3, the band below is the regression.
        trimer = dimer_plus_monomer_spec(-693.15, 0.01 * -693.15, 2.21)
        deviation = abs(
            pair_concurrence(trimer, 100.0, (0, 1)) - concurrence_closed(PAPER_LIKE, 100.0)
        )
        assert deviation < 1e-3
        assert 1e-5 < deviation < 1e-4

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            pair_concurrence(DIMER, 100.0, (0, 0))
        with pytest.raises(SiteOutOfRangeError):
            pair_concurrence(DIMER, 100.0, (0, 5))


class TestArrayTemperatures:
    SPECS = (
        DIMER,
        dimer_plus_monomer_spec(-693.15, -20.0, 2.21),
        SpinChainSpec(
            n_sites=4, bonds=((0, 1, -300.0), (1, 2, -15.0), (2, 3, -300.0)),
            g_factors=(2.0,) * 4,
        ),
    )

    @settings(max_examples=30)
    @given(
        spec=st.sampled_from(SPECS),
        temperatures=st.lists(st.floats(0.5, 1e5), min_size=1, max_size=12),
    )
    def test_scalar_equals_array_element(self, spec, temperatures):
        grid = np.array(temperatures)
        h = build_hamiltonian(spec)
        chi_scale = spec.g_factors[0] ** 2 * MU_B_OVER_K_B * spec.n_sites / 4.0  # Curie, times T
        energy_scale = sum(abs(j) for _, _, j in spec.bonds)
        # function of T, absolute tolerance at T; a stack goes through
        # matrix-matrix products where one T goes through matrix-vector ones,
        # which may round differently, so equality is to rounding of the
        # largest term summed
        functions = {
            "fluctuation_susceptibility": (
                lambda t: fluctuation_susceptibility(spec, t), lambda t: 1e-14 * chi_scale / t),
            "pair_concurrence": (lambda t: pair_concurrence(spec, t, (0, 1)), lambda t: 1e-14),
            "mean_energy": (lambda t: mean_energy(spec, t), lambda t: 1e-14 * energy_scale),
            "thermal_state": (lambda t: thermal_state(spec, t), lambda t: 1e-14),
            "thermal_state_from_hamiltonian": (
                lambda t: thermal_state_from_hamiltonian(h, t), lambda t: 1e-14),
        }
        for name, (function, tolerance) in functions.items():
            values = function(grid)
            is_state = name.startswith("thermal_state")
            shape = grid.shape + ((spec.dimension,) * 2 if is_state else ())
            assert values.shape == shape, name
            for t, value in zip(temperatures, values):
                scalar = function(t)
                if not is_state:
                    assert type(scalar) is float, name
                assert np.max(np.abs(scalar - value)) <= tolerance(t), name


class TestEquivalenceSuites:
    def test_dimer_families_within_tolerance(self):
        for family in run_equivalence_suite():
            assert family.passed, f"{family.name}: {family.max_deviation:.3e}"

    def test_decoupling_families_within_tolerance(self):
        for family in run_decoupling_suite():
            assert family.passed, f"{family.name}: {family.max_deviation:.3e}"

    def test_fault_injection_is_detected(self):
        families = run_equivalence_suite(fault=1e-6)
        assert any(not family.passed for family in families)

    def test_jprime_sweep_shape_and_monotonicity(self):
        rows = jprime_sweep()
        assert len(rows) == 5
        assert all(len(row) == 5 for row in rows)
        deviations = [row[4] for row in rows]
        assert all(b >= a - 1e-12 for a, b in zip(deviations, deviations[1:]))


class TestSixSiteChain:
    # alternating strong-dimer / weak-link motif, independent LAPACK cross-check
    SPEC = SpinChainSpec(
        n_sites=6,
        bonds=(
            (0, 1, -693.15),
            (2, 3, -693.15),
            (4, 5, -693.15),
            (1, 2, -7.0),
            (3, 4, -7.0),
        ),
        g_factors=(2.21,) * 6,
    )

    def test_commutes_with_total_sz(self):
        h = build_hamiltonian(self.SPEC)
        sz = np.diag(total_sz_diagonal(6).astype(complex))
        assert np.max(np.abs(h @ sz - sz @ h)) <= 1e-12 * np.linalg.norm(h)

    def test_susceptibility_matches_reference_route(self):
        h = build_hamiltonian(self.SPEC)
        values, vectors = np.linalg.eigh(h)
        weights = np.exp(-(values - values[0]) / 150.0)
        weights /= weights.sum()
        populations = (np.abs(vectors) ** 2) @ weights
        mz = total_sz_diagonal(6)
        reference = (
            2.21**2
            * MU_B_OVER_K_B
            * (populations @ (mz * mz) - (populations @ mz) ** 2)
            / 150.0
        )
        value = fluctuation_susceptibility(self.SPEC, 150.0)
        assert value == pytest.approx(reference, rel=1e-10)

    def test_thermal_state_is_physical(self):
        rho = thermal_state(self.SPEC, 150.0)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


class TestEigensystemCache:
    def test_cache_reused_across_temperatures(self):
        from spindimer.spin_chain import _eigensystem

        spec = dimer_spec(-450.0, 2.0)
        first = _eigensystem(spec)
        again = _eigensystem(dimer_spec(-450.0, 2.0))  # equal spec, same cache entry
        assert first is again
        info = _eigensystem.cache_info()
        assert info.hits >= 1
