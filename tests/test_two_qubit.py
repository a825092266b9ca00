"""Concurrence, Bell-CHSH and witness tests for two-qubit states."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spindimer.constants import susceptibility_from_reduced
from spindimer.errors import InvalidStateError, NonPositiveTemperatureError
from spindimer.quantum import kron
from spindimer.two_qubit import (
    DEFAULT_BELL_DIRECTIONS,
    BellDirections,
    bell_expectation,
    bell_operator,
    check_state,
    chsh_maximum,
    concurrence,
    correlation_matrix,
    witness_from_chi,
)

BELL_CEILING = 2.0 * np.sqrt(2.0)
SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET_STATE = np.outer(SINGLET, SINGLET.conj())
MIXED_STATE = np.eye(4, dtype=complex) / 4.0


def werner(p):
    return p * SINGLET_STATE + (1.0 - p) * MIXED_STATE


def random_state(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n=2):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_directions(rng):
    vecs = rng.standard_normal((4, 3))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return BellDirections(*vecs)


class TestConcurrence:
    def test_singlet_is_maximal(self):
        assert concurrence(SINGLET_STATE) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_separable(self):
        assert concurrence(MIXED_STATE) == 0.0

    def test_werner_half(self):
        # frozen from the brute-force eigenvalue route (general complex
        # eigensolver on R itself)
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_werner_family_closed_form(self):
        for p in np.linspace(0.0, 1.0, 50):
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence(werner(float(p))) == pytest.approx(expected, abs=1e-10)

    def test_matches_brute_force_on_random_states(self):
        # oracle route: general complex eigensolver on R = rho YY rho* YY
        from spindimer.quantum import SIGMA_Y

        yy = kron(SIGMA_Y, SIGMA_Y)
        rng = np.random.default_rng(42)
        for _ in range(25):
            rho = random_state(rng)
            r = rho @ yy @ rho.conj() @ yy
            lams = np.sort(np.abs(np.linalg.eigvals(r)))[::-1]
            roots = np.sqrt(lams)
            expected = max(0.0, roots[0] - roots[1] - roots[2] - roots[3])
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            rho = random_state(rng)
            u = kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            rotated = 0.5 * (rotated + rotated.conj().T)  # scrub round-off skew
            assert abs(concurrence(rotated) - concurrence(rho)) <= 1e-10

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            value = concurrence(random_state(rng))
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_rejects_invalid_states(self):
        with pytest.raises(InvalidStateError):
            concurrence(np.eye(4))  # trace 4
        with pytest.raises(InvalidStateError):
            concurrence(np.diag([1.5, -0.5, 0.0, 0.0]))  # negative eigenvalue
        bad = MIXED_STATE.copy()
        bad[0, 1] = 0.1  # not Hermitian
        with pytest.raises(InvalidStateError):
            concurrence(bad)
        with pytest.raises(InvalidStateError):
            concurrence(np.eye(2) / 2.0)  # wrong shape


class TestBellExpectation:
    def test_default_directions_reduce_to_zz_plus_xx(self):
        from spindimer.quantum import SIGMA_X, SIGMA_Z

        expected = np.sqrt(2.0) * (kron(SIGMA_Z, SIGMA_Z) + kron(SIGMA_X, SIGMA_X))
        assert np.max(np.abs(bell_operator(DEFAULT_BELL_DIRECTIONS) - expected)) <= 1e-14

    def test_singlet_maximal_violation(self):
        value = bell_expectation(SINGLET_STATE)
        assert abs(value) == pytest.approx(BELL_CEILING, abs=1e-12)

    def test_maximally_mixed_vanishes(self):
        rng = np.random.default_rng(6)
        assert bell_expectation(MIXED_STATE) == pytest.approx(0.0, abs=1e-14)
        assert bell_expectation(MIXED_STATE, random_directions(rng)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_product_state_00(self):
        # direct 4x4 trace oracle: <00|B|00> = sqrt(2) (zz term 1, xx term 0)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert bell_expectation(rho) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_linear_in_state(self):
        rng = np.random.default_rng(77)
        rho_a, rho_b = random_state(rng), random_state(rng)
        dirs = random_directions(rng)
        for alpha in (0.0, 0.25, 0.7, 1.0):
            mixture = alpha * rho_a + (1.0 - alpha) * rho_b
            expected = alpha * bell_expectation(rho_a, dirs) + (
                1.0 - alpha
            ) * bell_expectation(rho_b, dirs)
            assert bell_expectation(mixture, dirs) == pytest.approx(expected, abs=1e-12)

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            BellDirections(
                n1=[0.0, 0.0, 2.0],
                n2=[1.0, 0.0, 0.0],
                n3=[0.0, 1.0, 0.0],
                n4=[1.0, 0.0, 0.0],
            )

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            bell_expectation(np.eye(4))
        with pytest.raises(InvalidStateError):
            chsh_maximum(np.eye(4))


class TestChshMaximum:
    def test_singlet(self):
        assert chsh_maximum(SINGLET_STATE) == pytest.approx(BELL_CEILING, abs=1e-12)

    def test_product_states_respect_classical_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho_a = a @ a.conj().T
            rho_b = b @ b.conj().T
            rho = kron(rho_a / np.trace(rho_a).real, rho_b / np.trace(rho_b).real)
            assert chsh_maximum(rho) <= 2.0 + 1e-10

    def test_upper_bounds_any_direction_set(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            rho = random_state(rng)
            maximum = chsh_maximum(rho)
            assert maximum <= BELL_CEILING + 1e-10
            assert abs(bell_expectation(rho, random_directions(rng))) <= maximum + 1e-10

    def test_thermal_dimer_default_directions_are_optimal(self):
        from spindimer.dimer import ModelParams, thermal_dimer_state

        params = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=0.0)
        for temperature in (50.0, 300.0, 650.0, 2000.0):
            rho = thermal_dimer_state(params, temperature)
            assert chsh_maximum(rho) == pytest.approx(
                abs(bell_expectation(rho)), abs=1e-10
            )


class TestWitnessFromChi:
    def test_boundary(self):
        # reduced chi of exactly 1/3 sits on the witness boundary for N=2, S=1/2
        chi = susceptibility_from_reduced(1.0 / 3.0, 150.0, 2.0)
        assert witness_from_chi(chi, 150.0, 2.0, 2, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_model_chi_at_room_temperature(self):
        from spindimer.dimer import ModelParams, chi_total

        params = ModelParams(j_over_kb=-693.15, g=2.21, curie_c=7.02e-5)
        value = witness_from_chi(chi_total(params, 300.0), 300.0, 2.21, 3, 0.5)
        assert value == pytest.approx(-0.2662219950813829, abs=1e-12)
        assert -0.28 <= value <= -0.26

    def test_infinite_temperature_dimer_limit(self):
        # reduced chi -> 1/2 for a dead coupling; EW = +0.5 (separable)
        chi = susceptibility_from_reduced(0.5, 400.0, 2.21)
        assert witness_from_chi(chi, 400.0, 2.21, 2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            witness_from_chi(1e-6, 0.0, 2.0, 2, 0.5)
        for bad in (np.nan, np.inf, -np.inf, np.array([300.0, np.nan])):
            with pytest.raises(NonPositiveTemperatureError):
                witness_from_chi(1e-3, bad, 2.0, 3, 0.5)

    def test_bad_spin_count(self):
        with pytest.raises(ValueError):
            witness_from_chi(1e-6, 10.0, 2.0, 0, 0.5)


def random_stack(rng, shape):
    """A stack of the given shape of random density matrices, all of one random rank 1..4."""
    rank = int(rng.integers(1, 5))
    a = rng.standard_normal(shape + (4, rank)) + 1j * rng.standard_normal(shape + (4, rank))
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


STACK_SHAPES = st.sampled_from([(1,), (5,), (2, 3)])


class TestStacks:
    @given(seed=st.integers(0, 2**32 - 1), shape=STACK_SHAPES)
    def test_stack_equals_per_matrix_calls(self, seed, shape):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, shape)
        stack[(0,) * len(shape)] = SINGLET_STATE  # a C = 1, rank-1 member
        dirs = random_directions(rng)
        measures = {
            "concurrence": concurrence,
            "bell_expectation": lambda rho: bell_expectation(rho, dirs),
            "chsh_maximum": chsh_maximum,
            "correlation_matrix": correlation_matrix,
        }
        for name, measure in measures.items():
            values = measure(stack)
            for index in np.ndindex(shape):
                single = measure(stack[index])
                if name != "correlation_matrix":
                    assert type(single) is float, name
                assert np.max(np.abs(values[index] - single)) <= 1e-14, name

    @given(seed=st.integers(0, 2**32 - 1), shape=STACK_SHAPES,
           fault=st.sampled_from(["not_hermitian", "trace", "not_psd"]))
    def test_check_state_rejects_one_bad_matrix(self, seed, shape, fault):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, shape)
        check_state(stack)
        index = tuple(int(rng.integers(n)) for n in shape)
        if fault == "not_hermitian":
            stack[index + (0, 1)] += 1e-6
        elif fault == "trace":
            stack[index] *= 1.0 + 1e-6
        else:
            stack[index] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(InvalidStateError):
            check_state(stack)
        with pytest.raises(InvalidStateError):
            concurrence(stack)
