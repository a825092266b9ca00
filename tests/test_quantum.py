"""Dense linear algebra and spin-operator tests."""

import numpy as np
import pytest

from spindimer.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotHermitianError,
    SiteOutOfRangeError,
    TooManySitesError,
)
from spindimer.quantum import (
    IDENTITY_2,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    hermitian_eig,
    kron,
    partial_trace,
    spin_operator,
    total_sz_diagonal,
)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_sigma_x_pair_flips_00_to_11(self):
        ket00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        ket11 = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        assert np.allclose(kron(SIGMA_X, SIGMA_X) @ ket00, ket11)

    def test_mixed_product_identity(self):
        # (A x B)(C x D) = (AC) x (BD) on random small matrices
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            assert np.max(np.abs(left - right)) <= 1e-12


class TestPauliAlgebra:
    def test_squares_are_identity(self):
        for sigma in PAULI.values():
            assert np.allclose(sigma @ sigma, IDENTITY_2, atol=1e-15)

    def test_trace_orthogonality(self):
        labels = "xyz"
        for a in labels:
            for b in labels:
                expected = 2.0 if a == b else 0.0
                assert abs(np.trace(PAULI[a] @ PAULI[b]) - expected) < 1e-15

    def test_commutator(self):
        assert np.allclose(
            SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z, atol=1e-15
        )


class TestHermitianEig:
    def test_sigma_z(self):
        dec = hermitian_eig(SIGMA_Z)
        assert np.allclose(dec.values, [-1.0, 1.0])

    def test_identity_4(self):
        dec = hermitian_eig(np.eye(4))
        assert np.allclose(dec.values, np.ones(4))
        assert np.allclose(dec.vectors, np.eye(4))

    def test_random_reconstruction(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        dec = hermitian_eig(a)
        norm = np.linalg.norm(a)
        recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * norm
        for k in range(8):
            residual = a @ dec.vectors[:, k] - dec.values[k] * dec.vectors[:, k]
            assert np.linalg.norm(residual) <= 1e-10 * norm

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(rng, 12)
        dec = hermitian_eig(a)
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(9)
        for n in (2, 5, 9):
            a = random_hermitian(rng, n)
            dec = hermitian_eig(a)
            assert abs(dec.values.sum() - np.trace(a).real) <= 1e-10 * max(
                1.0, np.linalg.norm(a)
            )

    def test_matches_reference_eigenvalues(self):
        # independent cross-check against the LAPACK route
        rng = np.random.default_rng(10)
        a = random_hermitian(rng, 16)
        dec = hermitian_eig(a)
        assert np.max(np.abs(dec.values - np.linalg.eigvalsh(a))) <= 1e-10

    def test_ascending_order(self):
        rng = np.random.default_rng(12)
        dec = hermitian_eig(random_hermitian(rng, 10))
        assert np.all(np.diff(dec.values) >= 0.0)

    def test_deterministic_including_phases(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 6)
        first = hermitian_eig(a)
        second = hermitian_eig(a.copy())
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_phase_convention_leading_component_real_positive(self):
        rng = np.random.default_rng(14)
        dec = hermitian_eig(random_hermitian(rng, 5))
        for k in range(5):
            col = dec.vectors[:, k]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead.real > 0.0
            assert abs(lead.imag) <= 1e-12 * abs(lead)

    def test_phase_convention_skips_zero_leading_components(self):
        # In 1 (+) A every eigenvector of A has a zero first row, so the
        # convention must fix the phase on a later row.
        rng = np.random.default_rng(15)
        a = np.block(
            [
                [np.ones((1, 1)), np.zeros((1, 3))],
                [np.zeros((3, 1)), random_hermitian(rng, 3)],
            ]
        )
        dec = hermitian_eig(a)
        norm = np.linalg.norm(a)
        recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * norm
        zero_first_row = 0
        for k in range(4):
            col = dec.vectors[:, k]
            lead_index = np.nonzero(np.abs(col) > 1e-12)[0][0]
            zero_first_row += lead_index > 0
            lead = col[lead_index]
            assert lead.real > 0.0
            assert abs(lead.imag) <= 1e-12 * abs(lead)
        assert zero_first_row == 3

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionTooLargeError):
            hermitian_eig(np.eye(4097))


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        rho = np.outer(SINGLET, SINGLET.conj())
        reduced = partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(reduced, np.eye(2) / 2.0, atol=1e-14)

    def test_product_state(self):
        ket0 = np.array([1.0, 0.0], dtype=complex)
        ket1 = np.array([0.0, 1.0], dtype=complex)
        rho = kron(np.outer(ket0, ket0), np.outer(ket1, ket1))
        reduced = partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(reduced, np.outer(ket0, ket0), atol=1e-15)

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            reduced = partial_trace(rho, [2, 2, 2], keep=keep)
            assert abs(np.trace(reduced) - 1.0) <= 1e-12
            assert np.max(np.abs(reduced - reduced.conj().T)) <= 1e-12

    @pytest.mark.parametrize("keep", ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]))
    def test_stack_equals_per_matrix_calls(self, keep):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8))
        stack = a @ a.conj().swapaxes(-1, -2)
        reduced = partial_trace(stack, [2, 2, 2], keep=keep)
        kept_dim = 2 ** len(keep)
        assert reduced.shape == (2, 3, kept_dim, kept_dim)
        for index in np.ndindex(2, 3):
            assert np.array_equal(reduced[index], partial_trace(stack[index], [2, 2, 2], keep))

    def test_three_qubit_thermal_decoupled_site(self):
        # with the third site uncoupled, tracing it out must reproduce the
        # directly constructed two-site thermal state, and the reduced
        # monomer state is maximally mixed
        from spindimer.spin_chain import dimer_plus_monomer_spec, dimer_spec, thermal_state

        trimer = dimer_plus_monomer_spec(-693.15, 0.0, 2.21)
        rho = thermal_state(trimer, 150.0)
        pair = partial_trace(rho, [2, 2, 2], keep=[0, 1])
        direct = thermal_state(dimer_spec(-693.15, 2.21), 150.0)
        assert np.max(np.abs(pair - direct)) <= 1e-12
        monomer = partial_trace(rho, [2, 2, 2], keep=[2])
        assert np.allclose(monomer, np.eye(2) / 2.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4) / 4.0, [2, 3], keep=[0])
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(4) / 4.0, [2, 2], keep=[2])
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.zeros((3, 4, 4)), [2, 3], keep=[0])
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.zeros(4), [2, 2], keep=[0])


class TestSpinOperator:
    def test_single_site_z(self):
        assert np.allclose(spin_operator("z", 0, 1), np.diag([0.5, -0.5]))

    def test_total_sz_annihilates_m0_state(self):
        ket01 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        total = spin_operator("z", 0, 2) + spin_operator("z", 1, 2)
        assert np.allclose(total @ ket01, 0.0, atol=1e-15)

    def test_su2_commutator_any_site(self):
        for site, n_sites in ((0, 1), (1, 3), (2, 4)):
            sx = spin_operator("x", site, n_sites)
            sy = spin_operator("y", site, n_sites)
            sz = spin_operator("z", site, n_sites)
            assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)

    def test_total_sz_diagonal_matches_operators(self):
        for n_sites in (1, 2, 3):
            total = sum(spin_operator("z", s, n_sites) for s in range(n_sites))
            assert np.allclose(np.diag(total).real, total_sz_diagonal(n_sites))

    def test_site_out_of_range(self):
        with pytest.raises(SiteOutOfRangeError):
            spin_operator("z", 2, 2)

    def test_too_many_sites(self):
        with pytest.raises(TooManySitesError):
            spin_operator("z", 0, 13)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            spin_operator("w", 0, 1)
