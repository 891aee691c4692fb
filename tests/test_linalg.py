"""Eigendecomposition and convergence checks."""

import collections
import warnings

import numpy as np
import pytest

from reachmax.linalg import (
    TOL_DIAG,
    SpectralDecomposition,
    eig_decompose,
    spectral_radius_check,
)
from reachmax.errors import NotDiagonalizable

from support import OSC_A, rank_evaluator


class TestEigDecompose:
    def test_already_diagonal(self):
        dec = eig_decompose(np.diag([0.5, 0.25]))
        np.testing.assert_allclose(dec.D, [0.5, 0.25], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.U), np.eye(2), atol=1e-12)
        assert dec.rho == pytest.approx(0.5, abs=1e-12)

    def test_oscillator_eigenvalues(self):
        dec = eig_decompose(OSC_A)
        expected = np.array([(199 + 1j * np.sqrt(3)) / 200, (199 - 1j * np.sqrt(3)) / 200])
        np.testing.assert_allclose(dec.D, expected, atol=1e-12)
        assert dec.rho == pytest.approx(np.sqrt(9901) / 100, abs=1e-12)

    def test_jordan_block_rejected(self):
        with pytest.raises(NotDiagonalizable):
            eig_decompose(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_eigenvalue_order_is_modulus_then_real_then_imag(self):
        dec = eig_decompose(np.diag([0.1, -0.9, 0.9, 0.3]))
        np.testing.assert_allclose(dec.D, [0.9, -0.9, 0.3, 0.1], atol=1e-12)
        # complex pair: positive imaginary part first
        dec2 = eig_decompose(OSC_A)
        assert dec2.D[0].imag > 0 > dec2.D[1].imag

    def test_reconstruction_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            try:
                dec = eig_decompose(A)
            except NotDiagonalizable:
                continue
            scale = 1.0 + np.max(np.abs(A))
            err = np.max(np.abs(A - (dec.U * dec.D) @ dec.U_inv))
            assert err <= 1e-9 * scale
            assert np.max(np.abs(dec.U @ dec.U_inv - np.eye(d))) <= 1e-9
            assert dec.rho == pytest.approx(np.max(np.abs(dec.D)), abs=0.0)


def eigvec_matrix_with_condition(rng, d, cond):
    """A real d x d matrix S diag(D) S^-1 with cond(S) = cond and distinct real eigenvalues."""
    Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    S = Q1 @ np.diag(np.logspace(0.0, -np.log10(cond), d)) @ Q2
    return S @ np.diag(np.linspace(-0.9, 0.8, d)) @ np.linalg.inv(S)


class TestConditioningDecision:
    """eig_decompose accepts U exactly when np.linalg.cond(U) <= 1/TOL_DIAG, whether or not it runs the SVD."""

    def test_decision_matches_the_svd_on_either_side_of_the_limit(self):
        rng = np.random.default_rng(31)
        sides = collections.Counter()
        for _ in range(100):
            A = eigvec_matrix_with_condition(rng, int(rng.integers(2, 7)), 10.0 ** rng.uniform(6.0, 8.0))
            U = np.linalg.eig(A)[1]
            within = bool(np.linalg.cond(U) <= 1.0 / TOL_DIAG)
            try:
                eig_decompose(A)
                refused_for_conditioning = False
            except NotDiagonalizable as exc:
                # a reconstruction failure is a separate check, after the conditioning one
                refused_for_conditioning = "condition" in str(exc)
            assert refused_for_conditioning is not within
            frobenius = np.linalg.norm(U) * np.linalg.norm(np.linalg.inv(U))
            sides[within, bool(frobenius <= 0.5 / TOL_DIAG)] += 1
        # accepted without the SVD, accepted by it, refused by it
        assert min(sides[True, True], sides[True, False], sides[False, False]) >= 10

    def test_well_conditioned_matrices_need_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("eig_decompose computed cond(U)")

        matrices = [OSC_A, np.diag([0.5, 0.25])] + [
            np.random.default_rng(s).uniform(-1.0, 1.0, size=(5, 5)) for s in range(5)
        ]
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        for A in matrices:
            eig_decompose(A)

    def test_singular_eigenvector_matrix_is_not_diagonalizable(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eig", lambda A: (np.zeros(2), np.array([[1.0, 1.0], [0.0, 0.0]])))
        with pytest.raises(NotDiagonalizable, match="singular"):
            eig_decompose(np.zeros((2, 2)))

    @pytest.mark.parametrize("row, message", [(0, "reconstruction"), (1, "inverse check")])
    def test_a_perturbed_inverse_fails_its_check(self, monkeypatch, row, message):
        # A = diag(0.5, 0) has U = I; a perturbation of U^-1 in the row of eigenvalue 0
        # leaves U diag(D) U^-1 = A and shows only in U U^-1 - I
        original = np.linalg.inv

        def perturbed(M):
            M_inv = original(M)
            M_inv[row, 0] += 1e-6
            return M_inv

        monkeypatch.setattr(np.linalg, "inv", perturbed)
        with pytest.raises(NotDiagonalizable, match=message):
            eig_decompose(np.diag([0.5, 0.0]))

    def test_bounds_kept_on_the_decomposition(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 7))
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            dec = eig_decompose(A)
            frobenius = np.linalg.norm(dec.U) * np.linalg.norm(dec.U_inv)
            assert dec.cond_bound == pytest.approx(frobenius, rel=1e-12)
            assert np.linalg.cond(dec.U) <= dec.cond_bound
            residual = np.linalg.norm(A - (dec.U * dec.D) @ dec.U_inv, 2) + np.linalg.norm(
                dec.U @ dec.U_inv - np.eye(d), 2
            )
            assert residual <= dec.residual < 1e-10

    def test_nilpotent_block_is_refused_without_overflow_warnings(self):
        # U^-1 has entries near 1e292, so ||U^-1||_F overflows: the SVD decides instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotDiagonalizable, match="condition"):
                eig_decompose([[0.0, 1.0], [0.0, 0.0]])


class TestSpectralRadiusCheck:
    def test_oscillator_is_convergent(self):
        assert spectral_radius_check(eig_decompose(OSC_A))

    def test_boundary_radius_rejected(self):
        dec = SpectralDecomposition(
            U=np.eye(1, dtype=complex), D=np.array([1.0 + 0j]), U_inv=np.eye(1, dtype=complex), rho=1.0
        )
        assert not spectral_radius_check(dec)

    def test_zero_matrix_is_convergent(self):
        assert spectral_radius_check(eig_decompose(np.zeros((2, 2))))


def powers(A):
    """The solver's rank evaluator under x -> A x, for reading its matrix powers."""
    d = np.shape(A)[0]
    return rank_evaluator((np.eye(d), np.zeros(d)), A)


class TestMatrixPowerStep:
    """The power A^k that the solver's rank evaluator holds, one product per rank."""

    def test_scaled_identity(self):
        ev = powers(0.5 * np.eye(2))
        ev.objectives(1)
        np.testing.assert_allclose(ev.power, 0.5 * np.eye(2))

    def test_diagonal_powers(self):
        ev = powers(np.diag([0.5, 0.25]))
        ev.objectives(3)
        np.testing.assert_allclose(ev.power, np.diag([0.125, 0.015625]), atol=0.0)

    def test_oscillator_square_entry(self):
        ev = powers(OSC_A)
        ev.objectives(2)
        # hand multiplication: (1,1) entry of A^2 is 1*1 + 0.01*(-0.01)
        assert ev.power[0, 0] == pytest.approx(0.9999, abs=1e-15)

    def test_matches_spectral_powers(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            d = int(rng.integers(2, 5))
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            rho = np.max(np.abs(np.linalg.eigvals(A)))
            if rho == 0.0:
                continue
            A *= rng.uniform(0.3, 0.95) / rho
            try:
                dec = eig_decompose(A)
            except NotDiagonalizable:
                continue
            ev = powers(A)
            for k in range(1, 51):
                ev.objectives(1)
                assert ev.k == k
                ref = np.real((dec.U * dec.D**k) @ dec.U_inv)
                assert np.max(np.abs(ev.power - ref)) <= 1e-7
            checked += 1
