"""Dense real/complex linear algebra for the solver core.

Everything downstream consumes the spectral factorization A = U diag(D) U^-1
produced here: the convergence check on the spectral radius, the product
U* Q U whose largest eigenvalue `bounds` takes, and U^-1, from which `bounds`
takes the per-mode maxima m_i = max |(U^-1 x)_i|^2 and the envelope
constant M = sum_i m_i. A solve has two conditioning limits, cond(U) <=
1/TOL_DIAG = 1e7 here and cond(I - A) <= SHIFT_COND_LIMIT = 1e12 in the
affine reduction, and `condition_exceeds` decides both the same way: the
product ||M||_F ||M^-1||_F of a matrix and its computed inverse, an upper
bound on cond_2(M), accepts most matrices at a fraction of the cost of an
SVD, and np.linalg.cond decides the rest, so the accepted matrices are
those the SVD accepts. Complex arithmetic is used throughout even when A
has only real eigenvalues, so there is a single code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotDiagonalizable

# Acceptance thresholds for a factorization (entrywise max norm).
TOL_RECON = 1e-9
# A decomposition is rejected when cond(U) exceeds 1/TOL_DIAG: the envelope's L*M
# grows like cond(U)^2.
TOL_DIAG = 1e-7
# The affine reduction is rejected when cond(I - A) exceeds this: the fixed point
# (I - A)^-1 b would carry no reliable digits.
SHIFT_COND_LIMIT = 1e12
# Strict-convergence margin: rho < 1 - TOL_RHO.
TOL_RHO = 1e-12


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenbasis factorization A = U diag(D) U_inv.

    Eigenvalues in D are sorted by decreasing modulus, ties broken by
    decreasing real part, then decreasing imaginary part, so that repeated
    runs produce identical output. rho is the spectral radius max |D_i|.
    """

    U: np.ndarray
    D: np.ndarray
    U_inv: np.ndarray
    rho: float


def condition_exceeds(M: np.ndarray, M_inv: np.ndarray | None, limit: float) -> float | None:
    """None when cond_2(M) <= limit, as np.linalg.cond decides; otherwise that condition number.

    M_inv is the computed inverse of M, or None when inversion failed.
    ||M||_F ||M_inv||_F bounds cond_2(M) from above: LU inversion is backward
    stable column by column (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 14), so M M_inv - I is of order d eps times the
    product, and at half the limit that leaves a wide margin. Such a product
    accepts M without an SVD. A larger product, an overflowing norm or a
    missing inverse leaves the decision to np.linalg.cond(M).
    """
    # Python floats, so that a product past the float range is inf without a warning
    if M_inv is not None and math.sqrt(float(np.vdot(M, M).real) * float(np.vdot(M_inv, M_inv).real)) <= limit / 2:
        return None
    cond = float(np.linalg.cond(M))
    return None if cond <= limit else cond


def eig_decompose(A) -> SpectralDecomposition:
    """Diagonalize a real square matrix.

    Raises NotDiagonalizable when the eigenvector matrix is singular, or
    numerically singular (`condition_exceeds` with the limit 1/TOL_DIAG), or
    when the factorization fails to reconstruct A within TOL_RECON * (1 + max|A|).
    Both checks come from one product [U diag(D); U] @ U^-1.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    w, V = np.linalg.eig(A)
    modulus = np.abs(w)
    order = np.lexsort((-w.imag, -w.real, -modulus))
    D = np.asarray(w[order], dtype=complex)
    U = np.asarray(V[:, order], dtype=complex)

    try:
        U_inv = np.linalg.inv(U)
    except np.linalg.LinAlgError as exc:
        raise NotDiagonalizable("eigenvector matrix is singular") from exc
    cond = condition_exceeds(U, U_inv, 1.0 / TOL_DIAG)
    if cond is not None:
        raise NotDiagonalizable(f"eigenvector matrix has condition estimate {cond:.3e} (limit {1.0 / TOL_DIAG:.1e})")

    # rows 0..d-1: U diag(D) U^-1 - A; rows d..2d-1: U U^-1 - I
    R = np.concatenate((U * D, U)) @ U_inv
    R[:d] -= A
    R.reshape(-1)[d * d :: d + 1] -= 1.0
    recon_err, ident_err = (float(v) for v in np.abs(R).reshape(2, -1).max(axis=1))
    if recon_err > TOL_RECON * (1.0 + float(np.abs(A).max())):
        raise NotDiagonalizable(f"reconstruction error {recon_err:.3e} exceeds tolerance")
    if ident_err > TOL_RECON:
        raise NotDiagonalizable(f"inverse check failed with error {ident_err:.3e}")

    return SpectralDecomposition(U=U, D=D, U_inv=U_inv, rho=float(modulus.max()))


def spectral_radius_check(dec: SpectralDecomposition) -> bool:
    """True iff the system is strictly convergent: rho < 1 - TOL_RHO."""
    return dec.rho < 1.0 - TOL_RHO
