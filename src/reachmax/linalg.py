"""Dense real/complex linear algebra for the solver core.

Everything downstream consumes the spectral factorization A = U diag(D) U^-1
produced here: the convergence check on the spectral radius, the product
U* Q U whose largest eigenvalue `bounds` takes, and U^-1, from which `bounds`
takes the per-mode maxima m_i = max |(U^-1 x)_i|^2 and the envelope
constant M = sum_i m_i. A solve has two conditioning limits.
eig_decompose rejects cond(U) > 1/TOL_DIAG = 1e7. It inverts U first, and
F = ||U||_F ||U^-1||_F, an upper bound on cond_2(U), accepts most matrices at
a fraction of the cost of an SVD; only a product above half the limit pays
for np.linalg.cond(U), which then decides as before, so the accepted
matrices are the same. The affine reduction rejects cond(I - A) >
SHIFT_COND_LIMIT = 1e12, and `shift_cond_bound` lets the eigenbasis settle
that limit without an SVD too. Complex arithmetic is used throughout even
when A has only real eigenvalues, so there is a single code path.
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
# Machine epsilon, for the rounding term of SpectralDecomposition.residual.
EPS = float(np.finfo(float).eps)


@dataclass(eq=False)
class SpectralDecomposition:
    """Eigenbasis factorization A = U diag(D) U_inv.

    Eigenvalues in D are sorted by decreasing modulus, ties broken by
    decreasing real part, then decreasing imaginary part, so that repeated
    runs produce identical output. rho is the spectral radius max |D_i|.
    cond_bound is ||U||_F ||U_inv||_F, and residual bounds
    ||A - U diag(D) U_inv||_2 + ||U U_inv - I||_2, rounding of the checks
    included; a decomposition assembled by hand leaves both at inf, which
    `shift_cond_bound` reads as no bound.
    """

    U: np.ndarray
    D: np.ndarray
    U_inv: np.ndarray
    rho: float
    cond_bound: float = math.inf
    residual: float = math.inf


def eig_decompose(A) -> SpectralDecomposition:
    """Diagonalize a real square matrix.

    Raises NotDiagonalizable when the eigenvector matrix is singular, or
    numerically singular (np.linalg.cond(U) above 1/TOL_DIAG, computed only
    when ||U||_F ||U^-1||_F exceeds half that limit), or when the
    factorization fails to reconstruct A within TOL_RECON * (1 + max|A|).
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
    # ||U||_F ||U^-1||_F >= cond_2(U): a product at half the limit accepts U without an SVD,
    # clear of the rounding in U^-1; above that, or once the norm overflows, the SVD decides
    cond_bound = math.sqrt(np.vdot(U, U).real * np.vdot(U_inv, U_inv).real)
    if not cond_bound <= 0.5 / TOL_DIAG:
        cond = np.linalg.cond(U)
        if not np.isfinite(cond) or cond > 1.0 / TOL_DIAG:
            raise NotDiagonalizable(
                f"eigenvector matrix has condition estimate {cond:.3e} (limit {1.0 / TOL_DIAG:.1e})"
            )

    # rows 0..d-1: U diag(D) U^-1 - A; rows d..2d-1: U U^-1 - I
    R = np.concatenate((U * D, U)) @ U_inv
    R[:d] -= A
    R.reshape(-1)[d * d :: d + 1] -= 1.0
    recon_err, ident_err = (float(v) for v in np.abs(R).reshape(2, -1).max(axis=1))
    if recon_err > TOL_RECON * (1.0 + float(np.abs(A).max())):
        raise NotDiagonalizable(f"reconstruction error {recon_err:.3e} exceeds tolerance")
    if ident_err > TOL_RECON:
        raise NotDiagonalizable(f"inverse check failed with error {ident_err:.3e}")

    rho = float(modulus.max())
    # rounding moves an entry of the product by about d eps (|U| |D| |U^-1|)_ij <= d eps rho F in
    # the top rows and d eps F in the bottom ones; d times the largest entry bounds a 2-norm
    residual = d * (recon_err + ident_err + 4.0 * (d + 2) * EPS * (1.0 + rho) * cond_bound)
    return SpectralDecomposition(U=U, D=D, U_inv=U_inv, rho=rho, cond_bound=cond_bound, residual=residual)


def spectral_radius_check(dec: SpectralDecomposition) -> bool:
    """True iff the system is strictly convergent: rho < 1 - TOL_RHO."""
    return dec.rho < 1.0 - TOL_RHO


def shift_cond_bound(dec: SpectralDecomposition) -> float:
    """An upper bound on cond_2(I - A) from the factorization of A, or inf when it gives none.

    With F = cond_bound, r = residual, E = U U_inv - I and R = A - U D U_inv,

        I - A = U diag(1 - D) U_inv - (E + R),   ||E + R||_2 <= r.

    The first term has norm at most F max|1 - D_i| and, as ||E||_2 <= r < 1
    gives sigma_min(U) sigma_min(U_inv) >= (1 - r)^2 / F, smallest singular
    value at least min|1 - D_i| (1 - r)^2 / F. Weyl's inequalities then give

        cond_2(I - A) <= F (F max|1 - D_i| + r) / (min|1 - D_i| (1 - r)^2 - F r)

    while the denominator is positive. The residual term keeps the bound
    valid when min|1 - D_i| is as small as the residuals that eig_decompose
    lets through. What the bound leaves out is rounding of relative size
    about d eps cond(I - A), about 2e-4 d at SHIFT_COND_LIMIT: in forming
    I - A, in the SVD's own estimate and in the bound itself. So a bound at
    most a quarter of the limit settles cond(I - A) <= limit as
    np.linalg.cond would, with a wide margin.
    """
    r = dec.residual
    if not r < 1.0:
        return math.inf
    gap = np.abs(1.0 - dec.D)
    low = float(gap.min()) * (1.0 - r) * (1.0 - r) - dec.cond_bound * r
    if not low > 0.0:
        return math.inf
    return dec.cond_bound * (dec.cond_bound * float(gap.max()) + r) / low
