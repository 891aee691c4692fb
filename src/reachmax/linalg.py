"""Dense real/complex linear algebra for the solver core.

Everything downstream consumes the spectral factorization A = U diag(D) U^-1
produced here: the convergence check on the spectral radius, the product
U* Q U whose largest eigenvalue `bounds` takes, and U^-1, from which `bounds`
takes the envelope constant M = max ||U^-1 x||^2 in the same pass over the
vertex set as the per-mode maxima. eig_decompose holds the one conditioning
limit: it rejects cond(U) > 1/TOL_DIAG = 1e7. It inverts U first, and
||U||_F ||U^-1||_F, an upper bound on cond_2(U), accepts most matrices at a
fraction of the cost of an SVD; only a product above half the limit pays for
np.linalg.cond(U), which then decides as before, so the accepted matrices are
the same. Complex arithmetic is used throughout even when A has only real
eigenvalues, so there is a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotDiagonalizable

# Acceptance thresholds for a factorization (entrywise max norm).
TOL_RECON = 1e-9
# A decomposition is rejected when cond(U) exceeds 1/TOL_DIAG. This is the one
# conditioning limit of a solve: the envelope's L*M grows like cond(U)^2.
TOL_DIAG = 1e-7
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


def eig_decompose(A) -> SpectralDecomposition:
    """Diagonalize a real square matrix.

    Raises NotDiagonalizable when the eigenvector matrix is singular, or
    numerically singular (np.linalg.cond(U) above 1/TOL_DIAG, computed only
    when ||U||_F ||U^-1||_F exceeds half that limit), or when the
    factorization fails to reconstruct A within TOL_RECON * (1 + max|A|).
    """
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eig(A)
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    D = w[order].astype(complex)
    U = V[:, order].astype(complex)

    try:
        U_inv = np.linalg.inv(U)
    except np.linalg.LinAlgError as exc:
        raise NotDiagonalizable("eigenvector matrix is singular") from exc
    # ||U||_F ||U^-1||_F >= cond_2(U): a product at half the limit accepts U without an SVD,
    # clear of the rounding in U^-1; above that, or once the norm overflows, the SVD decides
    with np.errstate(over="ignore"):
        frobenius_bound = np.linalg.norm(U) * np.linalg.norm(U_inv)
    if not frobenius_bound <= 0.5 / TOL_DIAG:
        cond = np.linalg.cond(U)
        if not np.isfinite(cond) or cond > 1.0 / TOL_DIAG:
            raise NotDiagonalizable(
                f"eigenvector matrix has condition estimate {cond:.3e} (limit {1.0 / TOL_DIAG:.1e})"
            )

    scale = 1.0 + float(np.max(np.abs(A)))
    recon_err = float(np.max(np.abs(A - (U * D) @ U_inv)))
    if recon_err > TOL_RECON * scale:
        raise NotDiagonalizable(f"reconstruction error {recon_err:.3e} exceeds tolerance")
    ident_err = float(np.max(np.abs(U @ U_inv - np.eye(D.size))))
    if ident_err > TOL_RECON:
        raise NotDiagonalizable(f"inverse check failed with error {ident_err:.3e}")

    return SpectralDecomposition(U=U, D=D, U_inv=U_inv, rho=float(np.max(np.abs(D))))


def spectral_radius_check(dec: SpectralDecomposition) -> bool:
    """True iff the system is strictly convergent: rho < 1 - TOL_RHO."""
    return dec.rho < 1.0 - TOL_RHO
