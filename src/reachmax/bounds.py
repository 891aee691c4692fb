"""Decay envelope and stopping ranks derived from the spectral factorization.

For a convergent diagonalizable system the k-th optimal value nu_k obeys

    nu_k <= (rho^k * sqrt(L * M) + V)^2 - V^2        for k > 0

with L = |lambda_max(U* Q U)|, M the maximum of the Gram-inverse form over
the working initial set, and V = ||U* q||_2 / (2 sqrt(L)). Two consequences
drive the solver: if nu_0 already reaches the k-independent envelope
(sqrt(L*M) + V)^2 - V^2, it is the global supremum; and for any strictly
positive value nu_j the rank

    K(j) = floor( ln((sqrt(nu_j + V^2) - V) / sqrt(L*M)) / ln rho ) + 1

guarantees nu_k <= nu_j for every k >= K(j), so the search can stop there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated, NonPositiveNu
from .geometry import mu
from .linalg import SpectralDecomposition, gram_inverse, hermitian_lambda_max

# |lambda_max(U* Q U)| at or below this is treated as a violated curvature assumption.
TOL_LMAX_ZERO = 1e-12


@dataclass(eq=False)
class SpectralData:
    """Envelope ingredients, all tied to one eigenbasis and one working set."""

    dec: SpectralDecomposition
    mu_gram: float
    lmax_abs: float
    v_diag: float
    envelope: float


def build_spectral_data(dec: SpectralDecomposition, Qmat, qvec, V: np.ndarray) -> SpectralData:
    """Assemble the envelope data for the given objective and the vertex array V of the working set."""
    Q = np.asarray(Qmat, dtype=float)
    q = np.asarray(qvec, dtype=float)
    Ustar = dec.U.conj().T

    lmax = hermitian_lambda_max(Ustar @ Q @ dec.U)
    if abs(lmax) <= TOL_LMAX_ZERO:
        raise AssumptionViolated("largest eigenvalue of U* Q U is numerically zero")
    lmax_abs = abs(lmax)

    mu_gram = mu(gram_inverse(dec.U), V)
    v_diag = float(np.linalg.norm(Ustar @ q)) / (2.0 * math.sqrt(lmax_abs))
    envelope = (math.sqrt(lmax_abs * mu_gram) + v_diag) ** 2 - v_diag**2
    return SpectralData(dec=dec, mu_gram=mu_gram, lmax_abs=lmax_abs, v_diag=v_diag, envelope=envelope)


def corollary_one_holds(sd: SpectralData, nu0: float) -> bool:
    """True iff nu_0 already dominates every later value.

    Exact comparison on purpose: a false negative only costs iterations,
    a tolerance could certify an unsound early exit.
    """
    return nu0 >= sd.envelope


def k_diag(sd: SpectralData, nu_j: float) -> int:
    """Stopping rank for a strictly positive value nu_j: no later value exceeds it.

    The log argument is clamped to 1 before taking logarithms. The envelope
    bound forbids it to exceed 1 mathematically, but rounding can push it
    marginally above; the clamp then yields the safe answer 1. A nilpotent
    rho = 0 means every value from rank 1 on coincides, so the rank is 1.
    """
    if nu_j <= 0.0:
        raise NonPositiveNu(f"stopping rank needs a positive value, got {nu_j}")
    rho = sd.dec.rho
    if rho == 0.0:
        return 1
    # sqrt(nu + V^2) - V rewritten to avoid cancellation for nu << V^2
    shifted = nu_j / (math.sqrt(nu_j + sd.v_diag**2) + sd.v_diag)
    arg = shifted / math.sqrt(sd.lmax_abs * sd.mu_gram)
    arg = min(max(arg, 5e-324), 1.0)
    return int(math.floor(math.log(arg) / math.log(rho))) + 1
