"""Decay envelope, stopping ranks and rank bounds derived from the spectral factorization.

For a convergent diagonalizable system the k-th optimal value nu_k obeys

    nu_k <= (rho^k * sqrt(L * M) + V)^2 - V^2        for k > 0

with L = |lambda_max(U* Q U)|, M the maximum of the Gram-inverse form
x* (U U*)^-1 x = ||U^-1 x||^2 over the working initial set, and
V = ||U* q||_2 / (2 sqrt(L)). Two consequences drive the solver: if nu_0
already reaches the k-independent envelope (sqrt(L*M) + V)^2 - V^2, it is
the global supremum; and for any strictly positive value nu_j the rank

    K(j) = floor( ln((sqrt(nu_j + V^2) - V) / sqrt(L*M)) / ln rho ) + 1

guarantees nu_k <= nu_j for every k >= K(j), so the search can stop there.

The envelope lets the dominant mode stand in for every mode. The rank bound
keeps the modes apart. With y = U^-1 x, the rank-k state is A^k x = U z for
z_i = lambda_i^k y_i, so, with G = U* Q U and e = U* q,

    f(A^k x) = z* G z + e* z.

|y_i|^2 is a convex form in x, so its maximum m_i over the working set is
attained at a vertex, and every rank-k state has |z_i| <= a_i(k) =
|lambda_i|^k sqrt(m_i). G is Hermitian, so each G_ii is real, and the
triangle inequality on the terms off the diagonal gives

    f(A^k x) <= sum_(i != j) |G_ij| |z_i| |z_j| + sum_i (G_ii |z_i|^2 + |e_i| |z_i|)
             <= P_k = sum_(i != j) |G_ij| a_i a_j + sum_i max over 0 <= t <= a_i of (G_ii t^2 + |e_i| t).

Mode i's own terms depend on |z_i| <= a_i alone, so their maximum over
[0, a_i] bounds them for either sign of G_ii: it is at t = a_i for
G_ii >= 0, and for G_ii < 0, a concave parabola, at t = min(a_i,
|e_i| / (2 |G_ii|)). So P_k bounds convex and concave objectives alike. It
does not grow with k: every |lambda_i| < 1, so every a_i shrinks, the
off-diagonal coefficients are non-negative, and each mode's maximum is
taken over a shrinking interval. Once P_k is at most the incumbent, no rank
from k on can beat it. For a convex objective every G_ii >= 0, and P_k is
a^T |G| a + |e|^T a. It is exact for a diagonal A, a diagonal Q >= 0, q = 0
and a box: U is then a permutation, z_i is lambda_i^k x_i up to order, and
every term Q_ii lambda_i^(2k) x_i^2 peaks at the same corner, where
x_i^2 = m_i. P_k does not use the single curvature L of the envelope, and at
some ranks it lies above the envelope; the scan never passes K, so there
the stopping rank, not P_k, ends it.

M = max ||U^-1 x||^2 = max sum_i |y_i|^2 and the m_i are maxima over the
vertex set that `geometry.vertex_set` gives, taken together in one pass
(`_vertex_maxima`) from U^-1 alone. For a vertex array they come from the
same squared products, row by row: the m_i are their row maxima, M the
largest column sum. For a large box, handed over as a `BoxCorners` table,
M comes from the table's split evaluation of the form x^T Re(U^-* U^-1) x,
and each m_i from the at most 2d vertices of the zonogon
{(U^-1 x)_i : x a corner}, walked along its d edges in angular order in
O(d^2 log d) for all modes (see `_zonogon_maxima`), so neither builds the
2^d x d corner array.

P_k bounds every rank from the envelope data alone. `box_bound` instead
bounds one rank's own objective f_k over the bounding box of the working
set, in O(d^2) and with no vertex pass: the solver forms f_k before
maximizing it anyway, so a bound at most the incumbent settles that rank
without the maximization. It does not shrink monotonically with k, so it
settles one rank at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated, NonPositiveNu
from .geometry import BoxCorners, VertexSet, form_values
from .linalg import SpectralDecomposition

# |lambda_max(U* Q U)| at or below this is treated as a violated curvature assumption.
TOL_LMAX_ZERO = 1e-12
# A rank counts as settled by its bound only when (1 + TOL_RANK_BOUND) P_k <= incumbent,
# a margin for the rounding in U^-1, the mode maxima and the bound itself; by its box
# bound only when beta + TOL_RANK_BOUND sigma <= incumbent (see `box_bound`).
TOL_RANK_BOUND = 1e-9
# Vertex rows per block when taking M and the mode maxima: the temporaries stay a
# few hundred kB instead of a complex copy of the whole vertex array.
MODE_BLOCK_ROWS = 2048


@dataclass(eq=False)
class SpectralData:
    """Envelope ingredients, all tied to one eigenbasis and one working set."""

    dec: SpectralDecomposition
    mu_gram: float  # M, the maximum of ||U^-1 x||^2 over the vertices
    lmax_abs: float
    v_diag: float
    envelope: float
    mode_max: np.ndarray  # m_i, the maximum of |(U^-1 x)_i|^2 over the vertices
    mode_root: np.ndarray  # sqrt(m_i), the polydisc radii at rank 0
    decay: np.ndarray  # |lambda_i|, the rate at which each radius shrinks
    gram_abs: np.ndarray  # |U* Q U| off the diagonal, the real diagonal of U* Q U (with its sign) on it
    lin_abs: np.ndarray  # |U* q| entrywise


def build_spectral_data(dec: SpectralDecomposition, Qmat, qvec, V: VertexSet) -> SpectralData:
    """Assemble the envelope data for a symmetric Qmat, qvec and the vertex set V of the working set."""
    Q = np.asarray(Qmat, dtype=float)
    q = np.asarray(qvec, dtype=float)
    Ustar = dec.U.conj().T

    G = Ustar @ Q @ dec.U
    # G is Hermitian up to rounding for a symmetric Q: averaging removes the rounding
    H = (G + G.conj().T) / 2.0
    lmax_abs = abs(float(np.linalg.eigvalsh(H)[-1]))
    if lmax_abs <= TOL_LMAX_ZERO:
        raise AssumptionViolated("largest eigenvalue of U* Q U is numerically zero")
    gram_abs = np.abs(G)
    gram_abs.flat[:: len(G) + 1] = H.real.diagonal()

    mu_gram, mode_max = _vertex_maxima(dec.U_inv, V)
    e = Ustar @ q
    # ||e||, summed as np.linalg.norm sums a complex vector
    v_diag = math.sqrt(e.real.dot(e.real) + e.imag.dot(e.imag)) / (2.0 * math.sqrt(lmax_abs))
    envelope = (math.sqrt(lmax_abs * mu_gram) + v_diag) ** 2 - v_diag**2
    return SpectralData(
        dec=dec,
        mu_gram=mu_gram,
        lmax_abs=lmax_abs,
        v_diag=v_diag,
        envelope=envelope,
        mode_max=mode_max,
        mode_root=np.sqrt(mode_max),
        decay=np.abs(dec.D),
        gram_abs=gram_abs,
        lin_abs=np.abs(e),
    )


def _vertex_maxima(U_inv: np.ndarray, V: VertexSet) -> tuple[float, np.ndarray]:
    """M = max ||U_inv x||^2 and, for each i, m_i = max |(U_inv x)_i|^2, over the vertices x in V."""
    d = U_inv.shape[0]
    # rows 0..d-1 of W @ x are the real parts of U_inv x, rows d..2d-1 the imaginary parts
    W = np.vstack([U_inv.real, U_inv.imag])
    if isinstance(V, BoxCorners):
        R = W.T @ W  # ||U_inv x||^2 = x^T R x for a real x
        M = float(np.max(form_values(V, (R + R.T) / 2.0, np.zeros(d))))
        return M, _zonogon_maxima(U_inv, V.lower, V.upper)
    # one column per vertex keeps the reductions along contiguous rows
    M, m = 0.0, np.zeros(d)
    for start in range(0, V.shape[0], MODE_BLOCK_ROWS):
        Y = W @ V[start : start + MODE_BLOCK_ROWS].T
        Y *= Y
        Y[:d] += Y[d:]
        np.maximum(m, Y[:d].max(axis=1), out=m)
        M = max(M, float(Y[:d].sum(axis=0).max()))
    return M, m


def _zonogon_maxima(U_inv: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """max over the corners x of the box [lower, upper] of |(U_inv x)_i|^2 for each i, from O(d^2 log d) work.

    Mode i maps corner x = lower + t (upper - lower), t in {0,1}^d, to the
    complex number c_i + sum_j t_j g_ij, with c = U_inv lower and
    g_ij = U_inv_ij (upper_j - lower_j): the corner images span a zonogon,
    the Minkowski sum of c_i and the segments [0, g_ij]. |z|^2 is convex, so
    its maximum over them sits at a vertex of the zonogon. An edge at an
    angle in [pi, 2 pi) is replaced by -g and the base moved by g, since
    c + t g = (c + g) + (1 - t)(-g); every edge then has an angle in
    [0, pi). Walking from the base through the edges in angular order traces
    one chain of the boundary, base + each prefix sum, and the opposite
    chain is base + total - each prefix sum, so the two chains hold every
    vertex. Zero edges, from collapsed coordinates, may sort anywhere: they
    add nothing to a sum.
    """
    G = U_inv * (upper - lower)
    flip = (G.imag < 0.0) | ((G.imag == 0.0) & (G.real < 0.0))
    base = U_inv @ lower + (G * flip).sum(axis=1)
    np.negative(G, out=G, where=flip)
    order = np.argsort(np.arctan2(G.imag, G.real), axis=1)
    chain = G[np.arange(len(G))[:, None], order].cumsum(axis=1)
    # the second chain ends at the base itself, the first at base + total
    z = np.concatenate([chain, chain[:, -1:] - chain], axis=1)
    z += base[:, None]
    return np.max(np.abs(z), axis=1) ** 2


def rank_bound(sd: SpectralData, k: int | np.ndarray) -> float | np.ndarray:
    """P_k, an upper bound on nu_k from every mode's decay rate; nonincreasing in k.

    See the module docstring: P_k = sum_(i != j) |G_ij| a_i a_j plus, for
    each mode, the maximum of G_ii t^2 + |e_i| t over 0 <= t <= a_i(k). k is
    a rank or an array of ranks, and the result has its shape.
    """
    k = np.asarray(k)
    a = sd.decay ** k[..., None] * sd.mode_root
    # a G_ii >= 0 stays in the product, its mode's own terms peaking at t = a_i; a mode with
    # G_ii < 0 peaks at the parabola's vertex |e_i| / (2|G_ii|) if that comes first. Every
    # term below is non-negative, so none cancels another
    g = np.minimum(sd.gram_abs.diagonal(), 0.0)
    t = np.minimum(a, np.divide(sd.lin_abs, -2.0 * g, out=np.full_like(g, np.inf), where=g < 0.0))
    return ((a @ np.maximum(sd.gram_abs, 0.0).T) * a + (g * t + sd.lin_abs) * t).sum(axis=-1)


def box_bound(Q: np.ndarray, q: np.ndarray, centre: np.ndarray, radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(beta, sigma): an upper bound beta on f(y) = y^T Q y + q^T y over a box, and its rounding scale.

    Q and q may carry a leading stack axis, (n, d, d) and (n, d), for n
    objectives over one box; beta and sigma then have shape (n,), and shape ()
    for a single (d, d) Q.

    Q must be symmetric; the box is {c + r s : s in [-1, 1]^d} for the
    centre c and the half-widths r >= 0. With g = 2 Q c + q,

        f(c + r s) = f(c) + sum_i r_i g_i s_i + sum_ij Q_ij r_i r_j s_i s_j.

    Each |s_i| <= 1, so the linear sum is at most sum_i |r_i g_i|, every
    off-diagonal term at most |Q_ij| r_i r_j, and every diagonal term,
    Q_ii r_i^2 s_i^2 with 0 <= s_i^2 <= 1, at most max(Q_ii, 0) r_i^2:

        f(y) <= beta = f(c) + sum_i |r_i g_i|
                       + sum_(i != j) |Q_ij| r_i r_j + sum_i max(Q_ii, 0) r_i^2.

    No sign of Q is assumed, so beta bounds convex and concave objectives
    alike, and it bounds f over any set inside the box, such as the convex
    hull of a vertex list inside its bounding box. It costs O(d^2), and it
    is exact for a diagonal Q >= 0, q = 0 and c = 0, where every term peaks
    at the same corner.

    sigma = w^T |Q| w + |q|^T w with w = |c| + r bounds the sum of the
    absolute values of the terms of beta, and the size of each term of f at
    any point of the box. Rounding in beta, and in any computed value of f
    at a point of the box, is therefore a small multiple of eps * sigma, and
    a caller adds a margin in sigma before comparing beta with a computed
    value.
    """
    Qc = Q @ centre
    h = Qc + q  # f(c) = h^T c and g = Qc + h
    absQ = np.abs(Q)
    diag = Q.diagonal(0, -2, -1)  # the method: np.diagonal's dispatch costs more than the diagonal at small d
    # sum_i r_i (|g_i| + (|Q| r)_i + min(Q_ii, 0) r_i): the row sums of |Q| count |Q_ii| r_i,
    # and |Q_ii| + min(Q_ii, 0) = max(Q_ii, 0)
    beta = h @ centre + (np.abs(Qc + h) + absQ @ radius + np.minimum(diag, 0.0) * radius) @ radius
    w = np.abs(centre) + radius
    sigma = (absQ @ w + np.abs(q)) @ w
    return beta, sigma


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
