"""The sign class of a quadratic objective, and its maximizers over a polytope.

The solver maximizes, rank by rank, the objective composed with the k-th
power of the system matrix, f_k(x) = f(A^k x), itself a quadratic objective.
An objective x -> x^T Q x + q^T x travels as the pair form = (Q, q), with Q
exactly symmetric and both finite; nothing here checks them, as
`ProblemInstance` symmetrizes the base Q and the solver's rank evaluator
forms and checks every rank's pair. Convex objectives are maximized by
taking their values at every polytope vertex (a vertex array, or a box's
`BoxCorners` table); concave ones over a box by an in-house primal-dual
interior-point method, whose answer is checked against its Frank-Wolfe gap.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import NotConcave, QPNotConverged
from .geometry import Box, Polytope, VertexSet, form_values

TOL_PSD = 1e-9
TOL_ND = 1e-9
QP_MAX_STEPS = 100  # concave QP step cap; about 15 steps meet gap_tol = 1e-10


class ObjectiveClass(enum.Enum):
    CONVEX_PSD = "ConvexPSD"
    STRICTLY_CONCAVE_ND = "StrictlyConcaveND"
    UNSUPPORTED = "Unsupported"


def classify(Q: np.ndarray) -> ObjectiveClass:
    """Sign class of the quadratic part Q.

    Convex needs every eigenvalue >= -TOL_PSD times the largest, or >= 0 when
    none is positive, a test free of Q's scale that the zero Q of a linear
    objective passes; strictly concave needs all eigenvalues <= -TOL_ND.
    Everything else - indefinite matrices, negative semidefinite matrices
    with a zero top eigenvalue - is unsupported.
    """
    evals = np.linalg.eigvalsh(Q)
    lmin, lmax = float(evals[0]), float(evals[-1])
    if lmin >= -TOL_PSD * max(lmax, 0.0):
        return ObjectiveClass.CONVEX_PSD
    if lmax <= -TOL_ND:
        return ObjectiveClass.STRICTLY_CONCAVE_ND
    return ObjectiveClass.UNSUPPORTED


def maximize_convex_vertices(form: tuple[np.ndarray, np.ndarray], V: VertexSet) -> tuple[float, np.ndarray]:
    """Maximum of the form (Q, q) over a vertex array or a box's corner table, first attaining vertex wins ties."""
    vals = form_values(V, *form)
    i = int(np.argmax(vals))
    return float(vals[i]), V[i].copy()


def maximize_concave_qp(
    form: tuple[np.ndarray, np.ndarray],
    P: Polytope,
    *,
    gap_tol: float = 1e-10,
) -> tuple[float, np.ndarray]:
    """Maximize a concave form (Q, q) over a box, to a duality measure below gap_tol.

    The point's Frank-Wolfe gap, which bounds max f - f(y), must be at most
    gap_tol plus a rounding margin, or QPNotConverged is raised. Q must be
    negative semidefinite up to TOL_ND relative to its largest entry; the
    rank-k objective of a strictly concave f is, though singular when A is.
    gap_tol must be finite and positive: a target of 0 or less is never met.
    """
    if not 0.0 < gap_tol < math.inf:
        raise ValueError("gap_tol must be a finite positive number")
    Q, q = form
    lmax = float(np.linalg.eigvalsh(Q)[-1])
    if lmax > TOL_ND * (1.0 + float(np.max(np.abs(Q)))):
        raise NotConcave(f"objective is not concave: largest curvature eigenvalue {lmax:.3e}")
    if not isinstance(P, Box):
        raise ValueError("concave maximization requires a box initial set")
    lower, upper = P.lower, P.upper

    # pin coordinates with a collapsed range and solve in the free coordinates
    free = upper > lower
    x = lower.copy()
    if np.any(free):
        Qf = Q[np.ix_(free, free)]
        lin = 2.0 * Q[np.ix_(free, ~free)] @ lower[~free] + q[free]
        lo, hi = lower[free], upper[free]
        # rounding margin: 4n ulps of a bound on sum_i |grad_i| (hi_i - lo_i) over the box
        reach = (hi - lo) @ (2.0 * np.abs(Qf) @ np.maximum(np.abs(lo), np.abs(hi)) + np.abs(lin))
        margin = 4.0 * lo.size * np.finfo(float).eps * float(reach)
        y = _box_qp_min(-2.0 * Qf, -lin, lo, hi, gap_tol, margin)
        # by concavity, max f - f(y) is at most the largest rise of f's linearization at y
        grad = 2.0 * Qf @ y + lin
        fw_gap = float(np.sum(np.where(grad > 0.0, grad * (hi - y), grad * (lo - y))))
        if not fw_gap <= gap_tol + 2.0 * margin:
            raise QPNotConverged(f"concave QP point has Frank-Wolfe gap {fw_gap:.3e} above gap_tol {gap_tol:.1e}")
        x[free] = y
    return float(x @ Q @ x + q @ x), x


def _box_qp_min(H: np.ndarray, g: np.ndarray, lower, upper, gap_tol: float, res_tol: float) -> np.ndarray:
    """Minimize y^T H y / 2 + g^T y over lower <= y <= upper, H positive semidefinite.

    Primal-dual path following with fixed centring (Wright, Primal-Dual
    Interior-Point Methods, SIAM 1997) from the box centre, with multipliers
    1 plus the centre gradient's positive and negative parts, so the dual
    residual r = Hy + g - zl + zu starts at 0 (from multipliers of 1, badly
    scaled QPs crept to the step cap). Each step solves the KKT Newton system
    for zl*sl = zu*su = a tenth of the mean product and moves 99.5 % of the
    way to the nearest zero of a slack or multiplier, at most a full step;
    the slacks are carried, so they stay positive. It stops when
    zl.sl + zu.su < gap_tol and |r|.(upper - lower) <= res_tol, which bound
    the distance from the minimum, or after QP_MAX_STEPS steps, and returns
    the last point tested.
    """
    n = lower.size
    grad = H @ (lower + upper) / 2.0 + g
    v = np.concatenate(((upper - lower) / 2.0,) * 2 + (1.0 + np.maximum(grad, 0.0), 1.0 - np.minimum(grad, 0.0)))
    for _ in range(QP_MAX_STEPS):
        sl, su, zl, zu = v.reshape(4, n)
        y = np.where(sl <= su, lower + sl, upper - su)
        grad = H @ y + g
        gap = float(zl @ sl + zu @ su)
        if gap < gap_tol and np.abs(grad - zl + zu) @ (upper - lower) <= res_tol:
            break
        mu = 0.1 * gap / (2 * n)
        dy = np.linalg.solve(H + np.diag(zl / sl + zu / su), mu / sl - mu / su - grad)
        dv = np.concatenate((dy, -dy, (mu - zl * dy) / sl - zl, (mu + zu * dy) / su - zu))
        v += dv / max(1.0, float(np.max(-dv / v)) / 0.995)
    return y
