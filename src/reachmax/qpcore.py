"""Quadratic objectives, their sign class, and their maximizers over a polytope.

The solver maximizes, rank by rank, the objective composed with the k-th
power of the system matrix, f_k(x) = f(A^k x), itself a quadratic objective.
Convex objectives are maximized by taking their values at every polytope
vertex (a vertex array, or a box's `BoxCorners` table); concave
ones by an in-house log-barrier interior-point method over box constraints.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConcave
from .geometry import Box, Polytope, VertexSet, VRep, form_values

TOL_SYM = 1e-9
TOL_PSD = 1e-9
TOL_ND = 1e-9


class ObjectiveClass(enum.Enum):
    CONVEX_PSD = "ConvexPSD"
    STRICTLY_CONCAVE_ND = "StrictlyConcaveND"
    UNSUPPORTED = "Unsupported"


@dataclass(eq=False)
class QuadraticObjective:
    """value(x) = x^T Qmat x + qvec^T x + c, with Qmat symmetrized on construction."""

    Qmat: np.ndarray
    qvec: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Qmat, dtype=float))
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        asym = float(np.abs(Q - Q.T).max())
        if asym > TOL_SYM:
            raise ValueError(f"Q asymmetry {asym:.3e} exceeds {TOL_SYM:.1e}")
        self.Qmat = (Q + Q.T) / 2.0
        self.qvec = np.atleast_1d(np.asarray(self.qvec, dtype=float))
        if self.qvec.shape != (Q.shape[0],):
            raise ValueError("q length must match Q dimension")
        self.c = float(self.c)
        if not (np.isfinite(self.Qmat).all() and np.isfinite(self.qvec).all() and math.isfinite(self.c)):
            raise ValueError("objective data must be finite")

    @classmethod
    def from_symmetric(cls, Qmat: np.ndarray, qvec: np.ndarray) -> QuadraticObjective:
        """Wrap an exactly symmetric, finite float Qmat and a matching float qvec, with c = 0.

        Nothing is checked; shapes, symmetry, finiteness and dtypes are the
        caller's. Every caller (`solve`, `brute_force` and the tests' support
        code) passes a row of a block from `_RankEvaluator.objectives`, which
        has checked the whole block for finiteness, or the base objective,
        checked on construction.
        """
        obj = object.__new__(cls)
        obj.Qmat, obj.qvec, obj.c = Qmat, qvec, 0.0
        return obj

    @property
    def dim(self) -> int:
        return self.qvec.size

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.Qmat @ x + self.qvec @ x + self.c)

    def value_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on every row of X."""
        W = X @ self.Qmat
        return np.einsum("ij,ij->i", W, X) + X @ self.qvec + self.c


def classify(obj: QuadraticObjective) -> ObjectiveClass:
    """Sign class of the quadratic part.

    Convex needs all eigenvalues >= -TOL_PSD with a strictly positive largest
    one (a zero matrix has no usable curvature); strictly concave needs all
    eigenvalues <= -TOL_ND. Everything else - indefinite matrices, the zero
    matrix, negative semidefinite matrices with a zero top eigenvalue - is
    unsupported.
    """
    evals = np.linalg.eigvalsh(obj.Qmat)
    lmin, lmax = float(evals[0]), float(evals[-1])
    if lmin >= -TOL_PSD and lmax > TOL_PSD:
        return ObjectiveClass.CONVEX_PSD
    if lmax <= -TOL_ND:
        return ObjectiveClass.STRICTLY_CONCAVE_ND
    return ObjectiveClass.UNSUPPORTED


def maximize_convex_vertices(f: QuadraticObjective, V: VertexSet) -> tuple[float, np.ndarray]:
    """Maximum of f over a vertex array or a box's corner table, first attaining vertex wins ties."""
    vals = form_values(V, f.Qmat, f.qvec)
    if f.c:
        vals += f.c
    i = int(np.argmax(vals))
    return float(vals[i]), V[i].copy()


def maximize_concave_qp(
    f: QuadraticObjective,
    P: Polytope,
    *,
    gap_tol: float = 1e-10,
) -> tuple[float, np.ndarray]:
    """Maximize a concave objective over a box.

    Log-barrier interior-point method: minimize -f plus a barrier on the box
    faces, with the barrier weight decreased geometrically (factor 10) from 1
    until the duality measure (number of faces times weight) drops below
    gap_tol. Each stage is solved by damped Newton steps with backtracking
    line search that keeps the iterate strictly inside the box. Qmat must be
    negative semidefinite up to TOL_ND relative to its largest entry; the
    rank-k objective of a strictly concave f is, though singular when A is.
    gap_tol must be finite and positive: a target of 0 or less is never met,
    and an infinite one stops after the first stage.
    """
    if not 0.0 < gap_tol < math.inf:
        raise ValueError("gap_tol must be a finite positive number")
    lmax = float(np.linalg.eigvalsh(f.Qmat)[-1])
    if lmax > TOL_ND * (1.0 + float(np.max(np.abs(f.Qmat)))):
        raise NotConcave(f"objective is not concave: largest curvature eigenvalue {lmax:.3e}")
    if isinstance(P, VRep):
        raise ValueError("concave maximization requires a box initial set")
    if not isinstance(P, Box):
        raise TypeError(f"unsupported polytope type {type(P).__name__}")
    lower, upper = P.lower, P.upper

    # pin coordinates with a collapsed range and solve in the free coordinates
    free = upper > lower
    x_full = lower.copy()
    if not np.any(free):
        return f.value(x_full), x_full

    Qf = f.Qmat[np.ix_(free, free)]
    lin = 2.0 * f.Qmat[np.ix_(free, ~free)] @ lower[~free] + f.qvec[free]
    y = _barrier_box_min(-Qf, -lin, lower[free], upper[free], gap_tol)
    x_full[free] = y
    return f.value(x_full), x_full


def _barrier_box_min(H: np.ndarray, g: np.ndarray, lower, upper, gap_tol: float) -> np.ndarray:
    """Minimize y^T H y + g^T y over lower < y < upper, H positive semidefinite."""
    n_faces = 2 * lower.size
    y = (lower + upper) / 2.0
    weight = 1.0
    while True:
        y = _newton_center(H, g, lower, upper, y, weight)
        if n_faces * weight < gap_tol:
            return y
        weight /= 10.0


def _newton_center(H, g, lower, upper, y, weight) -> np.ndarray:
    def barrier_value(z):
        su, sl = upper - z, z - lower
        if np.any(su <= 0.0) or np.any(sl <= 0.0):
            return np.inf
        return float(z @ H @ z + g @ z - weight * (np.sum(np.log(su)) + np.sum(np.log(sl))))

    for _ in range(100):
        su, sl = upper - y, y - lower
        grad = 2.0 * H @ y + g + weight * (1.0 / su - 1.0 / sl)
        hess = 2.0 * H + np.diag(weight * (1.0 / su**2 + 1.0 / sl**2))
        delta = np.linalg.solve(hess, -grad)
        decrement2 = float(-grad @ delta)
        if decrement2 / 2.0 <= 1e-12:
            break

        # largest step that stays strictly inside, then Armijo backtracking
        alpha = 1.0
        pos, neg = delta > 0.0, delta < 0.0
        if np.any(pos):
            alpha = min(alpha, 0.99 * float(np.min(su[pos] / delta[pos])))
        if np.any(neg):
            alpha = min(alpha, 0.99 * float(np.min(sl[neg] / -delta[neg])))
        phi0 = barrier_value(y)
        slope = float(grad @ delta)
        while alpha > 1e-16 and barrier_value(y + alpha * delta) > phi0 + 1e-4 * alpha * slope:
            alpha /= 2.0
        if alpha <= 1e-16:
            break
        y = y + alpha * delta
    return y
