"""Initial-set polytopes: boxes, explicit vertex lists, translation, convex-form maxima."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotConvexForm

# Corner enumeration refuses boxes with more than this many vertices.
DEFAULT_VERTEX_CAP = 2**22


def frozen_array(x) -> np.ndarray:
    """A read-only float copy of x: a later write to the caller's array cannot reach validated data."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


class Polytope:
    """Base for the supported initial-set representations."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(eq=False)
class Box(Polytope):
    """Axis-aligned box {x : lower <= x <= upper}, nonempty, with read-only copies of the bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(frozen_array(self.lower))
        self.upper = np.atleast_1d(frozen_array(self.upper))
        if self.lower.ndim != 1 or self.lower.shape != self.upper.shape:
            raise ValueError("box bounds must be 1-d vectors of equal length")
        if self.lower.size == 0:
            raise ValueError("box dimension must be positive")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("empty box: lower > upper in some coordinate")

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(eq=False)
class VRep(Polytope):
    """Polytope given as the convex hull of an explicit list of points, kept as a read-only copy."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(frozen_array(self.points))
        if self.points.ndim != 2 or self.points.shape[0] == 0 or self.points.shape[1] == 0:
            raise ValueError("vertex representation needs at least one point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("vertices must be finite")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def vertices(P: Polytope, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """All vertices of P as an (m, dim) array in a fixed deterministic order.

    Boxes enumerate their 2^dim corners in lexicographic (lower, upper) order
    per coordinate, the last coordinate changing fastest. Vertex lists are
    returned as stored, the validated read-only points array itself, repeated
    or near-equal rows included: the maximum of a convex form over the list
    is the same, and ties go to the first row.
    """
    if isinstance(P, Box):
        d = P.dim
        if 2**d > cap:
            raise DimensionTooLarge(f"box in dimension {d} would have 2^{d} vertices (cap {cap})")
        V = np.empty((2**d, d))
        V[:] = P.lower
        for j in range(d):
            # the rows whose bit j (counted from the most significant) is set
            V.reshape(2**j, 2, 2 ** (d - 1 - j), d)[:, 1, :, j] = P.upper[j]
        return V
    if isinstance(P, VRep):
        return P.points
    raise TypeError(f"unsupported polytope type {type(P).__name__}")


def translate(P: Polytope, t) -> Polytope:
    """Return the shifted set P - t (the same representation, bounds moved by -t)."""
    t = np.asarray(t, dtype=float)
    if isinstance(P, Box):
        return Box(P.lower - t, P.upper - t)
    if isinstance(P, VRep):
        return VRep(P.points - t)
    raise TypeError(f"unsupported polytope type {type(P).__name__}")


def mu(B, V: np.ndarray) -> float:
    """Maximum of the quadratic form x^T Re(B) x over the rows of V.

    V is the vertex array of a polytope, as returned by `vertices`. B must be
    Hermitian with positive semidefinite real part: the maximum of a convex
    form over a polytope is attained at a vertex, which is what makes the
    enumeration exact. A real argument x only sees Re(B).
    """
    B = np.asarray(B, dtype=complex)
    R = np.real(B + B.conj().T) / 2.0
    if float(np.linalg.eigvalsh(R)[0]) < -1e-9:
        raise NotConvexForm("real part of the form has a negative eigenvalue")
    W = V @ R
    return float(np.max(np.einsum("ij,ij->i", W, V)))
