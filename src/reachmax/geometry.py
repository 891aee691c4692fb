"""Initial-set polytopes: boxes, explicit vertex lists, translation, form values at the vertices.

A convex form is maximized over a polytope by taking its largest value at a
vertex. `vertex_set` gives the vertices the way the maximizers take them: a
vertex list, or a box below CORNER_TABLE_MIN_DIM, as the (m, dim) array of
`vertices`; a larger box as a `BoxCorners` table, which evaluates a form at
all 2^dim corners from two half-box corner tables and never builds the
2^dim x dim array. Both give the corners in the same order, so the first
maximizing corner is the same one up to rounding of the values.
`form_values` evaluates a form at every vertex, and on a vertex array a
whole stack of forms in one pass. The envelope's per-mode maxima
m_i = max |(U^-1 x)_i|^2 are such maxima too; `bounds` takes them from a
vertex array's rows, and from a box's bounds alone, with no corners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge

# Corner enumeration refuses boxes with more than this many vertices.
DEFAULT_VERTEX_CAP = 2**22
# Boxes of this dimension or more go to BoxCorners. Whole convex box solves
# (one BLAS thread, 2-vCPU Xeon) took 2.42 ms on rows and 2.49 ms on tables
# at d = 10, and 3.43 against 2.75 ms at d = 11: below this the tables lose
# to the fixed cost of their extra numpy calls.
CORNER_TABLE_MIN_DIM = 11


def frozen_array(x) -> np.ndarray:
    """A read-only float copy of x: a later write to the caller's array cannot reach validated data."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class Box:
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
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValueError("box bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("empty box: lower > upper in some coordinate")

    @property
    def dim(self) -> int:
        return self.lower.size


@dataclass(eq=False)
class VRep:
    """Polytope given as the convex hull of an explicit list of points, kept as a read-only copy.

    The coordinate range comes from one min/max pass over the points, which
    also checks them: the extremes are finite exactly when every point is.
    """

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(frozen_array(self.points))
        if self.points.ndim != 2 or self.points.shape[0] == 0 or self.points.shape[1] == 0:
            raise ValueError("vertex representation needs at least one point")
        # reducing along contiguous rows of the transpose is 5x faster than along axis 0
        T = self.points.T.copy()
        self.lower = _frozen_finite(T.min(axis=1), "vertices")
        self.upper = _frozen_finite(T.max(axis=1), "vertices")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def vertices(P: Polytope) -> np.ndarray:
    """All vertices of P as an (m, dim) array in a fixed deterministic order.

    Boxes enumerate their 2^dim corners in lexicographic (lower, upper) order
    per coordinate, the last coordinate changing fastest. Vertex lists are
    returned as stored, the validated read-only points array itself, repeated
    or near-equal rows included: the maximum of a convex form over the list
    is the same, and ties go to the first row.
    """
    if isinstance(P, Box):
        _check_corner_count(P.dim)
        return _box_corners(P.lower, P.upper)
    if isinstance(P, VRep):
        return P.points
    raise TypeError(f"unsupported polytope type {type(P).__name__}")


def vertex_set(P: Polytope) -> VertexSet:
    """The vertices of P as the maximizers take them.

    A box of dimension CORNER_TABLE_MIN_DIM or more gives a BoxCorners
    table; anything else gives the `vertices` array.
    """
    if isinstance(P, Box) and P.dim >= CORNER_TABLE_MIN_DIM:
        return BoxCorners(P)
    return vertices(P)


def _check_corner_count(d: int) -> None:
    if 2**d > DEFAULT_VERTEX_CAP:
        raise DimensionTooLarge(f"box in dimension {d} would have 2^{d} vertices (cap {DEFAULT_VERTEX_CAP})")


def _box_corners(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    d = lower.size
    V = np.empty((2**d, d))
    V[:] = lower
    for j in range(d):
        # the rows whose bit j (counted from the most significant) is set
        V.reshape(2**j, 2, 2 ** (d - 1 - j), d)[:, 1, :, j] = upper[j]
    return V


class BoxCorners:
    """The 2^d corners of a box, in `vertices` order, kept as two half-box corner tables.

    The coordinates split into the first a = d // 2 and the last b = d - a.
    Corner i is head[i >> b] followed by tail[i mod 2^b], where head and tail
    are the corner arrays of the two half boxes. A quadratic form splits as
    f(x) = f_A(x_A) + f_B(x_B) + 2 x_A^T Q_AB x_B, so its values at all
    corners, in `vertices` order, are the row-major flattening of

        [head @ 2 Q_AB, f_A(head), 1] @ [tail^T; 1; f_B(tail)]:

    one 2^a x a x b and one 2^a x (b + 2) x 2^b product instead of
    2^d x d x d. Memory is O(2^d) floats for the values, against 2^d x d
    for the array. Each value is one dot product that adds the cross term
    first, then f_A and then f_B, each times an exact 1. Where the BLAS
    kernel accumulates a dot product in order, as the Haswell kernel of
    OpenBLAS 0.3.31 does, the values are bit for bit those of the
    cross-term product followed by two broadcast additions, without the two
    passes over the 2^d values. `right` holds tail^T, C-contiguous, over two
    rows of ones, made once per table; tail itself serves `__getitem__` and
    f_B.
    """

    def __init__(self, box: Box):
        _check_corner_count(box.dim)
        self.lower, self.upper = box.lower, box.upper
        a = self.split = box.dim // 2
        self.head = _box_corners(box.lower[:a], box.upper[:a])
        self.tail = _box_corners(box.lower[a:], box.upper[a:])
        # each product copies this and fills its last row with f_B(tail)
        self.right = np.vstack([self.tail.T, np.ones((2, len(self.tail)))])

    def __len__(self) -> int:
        return len(self.head) * len(self.tail)

    def __getitem__(self, i: int) -> np.ndarray:
        """Corner i, a new array bitwise equal to vertices(box)[i]."""
        h, t = divmod(int(i), len(self.tail))
        return np.concatenate([self.head[h], self.tail[t]])

    def form_values(self, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
        """x^T Q x + q^T x at every corner x, in `vertices` order; Q must be exactly symmetric."""
        a, H, T = self.split, self.head, self.tail
        b = T.shape[1]
        left = np.empty((len(H), b + 2))
        left[:, :b] = H @ (2.0 * Q[:a, a:])
        left[:, b] = np.einsum("ij,ij->i", H @ Q[:a, :a] + q[:a], H)
        left[:, b + 1] = 1.0
        right = self.right.copy()
        right[b + 1] = np.einsum("ij,ij->i", T @ Q[a:, a:] + q[a:], T)
        return (left @ right).ravel()


# The initial sets: each keeps its coordinate range, the smallest box holding it, as
# read-only finite vectors lower and upper.
Polytope = Box | VRep
# What the maximizers take as the vertices of a polytope: see `vertex_set`.
VertexSet = np.ndarray | BoxCorners


def translate(P: Polytope, t) -> Polytope:
    """Return the shifted set P - t (the same representation, bounds moved by -t).

    The result skips its constructor's validation: the differences are fresh
    arrays, and rounding is monotone, so lower <= upper still holds, and a
    vertex list's shifted range fl(min p - t) is min fl(p - t), the range of
    its shifted points bit for bit. Only finiteness is checked, on the range
    alone, as a shift can overflow.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(P, Box):
        shifted, what = object.__new__(Box), "box bounds"
    elif isinstance(P, VRep):
        shifted, what = object.__new__(VRep), "vertices"
        shifted.points = P.points - t
        shifted.points.flags.writeable = False
    else:
        raise TypeError(f"unsupported polytope type {type(P).__name__}")
    shifted.lower = _frozen_finite(P.lower - t, what)
    shifted.upper = _frozen_finite(P.upper - t, what)
    return shifted


def _frozen_finite(a: np.ndarray, what: str) -> np.ndarray:
    """The fresh array a, made read-only once it is known to be finite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    a.flags.writeable = False
    return a


def form_values(V: VertexSet, Q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x^T Q x + q^T x at every vertex x of V, in vertex order; Q must be exactly symmetric.

    A vertex array is evaluated row by row, a BoxCorners table by its split
    sums. On a vertex array, Q and q may also be (n, d, d) and (n, d) stacks
    of forms, giving an (n, m) array: each stacked product runs the same
    BLAS call per form as a single form does, so row j is bit for bit the
    values of form j alone.
    """
    if isinstance(V, BoxCorners):
        return V.form_values(Q, q)
    return np.einsum("...ij,ij->...i", V @ Q, V) + (V @ q[..., None])[..., 0]
