"""Initial-set polytopes: boxes, explicit vertex lists, translation, convex-form maxima."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NotConvexForm

# Corner enumeration refuses boxes with more than this many vertices.
DEFAULT_VERTEX_CAP = 2**22
# User-supplied vertex lists are deduplicated within this tolerance.
DEDUP_TOL = 1e-12
# Seed of the generic projection weights used to find near-duplicate candidates.
_DEDUP_SEED = 20200613
# Deduplication compares at most this many candidate pairs per row (plus
# 1024) at once; more go to the blocked fallback, so memory stays a few times
# the input.
_DEDUP_PAIRS_PER_ROW = 2
# Elements of the difference arrays one step of the blocked fallback may hold.
_DEDUP_BLOCK_ELEMENTS = 2**21


class Polytope:
    """Base for the supported initial-set representations."""

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(eq=False)
class Box(Polytope):
    """Axis-aligned box {x : lower <= x <= upper}, nonempty."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
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
    """Polytope given as the convex hull of an explicit list of points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.ndim != 2 or self.points.shape[0] == 0 or self.points.shape[1] == 0:
            raise ValueError("vertex representation needs at least one point")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("vertices must be finite")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@functools.lru_cache(maxsize=None)
def _dedup_weights(d: int) -> np.ndarray:
    """Fixed positive weights in [1, 2): generic, so structured rows such as
    box corners or points on one coordinate hyperplane get distinct projections."""
    w = np.random.default_rng(_DEDUP_SEED).uniform(1.0, 2.0, size=d)
    w.flags.writeable = False
    return w


def _close_pairs(points: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """All row pairs (earlier, later) within tol in the max norm, or None if too many candidates.

    Rows within tol have projections on the weights w within tol * |w|_1, up to
    the rounding of the two dot products. Each dot product is off by at most
    about d eps / 2 times |p| @ w, and a row within tol of p has |p| @ w larger
    by at most tol * |w|_1. A row's search window is at least twice the sum
    of both bounds, and only rows whose sorted projections lie within it are compared,
    exactly, in the max norm.
    """
    m, d = points.shape
    w = _dedup_weights(d)
    reach = tol * float(w.sum())
    proj = points @ w
    order = np.argsort(proj, kind="stable")
    s = proj[order]
    window = 2.0 * (reach + 2.0 * (d + 2) * np.finfo(float).eps * ((np.abs(points) @ w)[order] + reach))
    counts = np.searchsorted(s, s + window, side="right") - np.arange(1, m + 1)
    total = int(counts.sum())
    if total > _DEDUP_PAIRS_PER_ROW * m + 1024:
        return None
    first = np.repeat(np.arange(m), counts)
    second = first + 1 + np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    i, j = order[first], order[second]
    earlier, later = np.minimum(i, j), np.maximum(i, j)
    close = np.max(np.abs(points[earlier] - points[later]), axis=1) <= tol
    return earlier[close], later[close]


def _greedy_keep(m: int, earlier: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Keep mask of the greedy pass: a row is dropped iff a kept earlier row is close to it.

    A row with no close earlier row is kept, so every later row close to it
    is dropped at once; only rows whose close earlier rows all have close
    earlier rows themselves are decided one by one, in order.
    """
    keep = np.ones(m, dtype=bool)
    candidate = np.zeros(m, dtype=bool)
    candidate[later] = True
    keep[later[~candidate[earlier]]] = False
    rest = np.flatnonzero(candidate & keep)
    if rest.size:
        by_later = np.argsort(later, kind="stable")
        later, earlier = later[by_later], earlier[by_later]
        starts = np.searchsorted(later, rest, side="left")
        ends = np.searchsorted(later, rest, side="right")
        for i, a, b in zip(rest.tolist(), starts.tolist(), ends.tolist()):
            keep[i] = not keep[earlier[a:b]].any()
    return keep


def _dedup_blocked(points: np.ndarray, tol: float) -> np.ndarray:
    """The greedy pass against every kept row, a block of rows at a time.

    Time grows with rows times kept rows; each step holds at most
    _DEDUP_BLOCK_ELEMENTS differences.
    """
    m, d = points.shape
    block = max(1, math.isqrt(_DEDUP_BLOCK_ELEMENTS // d))
    kept = np.empty_like(points)
    count = 0
    for start in range(0, m, block):
        P = points[start : start + block]
        near = np.zeros(len(P), dtype=bool)
        step = max(1, _DEDUP_BLOCK_ELEMENTS // (d * len(P)))
        for k in range(0, count, step):
            diff = np.max(np.abs(kept[k : min(k + step, count)][None, :, :] - P[:, None, :]), axis=2)
            near |= np.any(diff <= tol, axis=1)
        P = P[~near]
        later, earlier = np.nonzero(np.tril(np.max(np.abs(P[None, :, :] - P[:, None, :]), axis=2) <= tol, -1))
        P = P[_greedy_keep(len(P), earlier, later)]
        kept[count : count + len(P)] = P
        count += len(P)
    return kept[:count].copy()


def _dedup_points(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop duplicate rows, keeping first occurrences in their original order.

    Rows are scanned in order and a row is dropped iff it lies within tol, in
    the max norm, of a row kept before it. Candidate pairs come from a sort of
    the rows' projections on generic weights; too many of them (dense clusters
    of near-duplicates) first drop exact copies, which never decide another
    row, then fall back to comparing blocks of rows with the kept rows.
    """
    if points.shape[0] <= 1:
        return points
    pairs = _close_pairs(points, tol)
    if pairs is None:
        _, first = np.unique(points, axis=0, return_index=True)
        points = points[np.sort(first)]
        pairs = _close_pairs(points, tol)
    if pairs is None:
        return _dedup_blocked(points, tol)
    return points[_greedy_keep(points.shape[0], *pairs)]


def vertices(P: Polytope, cap: int = DEFAULT_VERTEX_CAP) -> np.ndarray:
    """All vertices of P as an (m, dim) array in a fixed deterministic order.

    Boxes enumerate their 2^dim corners in lexicographic (lower, upper) order
    per coordinate; vertex lists are returned in stored order, deduplicated
    within DEDUP_TOL at every size.
    """
    if isinstance(P, Box):
        d = P.dim
        if 2**d > cap:
            raise DimensionTooLarge(f"box in dimension {d} would have 2^{d} vertices (cap {cap})")
        idx = np.arange(2**d, dtype=np.int64)
        bits = (idx[:, None] >> np.arange(d - 1, -1, -1)) & 1
        return np.where(bits == 1, P.upper, P.lower).astype(float)
    if isinstance(P, VRep):
        return _dedup_points(P.points, DEDUP_TOL)
    raise TypeError(f"unsupported polytope type {type(P).__name__}")


def translate(P: Polytope, t) -> Polytope:
    """Return the shifted set P - t (the same representation, bounds moved by -t)."""
    t = np.asarray(t, dtype=float)
    if isinstance(P, Box):
        return Box(P.lower - t, P.upper - t)
    if isinstance(P, VRep):
        return VRep(P.points - t)
    raise TypeError(f"unsupported polytope type {type(P).__name__}")


def mu(B, P: Polytope | np.ndarray, cap: int = DEFAULT_VERTEX_CAP) -> float:
    """Maximum of the quadratic form x^T Re(B) x over the vertices of P.

    B must be Hermitian with positive semidefinite real part: the maximum of
    a convex form over a polytope is attained at a vertex, which is what makes
    the enumeration exact. A real argument x only sees Re(B). P may also be
    the vertex array of the polytope, as returned by `vertices`, so that a
    caller holding it does not enumerate it again.
    """
    B = np.asarray(B, dtype=complex)
    R = np.real(B + B.conj().T) / 2.0
    if float(np.linalg.eigvalsh(R)[0]) < -1e-9:
        raise NotConvexForm("real part of the form has a negative eigenvalue")
    V = vertices(P, cap=cap) if isinstance(P, Polytope) else np.asarray(P, dtype=float)
    W = V @ R
    return float(np.max(np.einsum("ij,ij->i", W, V)))
