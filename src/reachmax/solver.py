"""End-to-end solver: affine reduction, the Corollary-1 exit, then one loop over the ranks.

The problem is to maximize x^T Q x + q^T x over every state reachable by
x_{k+1} = A x_k + b from a polytope of initial conditions, for a convergent
diagonalizable A and a convex or strictly concave quadratic. Affine systems
are first turned linear by recentering at the fixed point b~ = (I - A)^-1 b;
the recentred problem has linear coefficient 2 Q b~ + q, working set
X^in - b~, and a constant offset added back only when reporting.

In reduced coordinates the per-rank optimal values nu_k tend to zero. A
solve exits early when nu_0 dominates the decay envelope; otherwise one loop
runs over the ranks. Its incumbent starts at 0 and its stopping rank K at
the scan cap N. The first rank that strictly beats the incumbent is k_pos,
and every improvement sets K from the new value; with no such rank up to N
the solve fails. Once the incumbent is positive, the loop ends early when
the per-mode rank bound of `bounds.rank_bound` is at most the incumbent:
the bound does not grow with the rank, so no rank up to K is left.

Every rank after 0 is first screened by `bounds.box_bound`, an O(d^2) bound
on its own objective over the working set's bounding box (the box itself,
or a vertex list's coordinate range). When that bound, plus a rounding
margin, is at most the incumbent, the rank is settled without a maximizer
call; before k_pos that settles it as nu_k <= 0. A rank settled either way
has a computed value of at most the incumbent, and the incumbent moves only
when a rank strictly beats it, so the report is the same as if every rank
up to K had been evaluated.

Before k_pos nothing but a positive rank can end the loop short of N, so
that scan is known to run long: its rank objectives are formed and screened
a block at a time, one stacked product and one stacked `box_bound` per
block, and only the ranks whose box bound is above 0 are maximized. The
stacked objectives are bit for bit the ones formed rank by rank. After
k_pos the rank bound may end the loop at any rank, so ranks are formed one
at a time there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import TOL_RANK_BOUND, box_bound, build_spectral_data, corollary_one_holds, k_diag, rank_bound
from .errors import NotConvergent, SingularShift, UnsupportedObjective
from .geometry import Box, Polytope, VertexSet, VRep, frozen_array, translate, vertex_set
from .linalg import eig_decompose, spectral_radius_check
from .qpcore import (
    ObjectiveClass,
    QuadraticObjective,
    classify,
    maximize_concave_qp,
    maximize_convex_vertices,
)

DEFAULT_N = 100
# Ranks per block while scanning for k_pos: the first block, and the most that any
# block holds, which bounds the scan's memory for any N.
SCAN_BLOCK_MIN = 8
SCAN_BLOCK_MAX = 64


class SolveStatus(enum.Enum):
    FAILED = "Failed"
    COROLLARY_ONE = "CorollaryOne"
    K_DIAG = "KDiag"


@dataclass(eq=False)
class ProblemInstance:
    """Problem data: dynamics (A, b), objective (Qmat, qvec), initial set, scan cap N.

    The arrays are kept as read-only copies, so the validated data cannot change.
    """

    A: np.ndarray
    b: np.ndarray
    Qmat: np.ndarray
    qvec: np.ndarray
    Xin: Polytope
    N: int = DEFAULT_N

    def __post_init__(self):
        self.A = np.atleast_2d(frozen_array(self.A))
        d = self.A.shape[0]
        if self.A.shape != (d, d):
            raise ValueError(f"A must be square, got shape {self.A.shape}")
        self.b = np.atleast_1d(frozen_array(self.b))
        self.Qmat = np.atleast_2d(frozen_array(self.Qmat))
        self.qvec = np.atleast_1d(frozen_array(self.qvec))
        if self.b.shape != (d,) or self.qvec.shape != (d,) or self.Qmat.shape != (d, d):
            raise ValueError("A, b, Q, q dimensions are inconsistent")
        if not isinstance(self.Xin, Polytope):
            raise ValueError("Xin must be a Box or a VRep polytope")
        if self.Xin.dim != d:
            raise ValueError("initial set dimension does not match A")
        for arr in (self.A, self.b, self.Qmat, self.qvec):
            if not np.isfinite(arr).all():
                raise ValueError("problem data must be finite")
        N = self.N
        if isinstance(N, (float, np.floating)) and np.isfinite(N) and N == int(N):
            N = int(N)
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
            raise ValueError("N must be a positive integer")
        self.N = int(N)
        if not np.any(self.b) and _is_origin_only(self.Xin):
            raise ValueError("a linear system needs an initial set other than {0}")

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(eq=False)
class ReducedInstance:
    """Linear reformulation around the fixed point b_tilde = (I - A)^-1 b."""

    A: np.ndarray
    Qmat: np.ndarray
    qvec_reduced: np.ndarray
    Xwork: Polytope
    offset: float
    b_tilde: np.ndarray


@dataclass(eq=False)
class SolveReport:
    """Outcome of a solve in original coordinates.

    K_trace records every stopping-rank computation as (rank, K) pairs, the
    first entry being the initial K. iterations counts the ranks settled,
    each either by its per-rank optimization or, unevaluated, by its own box
    bound or by the rank bound, once that bound is at most the incumbent.
    For the Failed status only k-independent fields are meaningful.
    """

    status: SolveStatus
    nu_opt: float | None
    x_opt: np.ndarray | None
    k_opt: int | None
    k_pos: int | None
    K_trace: list[tuple[int, int]] = field(default_factory=list)
    iterations: int = 0


def _is_origin_only(P: Polytope) -> bool:
    if isinstance(P, Box):
        return bool(np.all(P.lower == 0.0) and np.all(P.upper == 0.0))
    if isinstance(P, VRep):
        return bool(np.all(P.points == 0.0))
    return False


def _bounding_box(P: Polytope) -> tuple[np.ndarray, np.ndarray]:
    """Centre and half-widths of the smallest box holding P: P itself, or a vertex list's coordinate range."""
    if isinstance(P, Box):
        lower, upper = P.lower, P.upper
    else:
        # reducing along contiguous rows of the transpose is 5x faster than along axis 0
        T = P.points.T.copy()
        lower, upper = T.min(axis=1), T.max(axis=1)
    return (lower + upper) / 2.0, (upper - lower) / 2.0


def reduce_affine(inst: ProblemInstance) -> ReducedInstance:
    """Recenter the system at its fixed point; the identity reduction when b = 0."""
    d = inst.dim
    if not np.any(inst.b):
        return ReducedInstance(
            A=inst.A,
            Qmat=inst.Qmat,
            qvec_reduced=inst.qvec,
            Xwork=inst.Xin,
            offset=0.0,
            b_tilde=np.zeros(d),
        )
    shift = np.eye(d) - inst.A
    cond = np.linalg.cond(shift)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularShift(f"I - A has condition {cond:.3e}")
    b_tilde = np.linalg.solve(shift, inst.b)
    return ReducedInstance(
        A=inst.A,
        Qmat=inst.Qmat,
        qvec_reduced=2.0 * inst.Qmat @ b_tilde + inst.qvec,
        Xwork=translate(inst.Xin, b_tilde),
        offset=float(b_tilde @ inst.Qmat @ b_tilde + inst.qvec @ b_tilde),
        b_tilde=b_tilde,
    )


class _RankEvaluator:
    """The per-rank optima nu_k = max over the working set of f(A^k y), in reduced coordinates.

    Holds the base objective, A, the current rank k and the current power
    A^k. Ranks only move forward, one product A @ A^k per rank, so a run
    over ranks 0..K costs K products and identical inputs give bit-identical
    value sequences.
    """

    def __init__(
        self,
        red: ReducedInstance,
        base: QuadraticObjective,
        klass: ObjectiveClass,
        qp_gap_tol: float = 1e-10,
        verts: VertexSet | None = None,
    ):
        self._base = base
        self._A = red.A
        self._Xwork = red.Xwork
        self._qp_gap_tol = qp_gap_tol
        self.k = 0
        self.power = np.eye(self._base.dim)
        if klass is ObjectiveClass.CONVEX_PSD:
            self._verts = vertex_set(red.Xwork) if verts is None else verts
        elif isinstance(red.Xwork, Box):
            self._verts = None
        else:
            raise UnsupportedObjective("a strictly concave objective needs a box initial set")

    def objective(self, k: int) -> QuadraticObjective:
        """The rank-k objective y -> f(A^k y), stepping the power forward to rank k."""
        if k < self.k:
            raise ValueError(f"rank {k} is below the current rank {self.k}")
        while self.k < k:
            self.power = self._A @ self.power
            self.k += 1
        P = self.power
        M = P.T @ self._base.Qmat @ P
        # (M + M^T)/2 is exactly symmetric, so only finiteness is left to check
        return QuadraticObjective.from_symmetric((M + M.T) / 2.0, P.T @ self._base.qvec)

    def objectives(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The objectives of the next n ranks, k+1..k+n, as (n, d, d) matrices and (n, d) linear terms.

        The power steps through the n ranks by the same products as in
        `objective`, and the stacked matrices come out bit for bit as
        `objective` forms them one at a time; k and the power end at rank k+n.
        """
        Ps = np.empty((n,) + self.power.shape)
        prev = self.power
        for P in Ps:
            np.matmul(self._A, prev, out=P)
            prev = P
        self.power = prev
        self.k += n
        PT = Ps.transpose(0, 2, 1)
        M = PT @ self._base.Qmat @ Ps
        Qs, qs = (M + M.transpose(0, 2, 1)) / 2.0, PT @ self._base.qvec
        if not (np.isfinite(Qs).all() and np.isfinite(qs).all()):
            raise ValueError("objective data must be finite")
        return Qs, qs

    def value(self, k: int) -> tuple[float, np.ndarray]:
        """nu_k and a maximizing point, both in reduced coordinates."""
        return self.maximize(self.objective(k))

    def maximize(self, f: QuadraticObjective) -> tuple[float, np.ndarray]:
        """The maximum of a rank objective over the working set, and a maximizing point."""
        if self._verts is not None:
            return maximize_convex_vertices(f, self._verts)
        return maximize_concave_qp(f, self._Xwork, gap_tol=self._qp_gap_tol)


class _ScreenedRanks:
    """Rank objectives with their box bounds: a block at a time before k_pos, one at a time after.

    Before k_pos the incumbent is 0 and K is the scan cap N, so nothing stops
    the scan short of N: `next_open` forms its ranks a block at a time, stacked,
    and screens each block in one `box_bound` call. Block lengths double from
    SCAN_BLOCK_MIN up to SCAN_BLOCK_MAX, so the stacks hold O(SCAN_BLOCK_MAX d^2)
    numbers for any N, and a solve with k_pos = 0 builds none. After k_pos the
    rank bound may stop the loop at any rank, so `rank` forms the ranks one at
    a time, apart from those the last block formed already.
    """

    def __init__(self, ev: _RankEvaluator, centre: np.ndarray, radius: np.ndarray):
        self._ev, self._centre, self._radius = ev, centre, radius
        self._length = SCAN_BLOCK_MIN
        self._first = 1  # the block holds ranks first..ev.k

    def next_open(self, k: int, K: int) -> int | None:
        """The first rank after k, up to K, whose box bound plus margin is above 0; None if there is none."""
        ev = self._ev
        while k < K:
            if k == ev.k:
                n = min(self._length, K - k, SCAN_BLOCK_MAX)
                self._length *= 2
                self._first = k + 1
                self._Q, self._q = ev.objectives(n)
                beta, sigma = box_bound(self._Q, self._q, self._centre, self._radius)
                self._bound = beta + TOL_RANK_BOUND * sigma
            above = np.flatnonzero(self._bound[k + 1 - self._first :] > 0.0)
            if above.size:
                return k + 1 + int(above[0])
            k = ev.k
        return None

    def rank(self, k: int) -> tuple[QuadraticObjective, float]:
        """The objective of rank k, at most one past the evaluator's rank, and its box bound plus margin."""
        if k > self._ev.k:
            f = self._ev.objective(k)
            beta, sigma = box_bound(f.Qmat, f.qvec, self._centre, self._radius)
            return f, beta + TOL_RANK_BOUND * sigma
        j = k - self._first
        return QuadraticObjective.from_symmetric(self._Q[j], self._q[j]), self._bound[j]


def _reduced_parts(inst: ProblemInstance) -> tuple[ReducedInstance, QuadraticObjective, ObjectiveClass]:
    """The reduced instance, its base objective and the objective's class; no eigenvectors."""
    red = reduce_affine(inst)
    base = QuadraticObjective(red.Qmat, red.qvec_reduced, 0.0)
    klass = classify(base)
    if klass is ObjectiveClass.UNSUPPORTED:
        raise UnsupportedObjective("objective must be convex or strictly concave with nonzero curvature")
    return red, base, klass


def solve(inst: ProblemInstance, *, qp_gap_tol: float = 1e-10) -> SolveReport:
    """Exact optimal value and maximizer over the reachable values set."""
    if not 0.0 < qp_gap_tol < math.inf:
        # the barrier QP stops once its duality measure is below qp_gap_tol: a target
        # of 0 or less is never met, and an infinite one stops after the first stage
        raise ValueError("qp_gap_tol must be a finite positive number")
    dec = eig_decompose(inst.A)
    if not spectral_radius_check(dec):
        raise NotConvergent(f"spectral radius {dec.rho} is not strictly below 1")
    red, base, klass = _reduced_parts(inst)

    # degenerate screens whose answer is known without any optimization
    concave = klass is ObjectiveClass.STRICTLY_CONCAVE_ND
    if _is_origin_only(red.Xwork) or (concave and not np.any(red.qvec_reduced)):
        # supremum equals the offset, approached at the fixed point
        return SolveReport(
            status=SolveStatus.K_DIAG,
            nu_opt=red.offset,
            x_opt=red.b_tilde.copy(),
            k_opt=0,
            k_pos=None,
            K_trace=[],
            iterations=0,
        )

    # one vertex set per solve: it fixes M and the m_i in the envelope and, for a
    # convex objective, it is the whole input of every per-rank maximization
    verts = vertex_set(red.Xwork)
    ev = _RankEvaluator(red, base, klass, qp_gap_tol, verts)
    sd = build_spectral_data(dec, base.Qmat, base.qvec, verts)

    nu_k, y_k = ev.value(0)
    if corollary_one_holds(sd, nu_k):
        return SolveReport(
            status=SolveStatus.COROLLARY_ONE,
            nu_opt=nu_k + red.offset,
            x_opt=y_k + red.b_tilde,
            k_opt=0,
            k_pos=0,
            K_trace=[],
            iterations=1,
        )

    # the incumbent starts at 0 and the stopping rank at the scan cap N; the
    # first rank to beat 0 is k_pos, and every improvement sets K = K(nu_k)
    nu_opt, y_opt, k_opt, k_pos = 0.0, None, None, None
    K, K_trace = inst.N, []
    screen = _ScreenedRanks(ev, *_bounding_box(red.Xwork))
    k = 0
    while True:
        if nu_opt < nu_k:
            if k_pos is None:
                k_pos = k
            nu_opt, y_opt, k_opt = nu_k, y_k, k
            K = k_diag(sd, nu_k)
            K_trace.append((k, K))
        if k >= K:
            break
        if k_pos is None:
            # the ranks skipped have box bounds of at most 0, so nu_k <= 0 on each
            k_next = screen.next_open(k, K)
            if k_next is None:
                k = K
                break
            k = k_next
        elif (1.0 + TOL_RANK_BOUND) * rank_bound(sd, k + 1) <= nu_opt:
            # the bound does not grow with the rank: ranks k+1..K cannot beat nu_opt
            break
        else:
            k += 1
        f, bound = screen.rank(k)
        # a rank whose box bound is at most nu_opt is settled unevaluated, and nu_k stays at
        # most nu_opt; the box bound may grow again at k + 1
        if bound > nu_opt:
            nu_k, y_k = ev.maximize(f)

    # every rank up to K is settled, and up to k when an improvement at k set K below it
    iterations = max(k, K) + 1
    if k_pos is None:
        return SolveReport(
            status=SolveStatus.FAILED,
            nu_opt=None,
            x_opt=None,
            k_opt=None,
            k_pos=None,
            K_trace=[],
            iterations=iterations,
        )
    return SolveReport(
        status=SolveStatus.K_DIAG,
        nu_opt=nu_opt + red.offset,
        x_opt=y_opt + red.b_tilde,
        k_opt=k_opt,
        k_pos=k_pos,
        K_trace=K_trace,
        iterations=iterations,
    )


def brute_force(inst: ProblemInstance, horizon: int) -> tuple[float, int, np.ndarray]:
    """Direct maximum of the per-rank optima over ranks 0..horizon.

    No factorization, no envelope, no stopping logic: every rank is
    evaluated and the best (smallest attaining rank on ties) is returned
    with the offset included and the maximizer in original coordinates. A
    need not be diagonalizable or convergent.
    """
    if horizon < 0:
        raise ValueError("horizon must be a natural number")
    red, base, klass = _reduced_parts(inst)
    ev = _RankEvaluator(red, base, klass)
    best_val, best_y = ev.value(0)
    best_k = 0
    for k in range(1, horizon + 1):
        val, y = ev.value(k)
        if val > best_val:
            best_val, best_y, best_k = val, y, k
    return best_val + red.offset, best_k, best_y + red.b_tilde
