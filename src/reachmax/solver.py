"""End-to-end solver: affine reduction, then one loop over the ranks from rank 0.

The problem is to maximize x^T Q x + q^T x over every state reachable by
x_{k+1} = A x_k + b from a polytope of initial conditions, for a convergent
diagonalizable A and a convex (linear included) or strictly concave
quadratic. Affine systems are first turned linear by recentering at the
fixed point b~ = (I - A)^-1 b; the recentred problem has linear coefficient
2 Q b~ + q, working set X^in - b~, and a constant offset added back only
when reporting.

In reduced coordinates the per-rank optimal values nu_k tend to zero. One
loop walks the ranks from 0, as the paper's algorithm does. Its incumbent
starts at 0 and its stopping rank K at the scan cap N. The first rank that
strictly beats the incumbent is k_pos, and every improvement sets K from
the new value; with no such rank up to N the solve fails. Once the
incumbent is positive, the loop ends early when the per-mode rank bound of
`bounds.rank_bound` is at most the incumbent: the bound does not grow with
the rank, so no rank up to K is left.

The envelope (`bounds.build_spectral_data`) is built at the first
improvement, just before its stopping rank is computed. When that
improvement is rank 0, Corollary 1 is tested there: a nu_0 that reaches the
envelope is the supremum, and the solve exits. A built envelope is always
positive, so a nu_0 that reaches it has beaten the incumbent 0, and testing
only at an improvement misses no exit. The rank bound is asked only once
the incumbent is positive, so it always finds the envelope built. A scan
whose values never exceed 0 builds none: it fails, and the envelope's
`AssumptionViolated` cannot come from it.

The loop's first block is rank 0 alone, the base objective, with screen
+inf. After it the loop forms the rank objectives a block at a time, in one
stacked product per block, by the same products as a plain rank-by-rank
loop. Block lengths double from SCAN_BLOCK_MIN to SCAN_BLOCK_MAX, capped at
K. `_RankEvaluator.block` picks how a block is settled and gives each rank a
screen, at least the rank's maximum. A block of at most SCAN_BLOCK_MIN ranks
over a vertex array of at most EXACT_BLOCK_MAX_ROWS rows in all is evaluated
whole: one stacked `geometry.form_values` pass gives every rank's value at
every vertex, bit for bit the values of a per-rank `maximize_convex_vertices`
call, and a rank's screen is its maximum. Every other block (a longer one, a
box's `BoxCorners` table, a concave box) is screened by `bounds.box_bound`,
an O(d^2) bound on each rank's objective over the working set's bounding box
(the box itself, or a vertex list's coordinate range), plus a rounding
margin; its ranks are maximized one at a time.

Each block takes three steps. Once the incumbent is positive, a block too
long to be evaluated whole first asks the rank bound, once, over the ranks
it would hold, and is cut before the first rank the bound settles; a cut
block is the last one, and no rank past the cut is formed. A block short
enough asks no bound, as its ranks cost less than the bound would. The
block is then formed, and walked in order up to the current K: a rank whose
screen is at most the incumbent is passed over, its computed value at most
the incumbent, which before k_pos settles it as nu_k <= 0, and every other
rank is evaluated. The incumbent moves only when a rank strictly beats it,
so the report is the same as if every rank up to K had been evaluated. An
improvement inside a block asks no new bound: the rest of the block is
walked under its screens. So the rank bound ends every long scan at most
one block later than a bound asked at every rank would.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bounds import TOL_RANK_BOUND, box_bound, build_spectral_data, corollary_one_holds, k_diag, rank_bound
from .errors import NotConvergent, SingularShift, UnsupportedObjective
from .geometry import Box, Polytope, VertexSet, form_values, frozen_array, translate, vertex_set
from .linalg import SHIFT_COND_LIMIT, SpectralDecomposition, eig_decompose, shift_cond_bound, spectral_radius_check
from .qpcore import ObjectiveClass, classify, maximize_concave_qp, maximize_convex_vertices

DEFAULT_N = 100
TOL_SYM = 1e-9  # largest asymmetry max|Q - Q^T| of an accepted Q, relative to max|Q|
# Ranks per block of rank objectives after rank 0's block of one: the first such block,
# and the most that any block holds, which bounds the loop's memory for any N.
SCAN_BLOCK_MIN = 8
SCAN_BLOCK_MAX = 64
# A block of at most SCAN_BLOCK_MIN ranks over a vertex array is evaluated whole, with
# no bound, when its ranks times vertices come to at most this many rows. Convex solves
# on 60 random vertex lists (one BLAS thread, 2-vCPU Xeon, median per-instance ratio),
# with every such block taken whole, took 0.88-0.97 of the screened time at up to 4096
# rows (d = 3, 6, 10), 0.995-1.05 at 8192 and 1.04-1.15 at 16384: the crossover is near
# 8192. The worst case is a rank bound that settles rank 1 under a large K: the first
# block's 8 ranks are formed and evaluated for nothing, about 50 us more (a d = 2 box
# with K = 34658: 170 -> 220 us).
EXACT_BLOCK_MAX_ROWS = 4096


class SolveStatus(enum.Enum):
    FAILED = "Failed"
    COROLLARY_ONE = "CorollaryOne"
    K_DIAG = "KDiag"


@dataclass(eq=False)
class ProblemInstance:
    """Problem data: dynamics (A, b), objective (Qmat, qvec), initial set, scan cap N.

    The arrays are kept as read-only copies, so the validated data cannot change.
    Qmat must be symmetric within TOL_SYM max|Qmat| and is kept as (Qmat + Qmat^T)/2.
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
        asym, scale = float(np.abs(self.Qmat - self.Qmat.T).max()), float(np.abs(self.Qmat).max())
        if asym > TOL_SYM * scale:
            raise ValueError(f"Q asymmetry {asym:.3e} exceeds {TOL_SYM:.1e} times max|Q| {scale:.3e}")
        self.Qmat = frozen_array((self.Qmat + self.Qmat.T) / 2.0)
        if not np.isfinite(self.Qmat).all():
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

    def original(self, nu: float, y: np.ndarray) -> tuple[float, np.ndarray]:
        """A value and a point of the reduced problem in original coordinates: (nu + offset, y + b_tilde)."""
        return nu + self.offset, y + self.b_tilde


@dataclass(eq=False)
class SolveReport:
    """Outcome of a solve in original coordinates.

    K_trace records every stopping-rank computation as (rank, K) pairs, the
    first entry being the initial K. iterations counts the ranks settled,
    each by its per-rank optimization, by the exact evaluation of a short
    block of ranks at every vertex, or, unevaluated, by its own box bound or
    by the rank bound, once that bound is at most the incumbent.
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
    return not (P.lower.any() or P.upper.any())


def reduce_affine(inst: ProblemInstance, dec: SpectralDecomposition | None = None) -> ReducedInstance:
    """Recenter the system at its fixed point; the identity reduction when b = 0.

    Raises SingularShift when cond(I - A) exceeds SHIFT_COND_LIMIT. With the
    factorization of A at hand, `shift_cond_bound` settles most matrices
    without an SVD; np.linalg.cond(I - A) decides the rest, so the refused
    inputs are the same either way.
    """
    d = inst.dim
    if not inst.b.any():
        return ReducedInstance(
            A=inst.A,
            Qmat=inst.Qmat,
            qvec_reduced=inst.qvec,
            Xwork=inst.Xin,
            offset=0.0,
            b_tilde=np.zeros(d),
        )
    shift = np.eye(d) - inst.A
    if dec is None or not shift_cond_bound(dec) <= SHIFT_COND_LIMIT / 4.0:
        cond = np.linalg.cond(shift)
        if not np.isfinite(cond) or cond > SHIFT_COND_LIMIT:
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
    """The rank objectives y -> f(A^k y) and their maxima nu_k over the working set, in reduced coordinates.

    Rank 0 is the base objective itself. Holds A, the current rank k and the
    current power A^k; `objectives` forms the next ranks a block at a time and
    ranks only move forward, one product A @ A^k per rank, so a run over ranks
    0..K costs K products and identical inputs give bit-identical value
    sequences. verts is the caller's `vertex_set(red.Xwork)` for a convex
    objective, whose maximizer takes it, and is not kept for a concave one.

    It also picks how `block` settles a block of ranks. exact_ranks is the
    most ranks of a block that one stacked pass evaluates whole: for a
    convex objective over a vertex array, up to SCAN_BLOCK_MIN as
    EXACT_BLOCK_MAX_ROWS allows, and otherwise 0. Every longer block is
    screened by its box bounds over the working set's bounding box, its
    coordinate range `lower`/`upper`.
    """

    def __init__(self, red: ReducedInstance, klass: ObjectiveClass, verts: VertexSet | Box):
        self.red = red
        self.k = 0
        self.power = np.eye(red.A.shape[0])
        self._verts = verts if klass is ObjectiveClass.CONVEX_PSD else None
        self.exact_ranks = 0
        if isinstance(self._verts, np.ndarray):
            self.exact_ranks = min(SCAN_BLOCK_MIN, EXACT_BLOCK_MAX_ROWS // len(self._verts))

    def objectives(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The objectives y -> f(A^j y) of the next n ranks, j = k+1..k+n, as (n, d, d) and (n, d) stacks.

        The power steps through the n ranks by one product A @ A^j each, and
        the matrices come from one stacked P^T Q P, symmetrized as
        (M + M^T)/2; k and the power end at rank k+n. A non-finite entry
        anywhere in the block raises ValueError: this is the one finiteness
        check of a rank objective, as the maximizers check nothing.
        """
        Ps = np.empty((n,) + self.power.shape)
        prev = self.power
        for P in Ps:
            np.matmul(self.red.A, prev, out=P)
            prev = P
        self.power = prev
        self.k += n
        PT = Ps.transpose(0, 2, 1)
        M = PT @ self.red.Qmat @ Ps
        Qs, qs = (M + M.transpose(0, 2, 1)) / 2.0, PT @ self.red.qvec_reduced
        if not (np.isfinite(Qs).all() and np.isfinite(qs).all()):
            raise ValueError("objective data must be finite")
        return Qs, qs

    def block(self, n: int) -> tuple[np.ndarray, Callable[[int], tuple[float, np.ndarray]]]:
        """Form the next n ranks: their screens, each at least its rank's maximum, and a function evaluating rank i.

        Evaluating gives the rank's maximum and a maximizing point, bit for
        bit those of `maximize` on the rank's objective. A block of at most
        exact_ranks ranks is evaluated whole by one stacked `form_values`
        pass: a rank's screen is its maximum, and evaluating it reads the
        pass. Any other block's screens are its box bounds plus their
        TOL_RANK_BOUND * sigma rounding margin, and evaluating a rank calls
        `maximize`.
        """
        Qs, qs = self.objectives(n)
        if n <= self.exact_ranks:
            vals = form_values(self._verts, Qs, qs)
            best, screen = vals.argmax(axis=1), vals.max(axis=1)
            return screen, lambda i: (float(screen[i]), self._verts[best[i]].copy())
        beta, sigma = box_bound(Qs, qs, self.red.Xwork.lower, self.red.Xwork.upper)
        return beta + TOL_RANK_BOUND * sigma, lambda i: self.maximize((Qs[i], qs[i]))

    def maximize(self, form: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray]:
        """The maximum of a rank objective (Q, q) over the working set, and a maximizing point."""
        if self._verts is not None:
            return maximize_convex_vertices(form, self._verts)
        return maximize_concave_qp(form, self.red.Xwork)


def solve(inst: ProblemInstance) -> SolveReport:
    """Exact optimal value and maximizer over the reachable values set."""
    dec = eig_decompose(inst.A)
    if not spectral_radius_check(dec):
        raise NotConvergent(f"spectral radius {dec.rho} is not strictly below 1")
    # a solve takes a convex objective over any initial set, or a strictly concave one over a box
    red = reduce_affine(inst, dec)
    if not np.isfinite(red.qvec_reduced).all():
        raise ValueError("objective data must be finite")
    klass = classify(red.Qmat)
    concave = klass is ObjectiveClass.STRICTLY_CONCAVE_ND
    if klass is ObjectiveClass.UNSUPPORTED:
        raise UnsupportedObjective("objective must be convex or strictly concave")
    if not (red.qvec_reduced.any() or red.Qmat.any()):
        raise UnsupportedObjective("objective must not be zero: Q = 0 and q = 0")
    if concave and not isinstance(red.Xwork, Box):
        raise UnsupportedObjective("a strictly concave objective needs a box initial set")

    # degenerate screens, answered without a rank: over a working set of one point, or for a
    # concave objective with no linear part, f <= f(0) at every reduced point. The supremum, the
    # offset, is attained at rank 0 when the working box holds 0 (b~ in X_in); otherwise no rank
    # beats the incumbent 0, and the solve fails as a scan up to N would
    if _is_origin_only(red.Xwork) or (concave and not np.any(red.qvec_reduced)):
        if (red.Xwork.lower > 0.0).any() or (red.Xwork.upper < 0.0).any():
            return SolveReport(
                SolveStatus.FAILED, nu_opt=None, x_opt=None, k_opt=None, k_pos=None, iterations=inst.N + 1
            )
        # b_tilde itself, not original(0.0, zeros): 0.0 + (-0.0) is +0.0, which would flip a sign bit of x_opt
        return SolveReport(SolveStatus.K_DIAG, red.offset, red.b_tilde.copy(), k_opt=0, k_pos=None, iterations=0)

    # one vertex set per convex solve, for every per-rank maximization and the envelope's m_i; a
    # concave solve's box gives the m_i from its bounds, so it meets no corner cap
    verts = red.Xwork if concave else vertex_set(red.Xwork)
    ev = _RankEvaluator(red, klass, verts)

    # the incumbent starts at 0 and the stopping rank at the scan cap N; every strict improvement
    # sets K = K(nu_k) and appends (rank, K) to K_trace, so its first rank is k_pos and its last k_opt.
    # The envelope is built at the first improvement; the rank bound is asked only once the
    # incumbent is positive, so it always finds the envelope built
    nu_opt, y_opt, K, K_trace, sd = 0.0, None, inst.N, [], None
    k, length, cut = -1, 1, False
    while k < K and not cut:
        # the block holds ranks k+1..k+n: first rank 0 alone, the base objective with screen +inf,
        # then blocks of SCAN_BLOCK_MIN ranks and up
        n = min(length, K - k)
        length = min(max(2 * length, SCAN_BLOCK_MIN), SCAN_BLOCK_MAX)
        if nu_opt > 0.0 and n > ev.exact_ranks:
            # the rank bound does not grow with the rank: no rank from the first one it settles
            # up to K beats nu_opt, none of them is formed, and the cut block is the last one
            settles = ((1.0 + TOL_RANK_BOUND) * rank_bound(sd, np.arange(k + 1, k + n + 1)) <= nu_opt).nonzero()[0]
            if settles.size:
                n, cut = int(settles[0]), True
        if k < 0:
            screen, evaluate = (np.inf,), lambda i: ev.maximize((red.Qmat, red.qvec_reduced))
        elif n > 0:
            screen, evaluate = ev.block(n)
        for i in range(n):
            if k + i >= K:
                break
            # a rank whose screen is at most nu_opt is settled unevaluated, its nu_k at most nu_opt
            if screen[i] <= nu_opt:
                continue
            nu_k, y_k = evaluate(i)
            if nu_opt < nu_k:
                if sd is None:
                    sd = build_spectral_data(dec, red.Qmat, red.qvec_reduced, verts)
                    # Corollary 1, when the first improvement is rank 0: a nu_0 that reaches the
                    # envelope is the supremum
                    if k < 0 and corollary_one_holds(sd, nu_k):
                        nu_opt, x_opt = red.original(nu_k, y_k)
                        return SolveReport(SolveStatus.COROLLARY_ONE, nu_opt, x_opt, k_opt=0, k_pos=0, iterations=1)
                nu_opt, y_opt, K = nu_k, y_k, k_diag(sd, nu_k)
                K_trace.append((k + i + 1, K))
        k += n

    if not K_trace:
        return SolveReport(SolveStatus.FAILED, nu_opt=None, x_opt=None, k_opt=None, k_pos=None, iterations=K + 1)
    k_opt, k_pos = K_trace[-1][0], K_trace[0][0]
    nu_opt, x_opt = red.original(nu_opt, y_opt)
    # every rank up to K is settled, and up to k_opt when an improvement there set K below it
    return SolveReport(SolveStatus.K_DIAG, nu_opt, x_opt, k_opt, k_pos, K_trace, iterations=max(K, k_opt) + 1)

