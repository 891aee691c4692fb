"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from reachmax import Box, SolveStatus
from reachmax.bounds import _zonogon_maxima, build_spectral_data, corollary_one_holds, k_diag
from reachmax.errors import UnsupportedObjective
from reachmax.geometry import CORNER_TABLE_MIN_DIM, form_values, vertex_set, vertices
from reachmax.linalg import eig_decompose
from reachmax.qpcore import ObjectiveClass, classify, maximize_concave_qp, maximize_convex_vertices
from reachmax.seqlab import BEYOND_PREFIX, INFINITE, FiniteC0Sequence, rank_profile
from reachmax.solver import ProblemInstance, _RankEvaluator, reduce_affine

# damped oscillator discretized with a small explicit Euler step
OSC_A = np.array([[1.0, 0.01], [-0.01, 0.99]])


def osc_box() -> Box:
    return Box([-1.0, -1.0], [1.0, 1.0])


class RangeOnly:
    """A set that carries a finite coordinate range and a dimension, as Box and VRep do, but is neither."""

    def __init__(self, lower, upper):
        self.lower, self.upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)

    @property
    def dim(self) -> int:
        return self.lower.size


def osc_eigvec_basis() -> np.ndarray:
    """Hand-picked (non-unit-norm) eigenvector basis of OSC_A with first row (1, 1)."""
    s3 = 1j * math.sqrt(3.0)
    return np.array([[1.0, 1.0], [(s3 - 1.0) / 2.0, -(s3 + 1.0) / 2.0]])


def diagonal_instance() -> ProblemInstance:
    """Diagonal A and Q, q = 0, a box: each mode decays apart, and nu_k = 4 (0.81)^k + 2.5 (0.25)^k."""
    return ProblemInstance(
        A=np.diag([0.9, 0.5]), b=np.zeros(2), Qmat=np.diag([1.0, 10.0]), qvec=np.zeros(2),
        Xin=Box([-2.0, -0.5], [2.0, 0.5]),
    )


# ---------------------------------------------------------------------------
# reference sequences with known rank profiles


def hump_seq(n: int = 41) -> np.ndarray:
    """Negative start, single interior peak, slow decay to 0+."""
    k = np.arange(n, dtype=float)
    return (1.6 * k - 1.6) / (0.08 * k * k + 0.5)


def plateau_seq(n: int = 41) -> np.ndarray:
    """Integer-floored hump: the maximum is attained on a plateau of ranks."""
    k = np.arange(n, dtype=float)
    return np.floor((1.2 * k - 2.0) / (0.04 * k * k + 0.5))


def strictly_negative_seq(n: int = 41) -> np.ndarray:
    """Oscillating, strictly negative, tending to zero from below."""
    k = np.arange(n, dtype=float)
    return -4.0 * np.abs(np.sin((0.4 * k + 0.5) * np.pi)) / (0.04 * k + 1.0)


def touch_zero_seq(n: int = 41) -> np.ndarray:
    """Nonpositive with exact zeros at every fifth index.

    sin(0.4*(k+1)*pi) vanishes exactly when 2*(k+1) is a multiple of 5; the
    float evaluation must honor those exact zeros or the nonnegativity rank
    would silently disappear.
    """
    out = np.empty(n)
    for k in range(n):
        if (2 * (k + 1)) % 5 == 0:
            s = 0.0
        else:
            s = math.sin(0.4 * (k + 1) * math.pi)
        out[k] = -3.0 * abs(s) / (0.1 * k + 1.0)
    return out


# ---------------------------------------------------------------------------
# random sequences and rank-profile property checks


def random_sequences(count, seed):
    """Mixed-shape sequences: signs, exact zeros, and plateaus all exercised."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 60))
        style = rng.integers(0, 4)
        if style == 0:
            terms = rng.normal(size=n)
        elif style == 1:
            terms = -np.abs(rng.normal(size=n))  # nonpositive
        elif style == 2:
            terms = rng.normal(size=n)
            terms[rng.random(size=n) < 0.3] = 0.0  # exact zeros
        else:
            terms = np.round(rng.normal(size=n) * 3.0)  # heavy ties, plateaus
        yield FiniteC0Sequence(terms)


def partial_sup(u: FiniteC0Sequence, n: int, m: int | float = math.inf) -> float:
    """Supremum of u_k for n <= k <= m under zero extension (m may be inf)."""
    if n < 0 or n > m:
        raise ValueError(f"invalid window [{n}, {m}]")
    t = u.terms
    size = t.size
    if n >= size:
        return 0.0
    unbounded = math.isinf(m)
    end = size if unbounded else min(int(m) + 1, size)
    seg = float(np.max(t[n:end]))
    if unbounded or m >= size:
        # window reaches into the padding, whose supremum is 0
        return max(seg, 0.0)
    return seg


def rank_order_value(rank, n):
    """Map a rank to a point on the extended number line for inequality checks.

    A beyond-prefix rank is exactly n under zero extension (the first padded
    index is its witness); an infinite rank has no witness at all.
    """
    if rank is BEYOND_PREFIX:
        return n
    if rank is INFINITE:
        return math.inf
    return rank


def check_profile_properties(u: FiniteC0Sequence) -> None:
    """Assert every structural identity of a rank profile; raises on violation."""
    p = rank_profile(u)
    n = len(u)
    t = u.terms

    # equivalences between emptiness of the index sets
    assert (p.k_geq is BEYOND_PREFIX) == (p.K_geq is BEYOND_PREFIX)
    assert (p.k_gt is INFINITE) == (p.K_gt is INFINITE)
    assert (p.K_gt is INFINITE) == (p.sup_value == 0.0)

    # rank inequalities
    k_geq = rank_order_value(p.k_geq, n)
    k_gt = rank_order_value(p.k_gt, n)
    cap_geq = rank_order_value(p.K_geq, n)
    cap_gt = rank_order_value(p.K_gt, n)
    assert k_geq <= k_gt
    assert k_geq <= cap_geq
    assert k_gt <= cap_gt
    assert cap_geq <= cap_gt
    if isinstance(p.k_gt, int):
        assert p.k_gt <= cap_geq

    # argmax identities
    if isinstance(p.K_geq, int):
        assert p.argmax_set, "a finite dominance rank implies an attained supremum"
        assert min(p.argmax_set) == p.K_geq
    if isinstance(p.K_gt, int):
        assert p.sup_value > 0.0
        assert max(p.argmax_set) == p.K_gt
    if not p.argmax_set:
        assert p.sup_value == 0.0
    for i in p.argmax_set:
        assert t[i] == p.sup_value

    # prefix supremum saturates at the dominance rank
    k0 = p.K_geq if isinstance(p.K_geq, int) else n
    for k in (k0, k0 + 3, n + 5):
        assert partial_sup(u, 0, k) == p.sup_value


# ---------------------------------------------------------------------------
# boxes evaluated through corner tables


def corner_table_boxes(seed: int):
    """(rng, box) for d = CORNER_TABLE_MIN_DIM..16: asymmetric random bounds, two coordinates collapsed."""
    rng = np.random.default_rng(seed)
    for d in range(CORNER_TABLE_MIN_DIM, 17):
        lower = rng.uniform(-2.0, 1.0, size=d)
        upper = lower + rng.uniform(0.0, 3.0, size=d)
        collapsed = rng.choice(d, size=2, replace=False)
        upper[collapsed] = lower[collapsed]
        yield rng, Box(lower, upper)


def assert_zonogon_maxima_match(U_inv: np.ndarray, box: Box) -> None:
    """`bounds._zonogon_maxima` gives max |(U_inv x)_i|^2 over the corner array within 4 (d + 2) eps relative."""
    got = _zonogon_maxima(U_inv, box.lower, box.upper)
    Y = vertices(box) @ U_inv.T
    ref = (Y.real**2 + Y.imag**2).max(axis=0)
    assert np.all(np.abs(got - ref) <= 4 * (box.dim + 2) * np.finfo(float).eps * ref), (got, ref)


# ---------------------------------------------------------------------------
# objectives as pairs (Q, q), and brute-force optimization oracles


def form(Q, q) -> tuple[np.ndarray, np.ndarray]:
    """The pair (Q, q) as float arrays, Q symmetrized as (Q + Q^T)/2, as `ProblemInstance` keeps it."""
    Q = np.asarray(Q, dtype=float)
    return (Q + Q.T) / 2.0, np.asarray(q, dtype=float)


def form_value(f, x) -> float:
    """x^T Q x + q^T x for the pair f = (Q, q)."""
    Q, q = f
    x = np.asarray(x, dtype=float)
    return float(x @ Q @ x + q @ x)


def grid_points(lower, upper, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, up, per_axis) for lo, up in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_max(f, lower, upper, per_axis: int = 33) -> float:
    """Plain dense grid maximum of the pair f; exact for convex objectives (corners included)."""
    return float(np.max(form_values(grid_points(lower, upper, per_axis), *f)))


def refined_grid_max(f, lower, upper, per_axis: int = 41, stages: int = 4) -> float:
    """Grid maximum of the pair f with successive window refinement around the incumbent.

    Sound for concave objectives: the maximizer of a concave function lies
    within one cell of the grid argmax, so shrinking the window keeps it.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    lo, up = lower.copy(), upper.copy()
    best = -np.inf
    for _ in range(stages):
        pts = grid_points(lo, up, per_axis)
        vals = form_values(pts, *f)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        h = (up - lo) / (per_axis - 1)
        lo = np.maximum(lower, pts[i] - 2.0 * h)
        up = np.minimum(upper, pts[i] + 2.0 * h)
    return best


def trajectory_max(inst, horizon: int) -> float:
    """Maximum of the objective along exact system trajectories.

    Iterates x <- A x + b from every vertex of the original initial set and
    takes the best objective value seen over ranks 0..horizon. For convex
    objectives this equals the true reachable-set maximum over those ranks.
    """
    X = vertices(inst.Xin)
    best = -np.inf
    for _ in range(horizon + 1):
        W = X @ inst.Qmat
        vals = np.einsum("ij,ij->i", W, X) + X @ inst.qvec
        best = max(best, float(np.max(vals)))
        X = X @ inst.A.T + inst.b
    return best


def rank_objectives(inst, kmax: int):
    """The rank-k objectives y -> f(A^k y) in reduced coordinates, as pairs (Q_k, q_k), for k = 0..kmax.

    Its own power loop, P <- A @ P, sharing no code with the solver's rank
    evaluator but forming each objective by the same products in the same
    order, so they are bit-identical to the solver's.
    """
    red = reduce_affine(inst)
    P = np.eye(inst.dim)
    for k in range(kmax + 1):
        if k > 0:
            P = red.A @ P
        M = P.T @ red.Qmat @ P
        yield (M + M.T) / 2.0, P.T @ red.qvec_reduced


def rank_maxima(inst, kmax: int):
    """The reduced instance, and an iterator over each rank's maximum and a maximizer (nu_k, y_k), k = 0..kmax.

    Both are in reduced coordinates. Every rank objective comes from
    `rank_objectives`, and none of the solver's rank evaluator runs. A convex
    one is maximized by row products on the working set's vertex array, a
    strictly concave one by the box QP. Below geometry.CORNER_TABLE_MIN_DIM,
    and for every vertex list, the values are bit-identical to the solver's.
    A larger box is solved through a BoxCorners table, whose values can differ
    from these in their last bits.

    Nothing is factorized, so A may be any matrix. What `solve` refuses is
    refused here first, with its messages: a non-finite reduced linear part,
    rank objective or rank maximum, an objective neither convex nor strictly
    concave, the zero objective, and a strictly concave one over a vertex
    list. A concave box builds no corners.
    """
    red = reduce_affine(inst)
    if not np.isfinite(red.qvec_reduced).all():
        raise ValueError("objective data must be finite")
    klass = classify(red.Qmat)
    if klass is ObjectiveClass.UNSUPPORTED:
        raise UnsupportedObjective("objective must be convex or strictly concave")
    if not (red.qvec_reduced.any() or red.Qmat.any()):
        raise UnsupportedObjective("objective must not be zero: Q = 0 and q = 0")
    if klass is ObjectiveClass.STRICTLY_CONCAVE_ND and not isinstance(red.Xwork, Box):
        raise UnsupportedObjective("a strictly concave objective needs a box initial set")
    V = vertices(red.Xwork) if klass is ObjectiveClass.CONVEX_PSD else None

    def maxima():
        for k, f in enumerate(rank_objectives(inst, kmax)):
            if not all(np.isfinite(a).all() for a in f):
                raise ValueError("objective data must be finite")
            nu, y = maximize_convex_vertices(f, V) if V is not None else maximize_concave_qp(f, red.Xwork)
            if not np.isfinite(nu):
                raise ValueError(f"rank {k} has the maximum {nu}, which is not finite")
            yield nu, y

    return red, maxima()


def nu_prefix(inst, kmax: int) -> tuple[np.ndarray, float]:
    """Per-rank optima nu_0..nu_kmax in reduced coordinates, from `rank_maxima`, plus the offset."""
    red, maxima = rank_maxima(inst, kmax)
    return np.array([nu for nu, _ in maxima]), red.offset


def brute_force(inst, horizon: int) -> tuple[float, int, np.ndarray]:
    """Direct maximum of the per-rank optima over ranks 0..horizon, from `rank_maxima`.

    No factorization, no envelope, no stopping logic and none of the solver's
    rank evaluator: every rank is evaluated, and the best one, the smallest
    attaining rank on ties, is returned as (value with the offset, rank,
    maximizer in original coordinates). A need not be diagonalizable or
    convergent. The horizon is checked before any work, as an infinite one
    would never end.
    """
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)) or horizon < 0:
        raise ValueError("horizon must be a natural number")
    red, maxima = rank_maxima(inst, horizon)
    best_val, best_k, best_y = -np.inf, None, None
    for k, (val, y) in enumerate(maxima):
        if val > best_val:
            best_val, best_k, best_y = val, k, y
    nu, x = red.original(best_val, best_y)
    return nu, best_k, x


def paper_loop(inst) -> tuple:
    """The answer key of the paper's loop, rank by rank, outside `solve`'s degenerate screens.

    Those screens answer without a rank: a working set of one point, or a
    concave objective without a linear part.

    Rank 0 is maximized and tested against the Corollary-1 envelope. Then
    every rank up to the current stopping rank K, at first the scan cap N,
    is maximized in turn from `rank_objectives`, and each strict improvement
    on the incumbent, which starts at 0, sets K = k_diag(nu): no screen, no
    block and no rank bound. The key is `answer_key`'s.
    """
    dec = eig_decompose(inst.A)
    red = reduce_affine(inst)
    convex = classify(red.Qmat) is ObjectiveClass.CONVEX_PSD
    # as in solve: a concave box's envelope comes from the box itself, with no vertex set
    V = vertex_set(red.Xwork) if convex else red.Xwork
    sd = build_spectral_data(dec, red.Qmat, red.qvec_reduced, V)
    nu_opt, y_opt, k_opt, k_pos, K, trace = 0.0, None, None, None, inst.N, []
    for k, f in enumerate(rank_objectives(inst, 10**9)):
        if k > K:
            break
        nu, y = maximize_convex_vertices(f, V) if convex else maximize_concave_qp(f, red.Xwork)
        if k == 0 and corollary_one_holds(sd, nu):
            return SolveStatus.COROLLARY_ONE, nu + red.offset, (y + red.b_tilde).tobytes(), 0, 0, (), 1
        if nu_opt < nu:
            nu_opt, y_opt, k_opt, K = nu, y, k, k_diag(sd, nu)
            k_pos = k if k_pos is None else k_pos
            trace.append((k, K))
    if k_pos is None:
        return SolveStatus.FAILED, None, None, None, None, (), K + 1
    x_opt = (y_opt + red.b_tilde).tobytes()
    return SolveStatus.K_DIAG, nu_opt + red.offset, x_opt, k_opt, k_pos, tuple(trace), max(K, k_opt) + 1


def answer_key(rep) -> tuple:
    """Everything a report says, in a form that compares bit for bit."""
    x = None if rep.x_opt is None else rep.x_opt.tobytes()
    return rep.status, rep.nu_opt, x, rep.k_opt, rep.k_pos, tuple(rep.K_trace), rep.iterations


def rank_evaluator(f, A) -> _RankEvaluator:
    """The solver's rank evaluator for the pair f = (Q, q) under x -> A x over the unit box."""
    Q, q = f
    d = len(q)
    inst = ProblemInstance(A=A, b=np.zeros(d), Qmat=Q, qvec=q, Xin=Box(-np.ones(d), np.ones(d)))
    red = reduce_affine(inst)
    return _RankEvaluator(red, vertex_set(red.Xwork))


def stepped_objective(ev: _RankEvaluator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank-k objective of a rank evaluator, for k = 0 or k past the evaluator's rank.

    Rank 0 is the base objective's form, as `solve` maximizes it; a later rank
    is the last of one block `objectives(k - ev.k)`, which steps the evaluator
    to rank k.
    """
    if k == 0:
        return ev.red.Qmat, ev.red.qvec_reduced
    Qs, qs = ev.objectives(k - ev.k)
    return Qs[-1], qs[-1]


def composed(f, A, k: int) -> tuple[np.ndarray, np.ndarray]:
    """x -> f(A^k x) for the pair f = (Q, q), from a direct matrix power, with its Q symmetrized."""
    Q, q = f
    P = np.linalg.matrix_power(np.asarray(A, dtype=float), k)
    M = P.T @ Q @ P
    return (M + M.T) / 2.0, P.T @ q


def concave_box_max_kkt(f, lower, upper) -> float:
    """Exact maximum of a concave pair f = (Q, q) over a box by stationarity patterns.

    Enumerates every lower/upper/free activity pattern, solves the free-block
    stationarity system, keeps feasible candidates. Exact up to linear solves
    for negative definite curvature (all patterns have a unique candidate).
    """
    Q, q = f
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = lower.size
    best = -np.inf
    for code in range(3**d):
        pattern = []
        c = code
        for _ in range(d):
            pattern.append(c % 3)
            c //= 3
        pattern = np.array(pattern)
        x = np.where(pattern == 0, lower, upper).astype(float)
        free = pattern == 2
        if np.any(free):
            Qff = Q[np.ix_(free, free)]
            rhs = -(q[free] + 2.0 * Q[np.ix_(free, ~free)] @ x[~free])
            try:
                x[free] = np.linalg.solve(2.0 * Qff, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[free] < lower[free] - 1e-12) or np.any(x[free] > upper[free] + 1e-12):
                continue
        best = max(best, form_value(f, x))
    return best
