"""Property tests: generated inputs checked against enumeration oracles.

Runs are derandomized and keep no example database, so every run draws the
same examples for the same source tree.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from reachmax import Box, ProblemInstance, SolveStatus, VRep, solve
from reachmax.bounds import TOL_RANK_BOUND, build_spectral_data, rank_bound
from reachmax.geometry import vertices
from reachmax.linalg import eig_decompose
from reachmax.solver import reduce_affine

from support import (
    answer_key,
    assert_zonogon_maxima_match,
    brute_force,
    concave_box_max_kkt,
    nu_prefix,
    paper_loop,
    rank_objectives,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), collapsed=st.integers(0, 3))
def test_zonogon_maxima_match_corner_enumeration(d, seed, collapsed):
    """The mode maxima from the sorted edges are those of every corner, with up to 3 coordinates collapsed."""
    rng = np.random.default_rng(seed)
    dec = eig_decompose(rng.uniform(-1.0, 1.0, size=(d, d)))
    lower = rng.uniform(-2.0, 1.0, size=d)
    upper = lower + rng.uniform(0.1, 3.0, size=d)
    cols = rng.choice(d, size=min(collapsed, d), replace=False)
    upper[cols] = lower[cols]
    assert_zonogon_maxima_match(dec.U_inv, Box(lower, upper))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.9, 0.999),
    rotating=st.booleans(),
    box=st.booleans(),
    N=st.integers(1, 300),
    collapsed=st.integers(0, 2),
    repeated=st.booleans(),
    singular=st.booleans(),
    q_scale=st.sampled_from([0.0, 1.0, 30.0]),
)
def test_long_scans_report_the_prefix_optimum_bit_for_bit(
    d, seed, rho, rotating, box, N, collapsed, repeated, singular, q_scale
):
    """A convex solve reports the maximum, its first rank and the first positive rank of nu_0..nu_max(K, k_opt).

    Its whole report is that of `paper_loop`, which evaluates every rank up to
    the stopping rank, bit for bit.

    With the spectral radius near 1, and a slow rotation of the dominant
    modes, the values keep rising past the first block, so improvements land
    inside screened blocks and move K there. The working set is a box, with
    up to 2 (and at most d - 1) coordinates collapsed to a point, or a list
    of 2 to 12 points, maybe resampled with repeats to 3 more rows: both
    small, so every rank value is the oracle's bit for bit. Q = M^T M is
    singular PSD when M has d - 1 rows, and q scaled by 30 makes the
    envelope's linear term ||U* q|| sqrt(M) much larger than its L M.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=d)
    B = np.diag(rho * lam / np.max(np.abs(lam)))
    if rotating and d >= 2:
        theta = rng.uniform(0.01, 0.3)
        B[:2, :2] = rho * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
    M = rng.uniform(-1.0, 1.0, size=(max(d - 1, 1) if singular else d, d))
    if box:
        lower = rng.uniform(-1.0, 0.5, size=d)
        upper = lower + rng.uniform(0.1, 2.0, size=d)
        cols = rng.choice(d, size=min(collapsed, d - 1), replace=False)
        upper[cols] = lower[cols]
        Xin = Box(lower, upper)
    else:
        points = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 13)), d))
        if repeated:
            points = points[rng.integers(0, len(points), size=len(points) + 3)]
        Xin = VRep(points)
    inst = ProblemInstance(
        A=U @ B @ np.linalg.inv(U),
        b=rng.uniform(-1.0, 1.0, size=d) * rng.integers(0, 2),
        Qmat=M.T @ M,
        qvec=q_scale * rng.uniform(-1.0, 1.0, size=d),
        Xin=Xin,
        N=N,
    )
    rep = solve(inst)
    # the whole report, x_opt, K_trace and iterations included, is the rank-by-rank loop's
    assert answer_key(rep) == paper_loop(inst)
    # every rank the report counts as settled: 0..max(K, k_opt), or 0..N for a failed scan
    nus, offset = nu_prefix(inst, rep.iterations - 1)
    if rep.status is SolveStatus.FAILED:
        assert rep.iterations == N + 1 and np.all(nus <= 0.0)
        return
    k_opt = int(np.argmax(nus))
    assert rep.nu_opt == nus[k_opt] + offset
    assert rep.k_opt == k_opt
    assert rep.k_pos == int(np.flatnonzero(nus > 0.0)[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.3, 0.95),
    eps=st.sampled_from([1e-3, 1.0]),
    affine=st.booleans(),
    N=st.integers(1, 30),
    collapsed=st.integers(0, 2),
    q_scale=st.sampled_from([0.0, 1.0, 30.0]),
)
def test_concave_solves_report_the_paper_loop_and_the_kkt_maximum(d, seed, rho, eps, affine, N, collapsed, q_scale):
    """A strictly concave solve over a box reports what the rank-by-rank loop does, at the KKT maximum of its rank.

    Q = -M^T M - eps I over a box with up to 2 (and at most d - 1)
    coordinates collapsed, for a linear or affine system. With a reduced
    linear part q~ != 0 the whole report is `paper_loop`'s, and nu_opt, less
    the offset, is the maximum of rank k_opt's objective over the working
    box by `concave_box_max_kkt` to 1e-9 relative, or 1e-9 absolute below
    a maximum of 1 (the QP certifies an absolute Frank-Wolfe gap of about
    1e-10), plus the rounding of the offset. With q~ = 0, f <= f(0) at every reduced point: the solve reports
    the offset, attained at rank 0, when the working box holds 0, and
    otherwise fails as a scan up to N would.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=d)
    U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
    M = rng.uniform(-1.0, 1.0, size=(d, d))
    lower = rng.uniform(-1.0, 0.5, size=d)
    upper = lower + rng.uniform(0.1, 2.0, size=d)
    cols = rng.choice(d, size=min(collapsed, d - 1), replace=False)
    upper[cols] = lower[cols]
    inst = ProblemInstance(
        A=U @ np.diag(rho * lam / np.max(np.abs(lam))) @ np.linalg.inv(U),
        b=rng.uniform(-1.0, 1.0, size=d) if affine else np.zeros(d),
        Qmat=-M.T @ M - eps * np.eye(d),
        qvec=q_scale * rng.uniform(-1.0, 1.0, size=d),
        Xin=Box(lower, upper),
        N=N,
    )
    red = reduce_affine(inst)
    rep = solve(inst)
    if not np.any(red.qvec_reduced):
        if np.all(red.Xwork.lower <= 0.0) and np.all(red.Xwork.upper >= 0.0):
            key = (SolveStatus.K_DIAG, red.offset, red.b_tilde.tobytes(), 0, None, (), 0)
        else:
            key = (SolveStatus.FAILED, None, None, None, None, (), N + 1)
        assert answer_key(rep) == key
        return
    assert answer_key(rep) == paper_loop(inst)
    if rep.status is SolveStatus.FAILED:
        return
    *_, f = rank_objectives(inst, rep.k_opt)
    kkt = concave_box_max_kkt(f, red.Xwork.lower, red.Xwork.upper)
    assert abs((rep.nu_opt - red.offset) - kkt) <= 1e-9 * max(abs(kkt), 1.0) + 4 * np.finfo(float).eps * abs(red.offset)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.3, 0.999),
    convex=st.booleans(),
    box=st.booleans(),
    q_scale=st.sampled_from([0.0, 1.0, 30.0]),
)
def test_rank_bound_holds_on_singular_and_linear_dominated_objectives(d, seed, rho, convex, box, q_scale):
    """rank_bound(k), with the solver's margin, is at least nu_k at every rank, and it never grows with k.

    The objective is M^T M for a rank-deficient M, or -M^T M - 1e-3 I, so the
    curvature of U* Q U vanishes or is small in some modes; q scaled by 30
    makes ||U* q|| sqrt(M) much larger than L M, so the linear terms dominate and the
    concave modes' own terms peak inside their discs. Concave objectives take
    boxes; convex ones take boxes or lists of 2 to 12 points.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=d)
    U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
    M = rng.uniform(-1.0, 1.0, size=(max(d - 1, 1), d))
    Q = M.T @ M if convex else -M.T @ M - 1e-3 * np.eye(d)
    if box or not convex:
        lower = rng.uniform(-1.0, 0.5, size=d)
        Xin = Box(lower, lower + rng.uniform(0.1, 2.0, size=d))
    else:
        Xin = VRep(rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 13)), d)))
    inst = ProblemInstance(
        A=U @ np.diag(rho * lam / np.max(np.abs(lam))) @ np.linalg.inv(U),
        b=np.zeros(d),
        Qmat=Q,
        qvec=q_scale * rng.uniform(-1.0, 1.0, size=d),
        Xin=Xin,
    )
    red = reduce_affine(inst)
    sd = build_spectral_data(eig_decompose(inst.A), red.Qmat, red.qvec_reduced, vertices(red.Xwork))
    nus, _ = nu_prefix(inst, 30)
    bound = rank_bound(sd, np.arange(31))
    assert np.all((1.0 + TOL_RANK_BOUND) * bound >= nus)
    assert np.all(np.diff(bound) <= 0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    rho=st.floats(0.3, 0.97),
    box=st.booleans(),
    affine=st.booleans(),
    N=st.integers(1, 200),
)
def test_linear_objectives_report_the_brute_force_maximum(d, seed, rho, box, affine, N):
    """With Q = 0 the solve is the support function of the reachable set in direction q, and brute force agrees.

    The envelope is ||U* q|| sqrt(M) rho^k alone. A reported maximum is
    `brute_force`'s over every rank the report counts as settled, at least
    0..N, in value and rank. A failed scan has no positive rank value up to
    N: its values approach the offset only in the limit (ROADMAP item 1).
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=d)
    U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
    if box:
        lower = rng.uniform(-1.0, 0.5, size=d)
        Xin = Box(lower, lower + rng.uniform(0.1, 2.0, size=d))
    else:
        Xin = VRep(rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 13)), d)))
    inst = ProblemInstance(
        A=U @ np.diag(rho * lam / np.max(np.abs(lam))) @ np.linalg.inv(U),
        b=rng.uniform(-1.0, 1.0, size=d) if affine else np.zeros(d),
        Qmat=np.zeros((d, d)),
        qvec=rng.uniform(-1.0, 1.0, size=d),
        Xin=Xin,
        N=N,
    )
    rep = solve(inst)
    if rep.status is SolveStatus.FAILED:
        nus, _ = nu_prefix(inst, N)
        assert rep.iterations == N + 1 and np.all(nus <= 0.0)
        return
    nu, k, _ = brute_force(inst, max(N, rep.iterations - 1))
    assert (rep.nu_opt, rep.k_opt) == (nu, k)
