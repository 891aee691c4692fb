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

from support import assert_zonogon_maxima_match, nu_prefix


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
)
def test_long_scans_report_the_prefix_optimum_bit_for_bit(d, seed, rho, rotating, box, N):
    """A convex solve reports the maximum, its first rank and the first positive rank of nu_0..nu_max(K, k_opt).

    With the spectral radius near 1, and a slow rotation of the dominant
    modes, the values keep rising past the first block, so improvements land
    inside screened blocks and move K there. The working set is a box or a
    list of 2 to 12 points, so every rank value is the oracle's bit for bit.
    """
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0, size=d)
    B = np.diag(rho * lam / np.max(np.abs(lam)))
    if rotating and d >= 2:
        theta = rng.uniform(0.01, 0.3)
        B[:2, :2] = rho * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    U = np.eye(d) + 0.5 * rng.uniform(-1.0, 1.0, size=(d, d))
    M = rng.uniform(-1.0, 1.0, size=(d, d))
    if box:
        lower = rng.uniform(-1.0, 0.5, size=d)
        Xin = Box(lower, lower + rng.uniform(0.1, 2.0, size=d))
    else:
        Xin = VRep(rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 13)), d)))
    inst = ProblemInstance(
        A=U @ B @ np.linalg.inv(U),
        b=rng.uniform(-1.0, 1.0, size=d) * rng.integers(0, 2),
        Qmat=M.T @ M,
        qvec=rng.uniform(-1.0, 1.0, size=d) * (rng.random() < 0.3),
        Xin=Xin,
        N=N,
    )
    rep = solve(inst)
    # every rank the report counts as settled: 0..max(K, k_opt), or 0..N for a failed scan
    nus, offset = nu_prefix(inst, rep.iterations - 1)
    if rep.status is SolveStatus.FAILED:
        assert rep.iterations == N + 1 and np.all(nus <= 0.0)
        return
    k_opt = int(np.argmax(nus))
    assert rep.nu_opt == nus[k_opt] + offset
    assert rep.k_opt == k_opt
    assert rep.k_pos == int(np.flatnonzero(nus > 0.0)[0])


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
    makes V much larger than sqrt(L M), so the linear terms dominate and the
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
