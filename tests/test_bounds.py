"""Envelope data, early-exit test, the stopping rank, and the per-mode rank bound."""

import collections

import numpy as np
import pytest

from reachmax import Box, ProblemInstance, SolveStatus, VRep, solve
from reachmax.benchgen import BenchSpec, ObjectiveKind, SystemKind, random_instance
from reachmax.bounds import (
    MODE_BLOCK_ROWS,
    TOL_RANK_BOUND,
    SpectralData,
    box_bound,
    build_spectral_data,
    corollary_one_holds,
    k_diag,
    rank_bound,
)
from reachmax.errors import AssumptionViolated, NonPositiveNu, NotDiagonalizable
from reachmax.geometry import BoxCorners, vertices
from reachmax.linalg import SpectralDecomposition, eig_decompose
from reachmax.qpcore import QuadraticObjective
from reachmax.solver import _bounding_box, reduce_affine

from support import (
    OSC_A,
    assert_zonogon_maxima_match,
    concave_box_max_kkt,
    corner_table_boxes,
    diagonal_instance,
    nu_prefix,
    osc_box,
    osc_eigvec_basis,
    rank_objectives,
)


def osc_spectral_data(Q, q):
    """Envelope data for the oscillator in its hand-picked eigenvector basis."""
    U = osc_eigvec_basis()
    dec = SpectralDecomposition(
        U=U,
        D=np.array([(199 + 1j * np.sqrt(3)) / 200, (199 - 1j * np.sqrt(3)) / 200]),
        U_inv=np.linalg.inv(U),
        rho=float(np.sqrt(9901) / 100),
    )
    return build_spectral_data(dec, np.asarray(Q, float), np.asarray(q, float), vertices(osc_box()))


class TestBuildSpectralData:
    def test_oscillator_homogeneous_identity(self):
        sd = osc_spectral_data(np.eye(2), np.zeros(2))
        assert sd.lmax_abs == pytest.approx(3.0, abs=1e-9)
        assert sd.mu_gram == pytest.approx(2.0, abs=1e-9)
        assert sd.v_diag == 0.0
        assert sd.envelope == pytest.approx(6.0, abs=1e-9)

    def test_oscillator_nonhomogeneous(self):
        Q = [[1.0, -0.5], [-0.5, 0.25]]
        q = [-1.0, 0.5]
        sd = osc_spectral_data(Q, q)
        assert np.linalg.norm(osc_eigvec_basis().conj().T @ q) == pytest.approx(np.sqrt(3.5), abs=1e-12)
        assert sd.lmax_abs == pytest.approx(3.5, abs=1e-9)
        assert sd.v_diag == pytest.approx(0.5, abs=1e-12)
        assert sd.envelope == pytest.approx(7.0 + np.sqrt(7.0), abs=1e-9)

    def test_trivial_identity_basis(self):
        dec = eig_decompose(0.5 * np.eye(1))
        sd = build_spectral_data(dec, np.eye(1), np.zeros(1), vertices(Box([-1.0], [1.0])))
        assert sd.lmax_abs == pytest.approx(1.0, abs=1e-12)
        assert sd.mu_gram == pytest.approx(1.0, abs=1e-12)
        assert sd.v_diag == 0.0
        assert sd.envelope == pytest.approx(1.0, abs=1e-12)

    def test_lmax_dominates_every_rayleigh_quotient(self):
        assert osc_spectral_data(np.diag([1.0, 0.0]), np.zeros(2)).lmax_abs == pytest.approx(2.0, abs=1e-9)
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            dec = eig_decompose(0.9 * A / np.max(np.abs(np.linalg.eigvals(A))))
            M = rng.normal(size=(5, 5))
            sd = build_spectral_data(dec, M + M.T, np.zeros(5), vertices(Box(-np.ones(5), np.ones(5))))
            G = dec.U.conj().T @ (M + M.T) @ dec.U
            X = rng.normal(size=(5, 100)) + 1j * rng.normal(size=(5, 100))
            rq = np.real(np.einsum("ij,ij->j", X.conj(), G @ X)) / np.real(np.einsum("ij,ij->j", X.conj(), X))
            assert np.all(sd.lmax_abs - rq >= -1e-9 * (1.0 + np.max(np.abs(G))))

    def test_zero_curvature_rejected(self):
        dec = eig_decompose(0.5 * np.eye(2))
        with pytest.raises(AssumptionViolated):
            build_spectral_data(dec, np.zeros((2, 2)), np.zeros(2), vertices(osc_box()))


class TestCorollaryOneHolds:
    def test_oscillator_does_not_hold(self):
        sd = osc_spectral_data(np.eye(2), np.zeros(2))
        assert not corollary_one_holds(sd, 2.0)

    def test_boundary_inclusive(self):
        sd = osc_spectral_data(np.eye(2), np.zeros(2))
        assert corollary_one_holds(sd, sd.envelope)
        assert corollary_one_holds(sd, sd.envelope + 1.0)


class TestKDiag:
    def test_oscillator_identity(self):
        sd = osc_spectral_data(np.eye(2), np.zeros(2))
        assert k_diag(sd, 2.0) == 111

    def test_oscillator_coordinate_squares(self):
        sd = osc_spectral_data(np.diag([1.0, 0.0]), np.zeros(2))
        assert k_diag(sd, 1.0) == 140
        assert k_diag(sd, 1.21) == 121

    def test_oscillator_nonhomogeneous(self):
        sd = osc_spectral_data([[1.0, -0.5], [-0.5, 0.25]], [-1.0, 0.5])
        assert k_diag(sd, 15.0 / 4.0) == 115

    def test_rejects_nonpositive_value(self):
        sd = osc_spectral_data(np.eye(2), np.zeros(2))
        with pytest.raises(NonPositiveNu):
            k_diag(sd, 0.0)

    def test_nilpotent_system(self):
        dec = eig_decompose(np.zeros((2, 2)))
        sd = build_spectral_data(dec, np.eye(2), np.zeros(2), vertices(osc_box()))
        assert k_diag(sd, 1.0) == 1

    def test_value_at_envelope_clamps_to_one(self):
        sd = osc_spectral_data(np.eye(2), np.zeros(2))
        assert k_diag(sd, sd.envelope) == 1
        assert k_diag(sd, sd.envelope * 2.0) == 1


def random_convergent_instances(count, seed, dims=(1, 2, 3), rho_hi=0.85):
    """Convergent diagonalizable convex instances with moderate decay rates."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        d = int(rng.integers(dims[0], dims[-1] + 1))
        raw = rng.uniform(-1.0, 1.0, size=(d, d))
        rho_target = rng.uniform(0.2, rho_hi)
        measured = float(np.max(np.abs(np.linalg.eigvals(raw))))
        if measured == 0.0:
            continue
        A = raw * (rho_target / measured)
        try:
            dec = eig_decompose(A)
        except NotDiagonalizable:
            continue
        M = rng.uniform(-1.0, 1.0, size=(d, d))
        Q = M.T @ M + 1e-6 * np.eye(d)
        q = rng.uniform(-1.0, 1.0, size=d) if rng.random() < 0.5 else np.zeros(d)
        center = rng.uniform(-1.0, 1.0, size=d)
        radius = rng.uniform(0.1, 1.0, size=d)
        box = Box(center - radius, center + radius)
        inst = ProblemInstance(A=A, b=np.zeros(d), Qmat=Q, qvec=q, Xin=box, N=100)
        yield dec, inst
        made += 1


class TestEnvelopeProperties:
    def test_soundness_and_stopping_rank_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for dec, inst in random_convergent_instances(1000, seed=1001):
            sd = build_spectral_data(dec, inst.Qmat, inst.qvec, vertices(inst.Xin))
            nus, _ = nu_prefix(inst, 60)

            # every value after rank 0 sits below the envelope
            assert np.all(nus[1:] <= sd.envelope + 1e-7)

            positives = np.flatnonzero(nus > 0.0)
            if positives.size == 0:
                continue
            j = int(rng.choice(positives))
            K = k_diag(sd, float(nus[j]))
            assert K >= 1
            # beyond the stopping rank no value exceeds nu_j
            horizon = K + 40
            tail, _ = nu_prefix(inst, horizon)
            assert np.all(tail[K:] <= nus[j] + 1e-7)

            # a better value never enlarges the stopping rank
            if positives.size >= 2:
                a, b = int(positives[0]), int(positives[-1])
                lo, hi = (a, b) if nus[a] <= nus[b] else (b, a)
                assert k_diag(sd, float(nus[hi])) <= k_diag(sd, float(nus[lo]))

    def test_k_diag_always_at_least_one(self):
        for dec, inst in random_convergent_instances(50, seed=77):
            sd = build_spectral_data(dec, inst.Qmat, inst.qvec, vertices(inst.Xin))
            for nu in (1e-8, 1e-3, 0.5, sd.envelope * 0.99, sd.envelope * 3.0):
                assert k_diag(sd, nu) >= 1


def mixed_instances():
    """Convex and concave objectives, boxes and vertex lists, linear and affine systems, d = 1..4.

    Fewer concave instances: each of their ranks is an interior-point QP.
    """
    for kind, set_kind, count, per_spec in (
        (ObjectiveKind.CXH, "box", None, 3),
        (ObjectiveKind.CXNH, "vertices", 8, 3),
        (ObjectiveKind.CANH, "box", None, 1),
    ):
        for system in SystemKind:
            for dim in (1, 2, 3, 4):
                spec = BenchSpec(dim, system, kind, set_kind, count, 1, 90 + dim, 100)
                for index in range(per_spec):
                    yield random_instance(spec, index)


def reduced_spectral_data(inst):
    """The envelope data a solve of inst builds, in reduced coordinates."""
    dec, red = eig_decompose(inst.A), reduce_affine(inst)
    return build_spectral_data(dec, red.Qmat, red.qvec_reduced, vertices(red.Xwork))


def polydisc_bounds(inst, ks):
    """P_k from its definition in the bounds docstring, and whether some mode's own terms peak below a_i(k)."""
    sd, red = reduced_spectral_data(inst), reduce_affine(inst)
    dec = sd.dec
    G = dec.U.conj().T @ red.Qmat @ dec.U
    e = np.abs(dec.U.conj().T @ red.qvec_reduced)
    P, clamped = [], False
    for k in ks:
        a = np.abs(dec.D) ** k * np.sqrt(sd.mode_max)
        total = sum(abs(G[i, j]) * a[i] * a[j] for i in range(len(a)) for j in range(len(a)) if i != j)
        for i in range(len(a)):
            g, t = G[i, i].real, a[i]
            if g < 0.0 and e[i] / (-2.0 * g) < a[i]:
                t, clamped = e[i] / (-2.0 * g), True
            total += g * t * t + e[i] * t
        P.append(total)
    return np.array(P), clamped


class TestRankBound:
    def test_bounds_every_rank_and_never_grows(self):
        seen = collections.Counter()
        clamped = False  # whether a concave mode's own terms peak inside its disc at some rank
        for inst in mixed_instances():
            rep = solve(inst)
            if rep.status is not SolveStatus.K_DIAG or not rep.K_trace:
                continue
            horizon = 4 * rep.K_trace[-1][1]
            sd = reduced_spectral_data(inst)
            nus, _ = nu_prefix(inst, horizon)
            B = np.array([rank_bound(sd, k) for k in range(horizon + 1)])
            ref, peaked = polydisc_bounds(inst, range(horizon + 1))
            np.testing.assert_allclose(B, ref, rtol=1e-12, atol=1e-300)
            convex = np.linalg.eigvalsh(inst.Qmat)[-1] > 0.0
            clamped |= peaked and not convex
            # with the margin the solver allows before it settles a rank by its bound
            assert np.all((1.0 + TOL_RANK_BOUND) * B >= nus)
            assert np.all(np.diff(B) <= 0.0)
            seen[convex, isinstance(inst.Xin, VRep), bool(np.any(sd.dec.D.imag))] += 1
        # convex box, convex vertex list and concave box, each with real and with complex spectra
        assert len(seen) == 6 and min(seen.values()) >= 4
        # the sweep above covers the peak of a concave mode's own terms, not only t = a_i
        assert clamped

    def test_an_array_of_ranks_agrees_with_one_rank_at_a_time(self):
        eps = np.finfo(float).eps
        checked = 0
        for inst in mixed_instances():
            rep = solve(inst)
            if rep.status is not SolveStatus.K_DIAG or not rep.K_trace:
                continue
            sd = reduced_spectral_data(inst)
            ranks = np.arange(4 * rep.K_trace[-1][1] + 1)
            B = rank_bound(sd, ranks)
            one = np.array([rank_bound(sd, int(k)) for k in ranks])
            assert B.shape == ranks.shape
            assert np.all(np.abs(B - one) <= 4.0 * eps * np.abs(one))
            assert np.all(np.diff(B) <= 0.0)
            checked += 1
        assert checked >= 40

    def test_polydisc_member_is_exact_for_a_diagonal_system(self):
        inst = diagonal_instance()
        sd = reduced_spectral_data(inst)
        nus, _ = nu_prefix(inst, 40)
        for k in range(41):
            assert rank_bound(sd, k) == pytest.approx(nus[k], rel=1e-12, abs=0.0)

    def test_oscillator_modes_decay_together(self):
        # a conjugate pair of equal modulus: the bound is the envelope's rho^(2k) M L
        inst = ProblemInstance(A=OSC_A, b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box())
        sd = reduced_spectral_data(inst)
        for k in (0, 1, 50, 111):
            assert rank_bound(sd, k) == pytest.approx(sd.lmax_abs * sd.mu_gram * sd.dec.rho ** (2 * k), rel=1e-12)

    def test_mode_maxima_over_several_blocks(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1.0, 1.0, size=(12, 12))
        dec = eig_decompose(0.9 * A / np.max(np.abs(np.linalg.eigvals(A))))
        box = vertices(Box(-rng.uniform(0.1, 1.0, 12), rng.uniform(0.1, 1.0, 12)))
        cloud = rng.uniform(-1.0, 1.0, size=(2 * MODE_BLOCK_ROWS + 7, 12))
        cloud[-1] *= 3.0  # the largest values sit in the last, partial block
        for V in (box, cloud):
            assert V.shape[0] > MODE_BLOCK_ROWS
            sd = build_spectral_data(dec, np.eye(12), np.zeros(12), V)
            Y = np.abs(V @ dec.U_inv.T) ** 2
            np.testing.assert_allclose(sd.mode_max, np.max(Y, axis=0), rtol=1e-12)
            # M, the largest ||U^-1 x||^2, from the same blocks
            assert sd.mu_gram == pytest.approx(float(np.max(Y.sum(axis=1))), rel=1e-12)
            if V is cloud:
                assert np.argmax(Y.sum(axis=1)) >= 2 * MODE_BLOCK_ROWS


def brute_max(Q, q, X) -> float:
    """The largest value of x^T Q x + q^T x over the rows x of X."""
    return float(np.max(np.einsum("ij,ij->i", X @ Q, X) + X @ q))


class TestBoxBound:
    def test_psd_bound_on_boxes_with_collapsed_coordinates(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            M = rng.normal(size=(int(rng.integers(1, d + 1)), d))
            Q, q = M.T @ M, rng.normal(size=d)
            lower = rng.uniform(-2.0, 1.0, size=d)
            upper = lower + rng.uniform(0.0, 2.0, size=d) * (rng.random(d) < 0.7)
            box = Box(lower, upper)
            beta, sigma = box_bound(Q, q, *_bounding_box(box))
            # with the margin the solver allows: a fully collapsed box leaves only rounding between them
            assert beta + TOL_RANK_BOUND * sigma >= brute_max(Q, q, vertices(box))
            # sigma covers every term of beta in absolute value
            c, r = _bounding_box(box)
            g = 2.0 * Q @ c + q
            terms = abs(c @ Q @ c + q @ c) + np.abs(r * g).sum() + r @ np.abs(Q) @ r
            assert sigma >= terms * (1.0 - 1e-12)

    def test_psd_bound_on_vertex_clouds(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            M = rng.normal(size=(d, d))
            Q, q = M.T @ M, rng.normal(size=d)
            points = rng.normal(size=(int(rng.integers(1, 60)), d)) + rng.normal(size=d)
            centre, radius = _bounding_box(VRep(points))
            # the coordinate range of the points, up to the rounding of the centre and half-widths
            tol = 4e-16 * (1.0 + np.abs(points).max())
            np.testing.assert_allclose(centre - radius, points.min(axis=0), rtol=0.0, atol=tol)
            np.testing.assert_allclose(centre + radius, points.max(axis=0), rtol=0.0, atol=tol)
            beta, sigma = box_bound(Q, q, centre, radius)
            assert beta + TOL_RANK_BOUND * sigma >= brute_max(Q, q, points)

    def test_indefinite_bound_over_sampled_box_points(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            Q = rng.normal(size=(d, d))
            Q, q = Q + Q.T, rng.normal(size=d)
            centre, radius = rng.normal(size=d), rng.uniform(0.0, 1.5, size=d)
            beta, sigma = box_bound(Q, q, centre, radius)
            corners = vertices(Box(centre - radius, centre + radius))
            inside = centre + radius * rng.uniform(-1.0, 1.0, size=(200, d))
            assert beta + TOL_RANK_BOUND * sigma >= brute_max(Q, q, np.vstack([corners, inside]))

    def test_singular_nsd_bound_at_least_the_kkt_maximum(self):
        rng = np.random.default_rng(44)
        for _ in range(60):
            d = int(rng.integers(2, 5))
            M = rng.normal(size=(d - 1, d))  # rank d - 1 at most: singular
            obj = QuadraticObjective(-(M.T @ M), rng.normal(size=d))
            lower = rng.uniform(-2.0, 1.0, size=d)
            upper = lower + rng.uniform(0.1, 2.0, size=d)
            beta, sigma = box_bound(obj.Qmat, obj.qvec, *_bounding_box(Box(lower, upper)))
            assert beta + TOL_RANK_BOUND * sigma >= concave_box_max_kkt(obj, lower, upper)

    def test_exact_for_a_diagonal_psd_form_on_a_centred_box(self):
        Q = np.diag([1.0, 0.0, 2.5, 4.0])
        radius = np.array([0.5, 3.0, 1.25, 2.0])
        box = Box(-radius, radius)
        beta, sigma = box_bound(Q, np.zeros(4), *_bounding_box(box))
        assert beta == brute_max(Q, np.zeros(4), vertices(box)) == 0.25 + 2.5 * 1.5625 + 16.0
        assert sigma == beta

    def test_stacked_rank_objectives_agree_with_one_matrix_at_a_time(self):
        eps = np.finfo(float).eps
        stacks = 0
        for kind, set_kind, dim in (
            (ObjectiveKind.CXNH, "box", 3),
            (ObjectiveKind.CXH, "vertices", 5),
            (ObjectiveKind.CANH, "box", 4),
            (ObjectiveKind.CXNH, "box", 6),
        ):
            count = 12 if set_kind == "vertices" else None
            spec = BenchSpec(dim, SystemKind.AFFINE, kind, set_kind, count, 1, 900 + dim, 100)
            for index in range(3):
                inst = random_instance(spec, index)
                objectives = list(rank_objectives(inst, 40))
                Qs = np.stack([f.Qmat for f in objectives])
                qs = np.stack([f.qvec for f in objectives])
                centre, radius = _bounding_box(reduce_affine(inst).Xwork)
                betas, sigmas = box_bound(Qs, qs, centre, radius)
                assert betas.shape == sigmas.shape == (len(objectives),)
                corners = vertices(Box(centre - radius, centre + radius))
                for f, beta, sigma in zip(objectives, betas, sigmas, strict=True):
                    one_beta, one_sigma = box_bound(f.Qmat, f.qvec, centre, radius)
                    assert abs(beta - one_beta) <= 4.0 * eps * sigma
                    assert abs(sigma - one_sigma) <= 4.0 * eps * sigma
                    assert beta + TOL_RANK_BOUND * sigma >= brute_max(f.Qmat, f.qvec, corners)
                stacks += 1
        assert stacks == 12


def conditioned_matrix(rng, d, cond):
    """A real d x d matrix S B S^-1 with cond(S) = cond and spectral radius below 0.9.

    B is diagonal, with a rotation block for a complex pair half of the time.
    """
    Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    S = Q1 @ np.diag(np.logspace(0.0, -np.log10(cond), d)) @ Q2
    B = np.diag(rng.uniform(-0.9, 0.9, size=d))
    if rng.random() < 0.5:
        r, t = rng.uniform(0.3, 0.9), rng.uniform(0.2, 3.0)
        B[:2, :2] = r * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    return S @ B @ np.linalg.inv(S)


def mp_vertex_maxima(U, X):
    """M = max ||U^-1 x||^2 and the m_i = max |(U^-1 x)_i|^2 over the rows x of X, in 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        Y = mpmath.matrix(U.tolist()) ** -1 * mpmath.matrix(X.T.tolist())
        sq = [[abs(Y[i, j]) ** 2 for j in range(X.shape[0])] for i in range(U.shape[0])]
        M = max(sum(col) for col in zip(*sq))
        return float(M), np.array([float(max(row)) for row in sq])


class TestEnvelopeOracle:
    def test_vertex_maxima_match_a_60_digit_evaluation(self):
        """M and the m_i for the stored U, against mpmath, for cond(U) from 1 to about 3e6.

        The program takes both from U^-1 = inv(U) in double precision, which
        carries a relative error of order cond(U) eps. Each is checked to an
        absolute 4 d cond(U) eps M: M itself, and every m_i, which can sit far
        below M. Boxes go through the vertex array and the corner table.
        """
        eps = np.finfo(float).eps
        conds = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            for target in np.logspace(0.0, 6.5, 14):
                d = int(rng.integers(2, 7))
                dec = eig_decompose(conditioned_matrix(rng, d, target))
                cond = float(np.linalg.cond(dec.U))
                conds.append(cond)
                lower = rng.uniform(-2.0, 1.0, size=d)
                box = Box(lower, lower + rng.uniform(0.1, 3.0, size=d))
                cloud = rng.normal(size=(12, d))
                for V, X in ((vertices(box), vertices(box)), (BoxCorners(box), vertices(box)), (cloud, cloud)):
                    sd = build_spectral_data(dec, np.eye(d), np.zeros(d), V)
                    M, m = mp_vertex_maxima(dec.U, X)
                    tol = 4 * d * cond * eps * M
                    assert abs(sd.mu_gram - M) <= tol
                    assert np.all(np.abs(sd.mode_max - m) <= tol)
        assert min(conds) < 10.0 and max(conds) > 1e6


class TestCornerTableEnvelope:
    def test_mu_and_mode_maxima_match_the_row_path(self):
        """A BoxCorners table gives M and the m_i of the vertex array, up to rounding."""
        for rng, box in corner_table_boxes(41):
            d = box.dim
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            dec = eig_decompose(0.9 * A / np.max(np.abs(np.linalg.eigvals(A))))
            M = rng.normal(size=(d, d))
            Q, q = M.T @ M, rng.normal(size=d)
            got = build_spectral_data(dec, Q, q, BoxCorners(box))
            ref = build_spectral_data(dec, Q, q, vertices(box))
            assert np.any(dec.D.imag != 0.0)
            assert got.mu_gram == pytest.approx(ref.mu_gram, rel=1e-12)
            np.testing.assert_allclose(got.mode_max, ref.mode_max, rtol=1e-12)
            assert (got.lmax_abs, got.v_diag) == (ref.lmax_abs, ref.v_diag)


class TestZonogonMaxima:
    """The mode maxima from the zonogon's sorted edges against enumerating every corner."""

    def test_matches_corner_enumeration(self):
        rng = np.random.default_rng(71)
        for d in range(1, 17):
            for collapsed in (0, min(2, d)):
                dec = eig_decompose(rng.uniform(-1.0, 1.0, size=(d, d)))
                lower = rng.uniform(-2.0, 1.0, size=d)
                upper = lower + rng.uniform(0.1, 3.0, size=d)
                cols = rng.choice(d, size=collapsed, replace=False)
                upper[cols] = lower[cols]
                assert_zonogon_maxima_match(dec.U_inv, Box(lower, upper))

    def test_real_spectrum(self):
        """A real spectrum puts every edge on the real line, with imaginary parts of +0, -0 or rounding size."""
        rng = np.random.default_rng(72)
        for d in (1, 3, 8, 12):
            S = rng.normal(size=(d, d))
            dec = eig_decompose(S @ np.diag(rng.uniform(-0.9, 0.9, size=d)) @ np.linalg.inv(S))
            assert np.all(dec.D.imag == 0.0)
            lower = rng.uniform(-2.0, 1.0, size=d)
            assert_zonogon_maxima_match(dec.U_inv, Box(lower, lower + rng.uniform(0.1, 3.0, size=d)))

    def test_parallel_edges(self):
        """Two proportional columns of U_inv give parallel edges, in the same and in opposite directions."""
        rng = np.random.default_rng(73)
        for d, scale in ((2, 2.5), (5, -0.75), (9, -1.0), (13, 3.0)):
            U_inv = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            U_inv[:, -1] = scale * U_inv[:, 0]
            lower = rng.uniform(-2.0, 1.0, size=d)
            assert_zonogon_maxima_match(U_inv, Box(lower, lower + rng.uniform(0.1, 3.0, size=d)))

    def test_edges_with_signed_zero_parts(self):
        """Edges on the axes, with every sign of zero in either part, and zero edges from collapsed coordinates."""
        re = np.array([1.0, -1.0, 0.0, -0.0, 0.0, -0.0, 2.0, -0.0])
        im = np.array([0.0, -0.0, 1.0, -1.0, -0.0, 0.0, -0.0, -3.0])
        U_inv = np.empty((len(re), len(re)), dtype=complex)
        for i in range(len(re)):
            U_inv[i].real, U_inv[i].imag = np.roll(re, i), np.roll(im, i)
        lower = np.array([-1.0, 0.5, -0.25, 1.5, -2.0, 0.0, 0.75, -0.5])
        for width in (np.full(8, 1.5), np.array([1.0, 0.0, 2.0, 0.0, 0.5, 0.0, 1.0, 0.0])):
            assert_zonogon_maxima_match(U_inv, Box(lower, lower + width))
