"""End-to-end solves, the affine reduction, and the brute-force cross-checks."""

import collections
import itertools
import tracemalloc

import numpy as np
import pytest

import reachmax
from reachmax import Box, ProblemInstance, SolveStatus, VRep, geometry, seqlab, solve
from reachmax import solver as solver_module
from reachmax.qpcore import maximize_convex_vertices
from reachmax.bounds import TOL_RANK_BOUND, box_bound, rank_bound
from reachmax.seqlab import FiniteC0Sequence
from reachmax.solver import _RankEvaluator, reduce_affine
from reachmax.linalg import SHIFT_COND_LIMIT, eig_decompose
from reachmax.benchgen import BenchSpec, ObjectiveKind, SystemKind, random_instance
from reachmax.errors import (
    AssumptionViolated,
    DimensionTooLarge,
    NotConvergent,
    NotDiagonalizable,
    SingularShift,
    UnsupportedObjective,
)

import support
from support import (
    OSC_A,
    RangeOnly,
    answer_key,
    brute_force,
    composed,
    concave_box_max_kkt,
    diagonal_instance,
    form,
    form_value,
    nu_prefix,
    osc_box,
    paper_loop,
    partial_sup,
    rank_evaluator,
    rank_objectives,
    stepped_objective,
    trajectory_max,
)


def osc_instance(Q, q=(0.0, 0.0), N=100):
    return ProblemInstance(
        A=OSC_A, b=np.zeros(2), Qmat=np.asarray(Q, float), qvec=np.asarray(q, float), Xin=osc_box(), N=N
    )


def convex_evaluator(inst):
    """The solver's rank evaluator for an instance with a convex objective."""
    red = reduce_affine(inst)
    return _RankEvaluator(red, geometry.vertex_set(red.Xwork))


DECAYING_1D = ProblemInstance(
    A=[[0.5]], b=[0.0], Qmat=[[1.0]], qvec=[-1.0], Xin=Box([0.25], [0.5]), N=100
)

# the rank-0 value can never exceed the envelope, only attain it; this instance attains it
# exactly in floating point (envelope sqrt(4) (sqrt(4) + 0) = 4 = nu_0)
COROLLARY_ONE_1D = ProblemInstance(A=[[0.5]], b=[0.0], Qmat=[[1.0]], qvec=[0.0], Xin=Box([0.0], [2.0]))

# an affine oscillator on a vertex list: k_pos = 88, and ranks 88..207 improve one after another
OSC_VERTEX_LIST = ProblemInstance(
    A=OSC_A, b=[0.1, -0.2], Qmat=np.eye(2), qvec=[0.3, 0.0],
    Xin=VRep([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.5, 0.5 + 1e-13]]),
)


class TestPackageNamespace:
    def test_the_namespace_is_the_solve_api(self):
        assert sorted(reachmax.__all__) == [
            "Box", "Polytope", "ProblemInstance", "SolveReport", "SolveStatus", "VRep", "solve"
        ]
        for name in reachmax.__all__:
            getattr(reachmax, name)
        # the test oracles live in tests/support.py, beside the other oracles
        assert not hasattr(reachmax, "brute_force")
        assert not hasattr(solver_module, "brute_force")
        assert not hasattr(seqlab, "partial_sup")


class TestReduceAffine:
    def test_linear_identity_reduction(self):
        inst = osc_instance(np.eye(2))
        red = reduce_affine(inst)
        assert red.offset == 0.0
        np.testing.assert_array_equal(red.b_tilde, np.zeros(2))
        np.testing.assert_array_equal(red.qvec_reduced, inst.qvec)
        np.testing.assert_array_equal(red.Xwork.lower, inst.Xin.lower)

    def test_one_dimensional_shift(self):
        inst = ProblemInstance(A=[[0.5]], b=[1.0], Qmat=[[1.0]], qvec=[0.0], Xin=Box([0.0], [1.0]))
        red = reduce_affine(inst)
        assert red.b_tilde[0] == pytest.approx(2.0, abs=0.0)
        np.testing.assert_array_equal(red.Xwork.lower, [-2.0])
        np.testing.assert_array_equal(red.Xwork.upper, [-1.0])
        # linear coefficient 2*Q*b~ + q and constant b~^T Q b~ + q^T b~
        assert red.qvec_reduced[0] == pytest.approx(4.0, abs=0.0)
        assert red.offset == pytest.approx(4.0, abs=0.0)

    def test_singular_shift_guard(self):
        inst = ProblemInstance(A=np.eye(2), b=[1.0, 0.0], Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box())
        with pytest.raises(SingularShift):
            reduce_affine(inst)


def shift_near_singular(rng, d):
    """A real d x d matrix A = S diag(D) S^-1 whose cond(I - A) lies within a few factors of 10 of SHIFT_COND_LIMIT.

    cond(S) is drawn from 10 to 1e3, and one eigenvalue is 1 - g with the gap
    g = cond(S) 10^-u, u uniform in (11, 12.3), since cond(I - A) grows about
    like cond(S) / g; the others lie in [-0.5, 0.5]. g is at least 5e-12, so
    A converges strictly.
    """
    Q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    Q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cond_s = 10.0 ** rng.uniform(1.0, 3.0)
    S = Q1 @ np.diag(np.logspace(0.0, -np.log10(cond_s), d)) @ Q2
    eigenvalues = np.linspace(-0.5, 0.5, d)
    eigenvalues[0] = 1.0 - cond_s * 10.0 ** -rng.uniform(11.0, 12.3)
    return S @ np.diag(eigenvalues) @ np.linalg.inv(S)


class TestShiftConditioningDecision:
    """reduce_affine refuses I - A exactly when np.linalg.cond(I - A) > SHIFT_COND_LIMIT, whether or not it runs the SVD."""

    def test_decision_matches_the_svd_on_either_side_of_the_limit(self):
        rng = np.random.default_rng(41)
        sides = collections.Counter()
        for _ in range(100):
            d = int(rng.integers(2, 7))
            inst = ProblemInstance(
                A=shift_near_singular(rng, d), b=np.ones(d), Qmat=np.eye(d), qvec=np.zeros(d),
                Xin=Box(-np.ones(d), np.ones(d)),
            )
            assert eig_decompose(inst.A).rho < 1.0 - 1e-12
            shift = np.eye(d) - inst.A
            within = bool(np.linalg.cond(shift) <= SHIFT_COND_LIMIT)
            try:
                reduce_affine(inst)
                refused = False
            except SingularShift:
                refused = True
            assert refused is not within
            frobenius = np.linalg.norm(shift) * np.linalg.norm(np.linalg.inv(shift))
            sides[within, bool(frobenius <= SHIFT_COND_LIMIT / 2.0)] += 1
        # accepted without the SVD, accepted by it, refused by it
        assert min(sides[True, True], sides[True, False], sides[False, False]) >= 10

    def test_well_conditioned_affine_solves_need_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the solve computed a condition number")

        affine_box = ProblemInstance(A=OSC_A, b=[0.05, 0.02], Qmat=np.eye(2), qvec=[0.5, -0.25], Xin=osc_box())
        specs = [
            BenchSpec(4, SystemKind.AFFINE, ObjectiveKind.CXNH, 20, 3, 7),
            BenchSpec(3, SystemKind.AFFINE, ObjectiveKind.CANH, None, 3, 8),
        ]
        instances = [OSC_VERTEX_LIST, affine_box] + [
            random_instance(spec, index) for spec, index in itertools.product(specs, range(3))
        ]
        monkeypatch.setattr(np.linalg, "cond", no_svd)
        for inst in instances:
            assert np.any(inst.b)
            solve(inst)

    def test_a_shift_that_lu_cannot_invert_is_refused_by_the_svd(self):
        """An I - A whose LU meets an exactly zero pivot by rounding, although A converges strictly.

        A is lower triangular, so its eigenvalues are its diagonal, 0.75,
        1 - 2^-37 and -0.5. In I - A, elimination takes the row (1, 2^19, 1.5)
        first; the second pivot 2^-37 - 2^18 rounds to -2^18, every other step
        is exact, with or without fused multiply-adds, and the last pivot is 0.
        So np.linalg.inv raises, and the SVD's condition number, near 1e22,
        refuses the shift.
        """
        A = np.array([[0.75, 0.0, 0.0], [-0.5, 1.0 - 2.0**-37, 0.0], [-1.0, -(2.0**19), -0.5]])
        inst = ProblemInstance(A=A, b=np.ones(3), Qmat=np.eye(3), qvec=np.zeros(3), Xin=Box(-np.ones(3), np.ones(3)))
        shift = np.eye(3) - A
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(shift)
        assert eig_decompose(A).rho < 1.0 - 1e-12
        assert np.linalg.cond(shift) > SHIFT_COND_LIMIT
        with pytest.raises(SingularShift):
            solve(inst)


class TestNuAt:
    """The per-rank optima nu_k, from the solver's rank evaluator."""

    @staticmethod
    def nu(ev, k):
        return ev.maximize(stepped_objective(ev, k))[0]

    def test_oscillator_rank_zero(self):
        ev = convex_evaluator(osc_instance(np.eye(2)))
        val = self.nu(ev, 0)
        assert val == 2.0

    def test_decaying_values_stay_negative(self):
        ev = convex_evaluator(DECAYING_1D)
        for k in (0, 1, 5, 40):
            val = self.nu(ev, k)
            expected = (1.0 / 16.0) * 0.25**k - 0.25 * 0.5**k
            assert val == pytest.approx(expected, abs=1e-15)
            assert val < 0.0

    def test_oscillator_peak_value(self):
        ev = convex_evaluator(osc_instance(np.diag([1.0, 0.0])))
        val = self.nu(ev, 61)
        assert val == pytest.approx(1.64886, abs=1e-4)


class TestRankEvaluator:
    def test_rejects_a_non_finite_rank_objective(self):
        ev = rank_evaluator(form([[1.0]], [0.0]), [[1e200]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            ev.objectives(1)

    def test_rejects_a_block_with_a_non_finite_rank_objective(self):
        ev = rank_evaluator(form([[1.0]], [0.0]), [[1e200]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite"):
            ev.objectives(2)

    @staticmethod
    def instance_on(rng, Xin, concave=False, linear=True):
        """A linear instance on Xin with spectral radius 0.9, a convex or strictly concave objective."""
        d = Xin.dim
        A, M = rng.uniform(-1.0, 1.0, size=(d, d)), rng.normal(size=(d, d))
        Q = -(M.T @ M) - 1e-3 * np.eye(d) if concave else M.T @ M
        return ProblemInstance(A=0.9 * A / np.max(np.abs(np.linalg.eigvals(A))), b=np.zeros(d), Qmat=Q,
                               qvec=rng.normal(size=d) if linear else np.zeros(d), Xin=Xin)

    def test_exact_block_screens_and_evaluations_are_the_rank_maxima_bit_for_bit(self):
        rng = np.random.default_rng(45)
        ties = 0
        for _ in range(300):
            d, m, n = (int(v) for v in rng.integers(1, (7, 65, 9)))
            V = rng.normal(size=(m, d))
            tied = m % 2 == 0 and rng.uniform() < 0.5
            if tied:
                # x and -x tie under a form without a linear part: the first of the pair must win
                V[m // 2 :] = -V[: m // 2]
            inst = self.instance_on(rng, VRep(V), linear=not tied)
            ties += tied
            ev = convex_evaluator(inst)
            assert ev.exact_ranks >= n
            screen, evaluate = ev.block(n)
            for i, f in enumerate(itertools.islice(rank_objectives(inst, n), 1, None)):
                nu, x = maximize_convex_vertices(f, V)
                got_nu, got_x = evaluate(i)
                assert np.array([screen[i], got_nu]).tobytes() == np.array([nu, nu]).tobytes()
                assert got_x.tobytes() == x.tobytes()
        assert ties >= 50

    def test_screened_block_screens_bound_the_rank_maxima(self):
        rng = np.random.default_rng(46)
        n = 2 * solver_module.SCAN_BLOCK_MIN
        for Xin, concave in (
            (VRep(rng.normal(size=(40, 3))), False),
            (Box(-rng.uniform(0.1, 1.0, size=11), rng.uniform(0.1, 1.0, size=11)), False),
            (Box(-rng.uniform(0.1, 1.0, size=3), rng.uniform(0.1, 1.0, size=3)), True),
        ):
            for _ in range(3):
                inst = self.instance_on(rng, Xin, concave)
                red = reduce_affine(inst)
                ev = _RankEvaluator(red, red.Xwork if concave else geometry.vertex_set(red.Xwork))
                assert ev.exact_ranks < n
                assert isinstance(ev._verts, geometry.BoxCorners) == (Xin.dim == 11)
                screen, evaluate = ev.block(n)
                for i, f in enumerate(itertools.islice(rank_objectives(inst, n), 1, None)):
                    nu, x = ev.maximize(f)
                    got_nu, got_x = evaluate(i)
                    assert screen[i] >= nu
                    assert np.float64(got_nu).tobytes() == np.float64(nu).tobytes()
                    assert got_x.tobytes() == x.tobytes()


def underflow_instance(N: int) -> ProblemInstance:
    """A d = 3 affine box instance whose every rank value is negative; the values rise toward 0 and underflow.

    In exact arithmetic no rank reaches the supremum, the offset. Past rank
    about 870 the computed rank values are subnormal, and at rank 876 one
    rounds to a positive number near 1e-323.
    """
    h = np.vectorize(float.fromhex)
    A = h([
        ["0x1.ca1d5cc785f60p-3", "0x1.cf68d7a2bfb6bp-4", "0x1.8f02d4c7d353ap-2"],
        ["0x1.b494117058219p-4", "-0x1.0f0a93dc5ccc7p-3", "-0x1.963998edb54bbp-2"],
        ["0x1.2264846fe038fp-2", "0x1.a4d2033314514p-2", "0x1.ac100d23777b6p-4"],
    ])
    Q = h([
        ["0x1.22ca35796efcap-1", "0x1.6b9264b6c92abp-3", "0x1.0da883f469837p-2"],
        ["0x1.6b9264b6c92abp-3", "0x1.54273f5f404fcp-1", "0x1.7d691823397c0p-2"],
        ["0x1.0da883f469837p-2", "0x1.7d691823397c0p-2", "0x1.0b4a036ca3cb5p+0"],
    ])
    b = h(["-0x1.f9a8f515b735cp-1", "0x1.5327635509af8p-3", "-0x1.80bdf13169beap-1"])
    q = h(["-0x1.e5c32ccf102f8p-1", "0x1.c318edd2233a0p-3", "0x1.4b462541ea6e0p-4"])
    lower = h(["-0x1.7f2f1c08de823p+0", "-0x1.5992666b32beap-2", "-0x1.3d0fd0fbda812p-1"])
    upper = h(["0x1.e9bd5f05c3334p-2", "0x1.7b9df885c9a1ep+0", "-0x1.6339c2ff0651ap-3"])
    return ProblemInstance(A=A, b=b, Qmat=Q, qvec=q, Xin=Box(lower, upper), N=N)


class TestUnderflowedRankValue:
    """A rank value that is positive only by underflow must not become k_pos (ROADMAP item 1)."""

    def test_fails_at_a_short_scan_cap(self):
        rep = solve(underflow_instance(20))
        assert rep.status is SolveStatus.FAILED
        assert rep.iterations == 21

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the scan takes the underflowed value at rank 876 as k_pos")
    def test_no_rank_attains_the_supremum_at_a_long_scan_cap(self):
        rep = solve(underflow_instance(20000))
        assert rep.k_pos is None and rep.k_opt is None


class TestSupremumOnlyInTheLimit:
    """The concave screen for a zero reduced linear part must not report an attained maximum (ROADMAP item 1)."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: with no limit status yet, the screen reports Failed")
    def test_fixed_point_outside_the_initial_set(self):
        # b~ = 2 and f(x) = -x^2 + 4x peaks at 2; from [0, 1], x_k = 2 - 2^-k x'_0 with x'_0 in [1, 2]
        # never reaches 2, so nu_k = 4 - 4^-k < 4 at every rank and the supremum 4 is only a limit
        inst = ProblemInstance(A=[[0.5]], b=[1.0], Qmat=[[-1.0]], qvec=[4.0], Xin=Box([0.0], [1.0]))
        rep = solve(inst)
        assert rep.nu_opt == 4.0 and rep.k_opt is None


class TestSolveGoldens:
    def test_oscillator_norm_square(self):
        rep = solve(osc_instance(np.eye(2)))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.nu_opt == 2.0
        assert rep.k_opt == 0
        assert rep.K_trace == [(0, 111)]
        assert rep.k_pos == 0

    def test_oscillator_first_coordinate_square(self):
        rep = solve(osc_instance(np.diag([1.0, 0.0])))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.nu_opt == pytest.approx(1.64886, abs=1e-4)
        assert rep.k_opt == 61
        assert rep.K_trace[0] == (0, 140)
        assert rep.K_trace[-1][1] == 90
        # the incumbent improves at every climb rank, shrinking the horizon
        assert (11, 121) in rep.K_trace and (12, 119) in rep.K_trace

    def test_oscillator_second_coordinate_square(self):
        rep = solve(osc_instance(np.diag([0.0, 1.0])))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.nu_opt == 1.0
        assert rep.k_opt == 0
        assert rep.K_trace[0] == (0, 140)

    def test_oscillator_nonhomogeneous(self):
        rep = solve(osc_instance([[1.0, -0.5], [-0.5, 0.25]], q=(-1.0, 0.5)))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.nu_opt == 3.75
        assert rep.k_opt == 0
        np.testing.assert_array_equal(rep.x_opt, [-1.0, 1.0])
        assert rep.K_trace == [(0, 115)]

    def test_decaying_negative_sequence_fails(self):
        rep = solve(DECAYING_1D)
        assert rep.status is SolveStatus.FAILED
        assert rep.iterations == DECAYING_1D.N + 1
        assert rep.nu_opt is None and rep.x_opt is None and rep.k_opt is None

    def test_failed_soundness_every_value_nonpositive(self):
        nus, _ = nu_prefix(DECAYING_1D, DECAYING_1D.N)
        assert np.all(nus <= 0.0)

    def test_small_scan_cap(self):
        inst = ProblemInstance(
            A=[[0.5]], b=[0.0], Qmat=[[1.0]], qvec=[-1.0], Xin=Box([0.25], [0.5]), N=3
        )
        rep = solve(inst)
        assert rep.status is SolveStatus.FAILED
        assert rep.iterations == 4


class TestSolveValidation:
    def test_not_diagonalizable(self):
        inst = ProblemInstance(
            A=[[1.0, 1.0], [0.0, 1.0]], b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box()
        )
        with pytest.raises(NotDiagonalizable):
            solve(inst)

    def test_not_convergent(self):
        inst = ProblemInstance(
            A=np.diag([1.0, 0.5]), b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box()
        )
        with pytest.raises(NotConvergent):
            solve(inst)

    def test_indefinite_objective_rejected(self):
        inst = osc_instance(np.diag([1.0, -1.0]))
        for run in (solve, lambda inst: brute_force(inst, 3)):
            with pytest.raises(UnsupportedObjective, match="objective must be convex or strictly concave"):
                run(inst)

    def test_indefinite_objective_with_tiny_curvature_rejected(self):
        # lmin = -5e-10 is above an absolute -1e-9, but 5 % of lmax: taken as convex, the vertex maximizer
        # would report 9.5e-9 at (-1, -1), below f(1, 0) = 1e-8 at rank 0
        inst = ProblemInstance(A=0.5 * np.eye(2), b=np.zeros(2), Qmat=np.diag([1e-8, -5e-10]), qvec=np.zeros(2),
                               Xin=Box([-1.0, -1.0], [1.0, 1.0]), N=50)
        for run in (solve, lambda inst: brute_force(inst, 3)):
            with pytest.raises(UnsupportedObjective, match="objective must be convex or strictly concave"):
                run(inst)

    @pytest.mark.parametrize("b", [np.zeros(2), np.array([1.0, -0.5])], ids=["linear", "affine"])
    def test_zero_objective_rejected(self, b):
        inst = ProblemInstance(A=0.5 * np.eye(2), b=b, Qmat=np.zeros((2, 2)), qvec=np.zeros(2), Xin=osc_box())
        for run in (solve, lambda inst: brute_force(inst, 3)):
            with pytest.raises(UnsupportedObjective, match="objective must not be zero: Q = 0 and q = 0"):
                run(inst)

    def test_concave_needs_box(self):
        inst = ProblemInstance(
            A=0.5 * np.eye(2),
            b=np.zeros(2),
            Qmat=-np.eye(2),
            qvec=[1.0, 0.0],
            Xin=VRep([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]),
        )
        with pytest.raises(UnsupportedObjective):
            solve(inst)

    def test_concave_vertex_list_is_refused_before_the_degenerate_screen(self):
        # q~ = 0 here: the screen would report x_opt = [0, 0], outside the hull of the list
        inst = ProblemInstance(
            A=0.5 * np.eye(2), b=np.zeros(2), Qmat=-np.eye(2), qvec=np.zeros(2), Xin=VRep([[1.0, 1.0], [2.0, 0.5]])
        )
        for run in (solve, lambda inst: brute_force(inst, 3)):
            with pytest.raises(UnsupportedObjective, match="a strictly concave objective needs a box initial set"):
                run(inst)

    def test_non_square_A_rejected(self):
        with pytest.raises(ValueError, match="A must be square"):
            ProblemInstance(A=np.ones((2, 3)), b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box())

    def test_asymmetric_Q_rejected_on_construction(self):
        with pytest.raises(ValueError, match=r"Q asymmetry 5\.000e-01 exceeds 1\.0e-09 times max\|Q\| 1\.000e\+00"):
            ProblemInstance(A=OSC_A, b=np.zeros(2), Qmat=[[1.0, 0.5], [0.0, 1.0]], qvec=np.zeros(2), Xin=osc_box())

    def test_asymmetry_is_measured_against_the_scale_of_Q(self):
        # one ulp of skew at 1e8 is 1.49e-8 in absolute terms, and 1e-12 of skew at 1e-12 is all of it
        Q = np.array([[3e8, 1e8], [np.nextafter(1e8, 2e8), 2e8]])
        inst = ProblemInstance(A=OSC_A, b=np.zeros(2), Qmat=Q, qvec=np.zeros(2), Xin=osc_box())
        assert inst.Qmat.tobytes() == ((Q + Q.T) / 2.0).tobytes()
        with pytest.raises(ValueError, match=r"Q asymmetry 1\.000e-12 exceeds 1\.0e-09 times max\|Q\| 1\.000e-12"):
            ProblemInstance(A=OSC_A, b=np.zeros(2), Qmat=1e-12 * np.array([[1.0, 1.0], [0.0, 1.0]]),
                            qvec=np.zeros(2), Xin=osc_box())

    def test_Q_symmetrized_on_construction(self):
        Q = np.array([[1.0, 1e-10], [0.0, 1.0]])  # asymmetry 1e-10, within TOL_SYM
        inst = ProblemInstance(A=OSC_A, b=np.zeros(2), Qmat=Q, qvec=np.zeros(2), Xin=osc_box())
        assert inst.Qmat.tobytes() == ((Q + Q.T) / 2.0).tobytes()
        np.testing.assert_array_equal(inst.Qmat, inst.Qmat.T)

    def test_nearly_symmetric_Q_that_the_objective_accepts_is_solved(self):
        # Q is symmetric within TOL_SYM max|Q| = 4e-9, but U* Q U was checked for symmetry again, at
        # 1e-9 (1 + max|U* Q U|) = 5e-9: the eigenbasis U of A turns Q's skew part S/2 into entries up to
        # ||S||_2 = 6.92e-9
        S = 3.996e-9 * np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])
        # the first two columns span the top singular plane of S, the last is its null vector
        U = np.column_stack([np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), np.array([1.0, -1.0, -2.0]) / np.sqrt(6.0),
                             np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)])
        inst = ProblemInstance(A=U @ np.diag([0.5, 0.4, 0.3]) @ U.T, b=np.zeros(3), Qmat=4.0 * np.eye(3) + S / 2.0,
                               qvec=np.zeros(3), Xin=Box(-np.ones(3), np.ones(3)))
        rep = solve(inst)
        val, k, _ = brute_force(inst, 40)
        assert (rep.nu_opt, rep.k_opt) == (val, k)
        assert (val, k) == (pytest.approx(12.0, rel=1e-12), 0)

    def test_origin_only_linear_initial_set_rejected(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                A=0.5 * np.eye(2), b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2),
                Xin=Box([0.0, 0.0], [0.0, 0.0]),
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"b": np.zeros(3)}, "A, b, Q, q dimensions are inconsistent"),
            ({"qvec": np.zeros((2, 2))}, "A, b, Q, q dimensions are inconsistent"),
            ({"Qmat": np.eye(3)}, "A, b, Q, q dimensions are inconsistent"),
            ({"Xin": [[-1.0, 1.0], [-1.0, 1.0]]}, "Xin must be a Box or a VRep polytope"),
            ({"Xin": Box([-1.0], [1.0])}, "initial set dimension does not match A"),
            ({"A": [[0.5, np.nan], [0.0, 0.5]]}, "problem data must be finite"),
            ({"b": [np.inf, 0.0]}, "problem data must be finite"),
            ({"Qmat": [[1.0, 0.0], [0.0, -np.inf]]}, "problem data must be finite"),
            ({"qvec": [0.0, np.nan]}, "problem data must be finite"),
            # it carries the finite coordinate range and the dimension that validation and the screens read
            ({"Xin": RangeOnly([-1.0, -1.0], [1.0, 1.0])}, "Xin must be a Box or a VRep polytope"),
        ],
    )
    def test_shape_type_and_finiteness_refusals(self, change, message):
        data = dict(A=0.5 * np.eye(2), b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box())
        with pytest.raises(ValueError, match=message):
            ProblemInstance(**{**data, **change})

    def test_Q_that_overflows_when_symmetrized_is_refused(self):
        # finite entries whose sum Q + Q^T is not
        Q = [[1.0, 1.7e308], [1.7e308, 1.0]]
        with pytest.raises(ValueError, match="problem data must be finite"):
            with pytest.warns(RuntimeWarning, match="overflow"):
                ProblemInstance(A=0.5 * np.eye(2), b=np.zeros(2), Qmat=Q, qvec=np.zeros(2), Xin=osc_box())

    def test_reduced_linear_part_that_overflows_is_refused(self):
        # b~ = 2e300, so q~ = 2 Q b~ + q is past the largest float
        inst = ProblemInstance(A=[[0.5]], b=[1e300], Qmat=[[1e307]], qvec=[0.0], Xin=Box([0.0], [1.0]))
        with pytest.raises(ValueError, match="objective data must be finite"):
            with pytest.warns(RuntimeWarning, match="overflow"):
                solve(inst)

    @pytest.mark.parametrize("N", [20, 20.0, np.int64(20), np.float64(20.0)])
    def test_scan_cap_accepts_integral_values(self, N):
        inst = osc_instance(np.eye(2), N=N)
        assert inst.N == 20 and type(inst.N) is int

    @pytest.mark.parametrize("N", [float("inf"), float("-inf"), float("nan"), 2.7, "20", None, True, 0, 0.0, -3])
    def test_scan_cap_rejects_anything_but_a_positive_integer(self, N):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            osc_instance(np.eye(2), N=N)

    def test_solve_takes_only_the_instance(self):
        # the concave QP's duality-measure target is set in one place, qpcore.maximize_concave_qp
        inst = ProblemInstance(
            A=0.5 * np.eye(2), b=np.zeros(2), Qmat=-np.eye(2), qvec=[1.0, 0.5], Xin=osc_box()
        )
        with pytest.raises(TypeError):
            solve(inst, qp_gap_tol=1e-8)


def near_jordan_instance(eps):
    """A = [[0.5, 1], [eps, 0.5]], Q = I on the unit box: cond(U) is about 1/sqrt(eps)."""
    return ProblemInstance(
        A=[[0.5, 1.0], [eps, 0.5]], b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=osc_box(), N=20
    )


class TestConditioningLimit:
    """eig_decompose's cond(U) <= 1e7 is the one limit of solve; brute_force factorizes nothing and takes any A."""

    @pytest.mark.parametrize("eps", [1e-14, 1e-16, 1e-20])
    def test_near_jordan_beyond_the_limit_is_not_diagonalizable(self, eps):
        inst = near_jordan_instance(eps)
        with pytest.raises(NotDiagonalizable):
            solve(inst)
        # rank 1 peaks at the corners +-(1, 1): ||(1.5, 0.5 + eps)||^2
        val, k, _ = brute_force(inst, 5)
        assert k == 1 and val == pytest.approx(trajectory_max(inst, 5), rel=1e-12)

    def test_near_jordan_within_the_limit_solves(self):
        rep = solve(near_jordan_instance(1e-12))  # cond(U) about 1e6
        assert rep.status is SolveStatus.K_DIAG
        assert rep.K_trace[:2] == [(0, 20), (1, 20)]
        assert rep.iterations == 21


class TestInputCopies:
    def test_writes_to_the_inputs_after_construction_change_nothing(self):
        A, b, Q, q = OSC_A.copy(), np.zeros(2), np.eye(2), np.zeros(2)
        inst = ProblemInstance(A=A, b=b, Qmat=Q, qvec=q, Xin=osc_box())
        A[:] = 2.0  # not convergent
        b[:] = 1.0
        Q[0, 1] = 3.0  # not symmetric
        q[:] = np.nan
        for field in (inst.A, inst.b, inst.Qmat, inst.qvec):
            with pytest.raises(ValueError):
                field[0] = 1.0
        rep = solve(inst)
        assert (rep.status, rep.nu_opt, rep.K_trace) == (SolveStatus.K_DIAG, 2.0, [(0, 111)])


class TestVertexLists:
    """A vertex list is taken as given: every stored point competes, and ties go to the first."""

    @staticmethod
    def square_instance(extra=()):
        pts = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], *extra]
        return ProblemInstance(A=OSC_A, b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2), Xin=VRep(pts))

    def test_near_duplicate_that_scores_higher_is_reported(self):
        # within 1e-12 of the corner (1, 1) in the max norm, and farther from the origin
        top = np.array([1.0, 1.0 + 5e-13])
        rep = solve(self.square_instance([top]))
        assert rep.status is SolveStatus.K_DIAG
        assert rep.x_opt.tobytes() == top.tobytes()
        assert rep.nu_opt > solve(self.square_instance()).nu_opt

    def test_exact_duplicates_change_nothing(self):
        once = solve(self.square_instance())
        twice = solve(self.square_instance([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
        assert (twice.status, twice.nu_opt, twice.k_opt, twice.k_pos, twice.K_trace, twice.iterations) == (
            once.status, once.nu_opt, once.k_opt, once.k_pos, once.K_trace, once.iterations)
        assert twice.x_opt.tobytes() == once.x_opt.tobytes()


class TestSingleEnumeration:
    """A convex solve enumerates its working vertex set once, for the envelope and the ranks alike; a concave one never.

    The solver takes it from `geometry.vertex_set`, which builds the vertex
    array by `geometry.vertices`, or a corner table for a large box. A
    concave box takes the envelope's mode maxima from its bounds alone.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = geometry.vertices

        def vertices(P, *args, **kwargs):
            counted.append(P)
            return original(P, *args, **kwargs)

        monkeypatch.setattr(geometry, "vertices", vertices)
        return counted

    def test_convex_vertex_list(self, calls):
        inst = OSC_VERTEX_LIST
        assert solve(inst).status is SolveStatus.K_DIAG
        assert len(calls) == 1

    def test_convex_box(self, calls):
        rep = solve(osc_instance(np.eye(2)))
        assert rep.K_trace == [(0, 111)]
        assert len(calls) == 1

    def test_concave_box(self, calls):
        inst = ProblemInstance(
            A=0.5 * np.eye(2), b=np.zeros(2), Qmat=-np.eye(2), qvec=[1.0, 0.5], Xin=osc_box()
        )
        assert solve(inst).status is not SolveStatus.FAILED
        assert calls == []

    def test_large_box_builds_no_vertex_array(self, calls):
        d = geometry.CORNER_TABLE_MIN_DIM
        inst = ProblemInstance(A=0.5 * np.eye(d), b=np.zeros(d), Qmat=np.eye(d), qvec=np.zeros(d),
                               Xin=Box(-np.ones(d), np.ones(d)))
        assert solve(inst).status is not SolveStatus.FAILED
        assert calls == []


class TestMaximizerCalls:
    """One maximizer call per rank evaluated alone, looked up in the solver module with a fixed call shape.

    The ranks of a short block over a small vertex array are evaluated
    together instead, by `geometry.form_values`, with no maximizer call.

    The evaluated ranks increase but need not be consecutive: a rank whose
    box bound is at most the incumbent, 0 before k_pos, is settled without a
    call, and so is every rank after the one where the rank bound falls to
    the incumbent. iterations counts the settled ranks as well.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []

        def counting(name):
            original = getattr(solver_module, name)

            def maximize(*args, **kwargs):
                counted.append((name, args, kwargs))
                return original(*args, **kwargs)

            return maximize

        for name in ("maximize_convex_vertices", "maximize_concave_qp"):
            monkeypatch.setattr(solver_module, name, counting(name))
        return counted

    @staticmethod
    def assert_rank_objectives(calls, inst, ranks):
        """Call i gets the full objective of rank ranks[i], bit for bit, as the first of two positional arguments.

        The objective is one argument, the pair (Q, q) of a (d, d) and a (d,)
        array, and no keyword is passed: the benchmark's trace hooks read the
        vertex set as the second argument, and its self-test wraps the
        concave maximizer as (f, P, **kwargs).
        """
        objectives = list(rank_objectives(inst, ranks[-1]))
        d = inst.dim
        for (_, args, kwargs), k in zip(calls, ranks, strict=True):
            assert len(args) == 2 and kwargs == {}
            f = args[0]
            assert type(f) is tuple and len(f) == 2 and f[0].shape == (d, d) and f[1].shape == (d,)
            assert np.array_equal(f[0], objectives[k][0]) and np.array_equal(f[1], objectives[k][1])

    def test_convex_box(self, calls):
        inst = osc_instance(np.eye(2))
        rep = solve(inst)
        # every rank from 1 on has a box bound of at most nu_0 = 2: 111 calls before the box screen
        assert (len(calls), rep.iterations) == (1, 112)
        assert rep.K_trace == [(0, 111)]
        for name, args, _ in calls:
            assert name == "maximize_convex_vertices" and args[1].shape == (4, 2)
        self.assert_rank_objectives(calls, inst, [0])

    def test_convex_vertex_list(self, calls):
        inst = OSC_VERTEX_LIST
        rep = solve(inst)
        assert rep.status is SolveStatus.K_DIAG
        # the box bounds settle ranks 1..86 as nu_k <= 0; rank 87 is evaluated, and ranks 88..207
        # improve the incumbent one after another. 208 calls when only ranks after k_pos were
        # screened, 310 without the box screen
        assert (len(calls), rep.iterations) == (122, 311)
        assert (rep.k_pos, rep.K_trace[0], rep.K_trace[-1]) == (88, (88, 1127), (207, 310))
        for name, args, _ in calls:
            assert name == "maximize_convex_vertices" and args[1].shape == (5, 2)
        self.assert_rank_objectives(calls, inst, [0] + list(range(87, 208)))

    def test_failed_solve_settles_the_scan_by_box_bounds(self, calls):
        # nu_k = 4^-k / 16 - 2^-k / 4 < 0: the box bound of every rank from 1 to N is below 0
        rep = solve(DECAYING_1D)
        assert rep.status is SolveStatus.FAILED
        assert (len(calls), rep.iterations) == (1, DECAYING_1D.N + 1)
        self.assert_rank_objectives(calls, DECAYING_1D, [0])

    def test_concave_box(self, calls):
        inst = ProblemInstance(
            A=0.5 * np.eye(2), b=np.zeros(2), Qmat=-np.eye(2), qvec=[1.0, 0.5], Xin=osc_box()
        )
        rep = solve(inst)
        assert rep.status is SolveStatus.K_DIAG and rep.K_trace == [(0, 3)]
        # ranks 2 and 3 are settled by the rank bound
        assert (len(calls), rep.iterations) == (2, 4)
        for name, args, _ in calls:
            assert name == "maximize_concave_qp" and isinstance(args[1], Box)
        self.assert_rank_objectives(calls, inst, [0, 1])

    def test_diagonal_system_settles_after_rank_zero(self, calls):
        # the polydisc bound is exact here: P_1 = nu_1 = 3.865 < nu_0 = 6.5, while B_1 = 33.0
        inst = diagonal_instance()
        rep = solve(inst)
        assert (rep.status, rep.nu_opt, rep.k_opt, rep.K_trace) == (SolveStatus.K_DIAG, 6.5, 0, [(0, 9)])
        assert (len(calls), rep.iterations) == (1, 10)
        self.assert_rank_objectives(calls, inst, [0])

    def test_box_screen_leaves_gaps_in_the_evaluated_ranks(self, calls, monkeypatch):
        # ranks 1 and 2 are settled by their box bounds, rank 3 then beats nu_0; the 4 corners would
        # otherwise take the exact block pass, which screens no rank
        monkeypatch.setattr(solver_module, "EXACT_BLOCK_MAX_ROWS", 0)
        inst = random_instance(BenchSpec(2, SystemKind.AFFINE, ObjectiveKind.CXH, None, 1, 608, 100), 0)
        rep = solve(inst)
        assert (rep.status, rep.k_opt, rep.K_trace) == (SolveStatus.K_DIAG, 3, [(0, 7), (3, 6)])
        assert (len(calls), rep.iterations) == (2, 7)
        self.assert_rank_objectives(calls, inst, [0, 3])


class TestCornerTableSolves:
    """Boxes of dimension CORNER_TABLE_MIN_DIM or more are solved through BoxCorners tables.

    The reference is the same solve on the vertex array, which it takes when
    the dimension threshold is raised above the box's dimension, and the
    row-product oracles nu_prefix and trajectory_max.
    """

    @staticmethod
    def solve_on_rows(inst, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(geometry, "CORNER_TABLE_MIN_DIM", inst.dim + 1)
            return solve(inst)

    def test_reports_match_the_row_path_and_the_oracles(self, monkeypatch):
        T = geometry.CORNER_TABLE_MIN_DIM
        checked = collections.Counter()
        for kind, system, count in (
            (ObjectiveKind.CXH, SystemKind.LINEAR, 3),
            (ObjectiveKind.CXNH, SystemKind.AFFINE, 3),
            (ObjectiveKind.CANH, SystemKind.AFFINE, 1),
        ):
            for dim in (T, T + 1):
                spec = BenchSpec(dim, system, kind, None, 1, 700 + dim, 100)
                for index in range(count):
                    inst = random_instance(spec, index)
                    rep, ref = solve(inst), self.solve_on_rows(inst, monkeypatch)
                    assert rep.status is ref.status is SolveStatus.K_DIAG
                    assert (rep.k_opt, rep.k_pos, rep.K_trace, rep.iterations) == (
                        ref.k_opt, ref.k_pos, ref.K_trace, ref.iterations)
                    assert rep.x_opt.tobytes() == ref.x_opt.tobytes()
                    horizon = rep.K_trace[-1][1]
                    nus, offset = nu_prefix(inst, horizon)
                    assert abs(rep.nu_opt - (np.max(nus) + offset)) <= 1e-12 * abs(rep.nu_opt)
                    if kind.convex:
                        traj = trajectory_max(inst, 4 * horizon)
                        assert abs(rep.nu_opt - traj) <= 1e-12 * abs(rep.nu_opt)
                    checked[kind] += 1
        assert checked == {ObjectiveKind.CXH: 6, ObjectiveKind.CXNH: 6, ObjectiveKind.CANH: 2}


def large_box_instance(d: int, seed: int) -> ProblemInstance:
    """A convex homogeneous instance on a box in dimension d, with spectral radius 0.5."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, size=(d, d))
    M = rng.uniform(-1.0, 1.0, size=(d, d))
    lower = rng.uniform(-1.0, 0.0, size=d)
    return ProblemInstance(A=0.5 * A / np.max(np.abs(np.linalg.eigvals(A))), b=np.zeros(d), Qmat=M.T @ M,
                           qvec=np.zeros(d), Xin=Box(lower, lower + rng.uniform(0.1, 2.0, size=d)))


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCornerTableMemory:
    def test_box_above_the_vertex_cap_is_refused_before_any_corner_array(self):
        inst = large_box_instance(23, seed=5)  # 2^23 corners, above DEFAULT_VERTEX_CAP = 2^22

        def refused():
            with pytest.raises(DimensionTooLarge):
                solve(inst)

        # a value per corner alone would take 64 MiB
        assert traced_peak(refused) < 2**20

    def test_solve_memory_grows_with_corner_values_not_the_vertex_array(self):
        inst = large_box_instance(18, seed=6)
        reports = []
        # 2^18 corner values take 2 MiB; the 2^18 x 18 vertex array alone took 36 MiB
        assert traced_peak(lambda: reports.append(solve(inst))) < 16 * 2**20
        assert reports[0].status is SolveStatus.K_DIAG


class TestConcaveBoxPastTheCornerCap:
    """A concave box builds no corners, so it solves in any dimension."""

    @pytest.mark.parametrize("d", [23, 30, 64])
    def test_separable_box_matches_the_closed_form(self, d):
        # with A = diag(lam) and Q = -diag(c), rank k's objective c_i lam_i^2k x_i^2 separates, and
        # its maximum over the box is at x_i = clip(q_i / (2 c_i lam_i^k), lo_i, hi_i)
        rng = np.random.default_rng(d)
        lam, c, q = rng.uniform(0.3, 0.9, size=d), rng.uniform(0.5, 2.0, size=d), rng.uniform(-0.2, 1.0, size=d)
        lower = rng.uniform(0.1, 0.5, size=d)
        upper = lower + rng.uniform(0.5, 2.0, size=d)
        N = 200
        inst = ProblemInstance(A=np.diag(lam), b=np.zeros(d), Qmat=-np.diag(c), qvec=q, Xin=Box(lower, upper), N=N)
        nus = []
        for k in range(N + 1):
            y = lam**k * np.clip(q / (2.0 * c * lam**k), lower, upper)
            nus.append(float(np.sum(q * y - c * y * y)))
        nu, k_opt = max(nus), int(np.argmax(nus))
        assert nu > 0.0
        rep = solve(inst)
        assert rep.status is SolveStatus.K_DIAG
        assert abs(rep.nu_opt - nu) <= 1e-9 * max(1.0, abs(nu))
        assert rep.k_opt == k_opt


class TestScanBlocks:
    """Every rank objective after rank 0 comes in a block, with the box bounds of the block's ranks."""

    def test_failed_solve_builds_a_logarithmic_number_of_blocks(self, monkeypatch):
        starts, blocks, maximized = [], [], []
        evaluator = solver_module._RankEvaluator
        objectives, maximize = evaluator.objectives, evaluator.maximize

        def stacked(self, n):
            starts.append(self.k)
            blocks.append(n)
            return objectives(self, n)

        def maximizing(self, f):
            maximized.append(self.k)
            return maximize(self, f)

        monkeypatch.setattr(evaluator, "objectives", stacked)
        monkeypatch.setattr(evaluator, "maximize", maximizing)
        rep = solve(DECAYING_1D)
        assert rep.status is SolveStatus.FAILED and rep.iterations == DECAYING_1D.N + 1
        # rank 0 is the base objective, in no block; ranks 1..N come in blocks that double in length
        assert starts == list(np.cumsum([0] + blocks[:-1])) and maximized == [0]
        assert sum(blocks) == DECAYING_1D.N and len(blocks) <= np.log2(DECAYING_1D.N)
        assert blocks[0] == solver_module.SCAN_BLOCK_MIN and max(blocks) <= solver_module.SCAN_BLOCK_MAX

    def test_block_objectives_match_the_ranks_one_at_a_time(self):
        rng = np.random.default_rng(13)
        for d in (3, 6, 14):
            A = rng.uniform(-1.0, 1.0, size=(d, d))
            A *= 0.99 / np.max(np.abs(np.linalg.eigvals(A)))
            M = rng.normal(size=(d, d))
            obj = form(M.T @ M, rng.normal(size=d))
            inst = ProblemInstance(A=A, b=np.zeros(d), Qmat=obj[0], qvec=obj[1],
                                   Xin=Box(-np.ones(d), np.ones(d)))
            # the reference: one rank at a time, by a plain loop of its own
            single = list(rank_objectives(inst, 160))
            blocked, power = rank_evaluator(obj, A), np.eye(d)
            lengths, n = [], solver_module.SCAN_BLOCK_MIN
            while sum(lengths) < 150:
                lengths.append(min(n, solver_module.SCAN_BLOCK_MAX, 150 - sum(lengths)))
                n *= 2
            assert solver_module.SCAN_BLOCK_MAX in lengths
            # after the last block, blocks of one rank go on bit for bit
            lengths += [1] * 10
            k = 0
            for n in lengths:
                Qs, qs = blocked.objectives(n)
                for j in range(n):
                    f = single[k + 1 + j]
                    assert np.array_equal(Qs[j], f[0]) and np.array_equal(qs[j], f[1])
                    power = A @ power
                k += n
                assert blocked.k == k and np.array_equal(blocked.power, power)
            assert k == 160

    @staticmethod
    def recorded_blocks(monkeypatch):
        """(rank before the block, block length) of every objectives call, and the envelope data of each solve."""
        blocks, envelopes = [], []
        objectives, build = solver_module._RankEvaluator.objectives, solver_module.build_spectral_data

        def stacked(self, n):
            blocks.append((self.k, n))
            return objectives(self, n)

        def building(*args):
            envelopes.append(build(*args))
            return envelopes[-1]

        monkeypatch.setattr(solver_module._RankEvaluator, "objectives", stacked)
        monkeypatch.setattr(solver_module, "build_spectral_data", building)
        return blocks, envelopes

    def test_no_rank_objective_after_rank_zero_when_the_rank_bound_settles_rank_one(self, monkeypatch):
        blocks, _ = self.recorded_blocks(monkeypatch)
        # the rank bound screens only blocks that are not evaluated whole
        monkeypatch.setattr(solver_module, "EXACT_BLOCK_MAX_ROWS", 0)
        rep = solve(diagonal_instance())
        assert (rep.status, rep.k_opt, rep.iterations) == (SolveStatus.K_DIAG, 0, 10)
        assert blocks == []

    def test_one_short_block_before_the_rank_bound_ends_a_long_scan(self, monkeypatch):
        blocks, _ = self.recorded_blocks(monkeypatch)
        # nu_0 = 1.000001 at (1, 1), and the rank bound settles rank 1 under K = 34658
        inst = ProblemInstance(A=np.diag([0.5, 0.99999]), b=np.zeros(2), Qmat=np.diag([1.0, 1e-6]),
                               qvec=np.zeros(2), Xin=Box([0.5, 0.5], [1.0, 1.0]))
        rep = solve(inst)
        assert (rep.status, rep.k_opt, rep.K_trace, rep.iterations) == (SolveStatus.K_DIAG, 0, [(0, 34658)], 34659)
        # the first block is evaluated whole, unscreened; the second block's rank bound ends the scan
        assert blocks == [(0, solver_module.SCAN_BLOCK_MIN)]
        blocks.clear()
        monkeypatch.setattr(solver_module, "EXACT_BLOCK_MAX_ROWS", 0)
        assert solve(inst).K_trace == rep.K_trace and blocks == []

    def test_blocks_after_k_pos_end_before_the_rank_bound_settles(self, monkeypatch):
        blocks, envelopes = self.recorded_blocks(monkeypatch)
        inst = OSC_VERTEX_LIST
        rep = solve(inst)
        assert (rep.k_pos, rep.K_trace[-1], rep.iterations) == (88, (207, 310), 311)
        # ranks that come from block indices are still plain ints in the report
        assert {type(r) for r in (rep.k_opt, rep.k_pos, *itertools.chain(*rep.K_trace))} == {int}
        nus, _ = nu_prefix(inst, rep.iterations)
        # the incumbent once ranks 0..k are settled, and whether the rank bound settles rank k against it
        incumbent = np.maximum.accumulate(np.maximum(nus, 0.0))
        ranks = np.arange(rep.iterations + 1)
        bound = (1.0 + TOL_RANK_BOUND) * rank_bound(envelopes[0], ranks)
        after = [(k, n) for k, n in blocks if k >= rep.k_pos]
        assert len(after) >= 3
        for k, n in after:
            assert not np.any(bound[k + 1 : k + n + 1] <= incumbent[k])
        # the last block ends just before rank 310, the first that the final incumbent settles
        k, n = blocks[-1]
        assert k + n + 1 == np.flatnonzero(bound <= incumbent[-1])[0] == 310

    def test_failed_scan_memory_does_not_grow_with_N(self):
        inst = ProblemInstance(A=np.diag([0.5, 0.4, 0.3]), b=np.zeros(3), Qmat=np.eye(3), qvec=-np.ones(3),
                               Xin=Box(np.full(3, 0.25), np.full(3, 0.5)), N=10**5)
        reports = []
        # each term a^(2k) x^2 - a^k x of nu_k is negative, so the scan runs to N
        assert traced_peak(lambda: reports.append(solve(inst))) < 2**20
        assert reports[0].status is SolveStatus.FAILED and reports[0].iterations == 10**5 + 1


class TestEnvelopeOnDemand:
    """The envelope is built at the first improvement, k_pos; Corollary 1 is tested only when k_pos = 0."""

    # nu_0 = 0 exactly, and every later value too: A^k x = 0.5^k (0, x_2) and Q reads only x_1
    ZERO_AT_RANK_ZERO = ProblemInstance(A=np.diag([0.5, 0.5]), b=np.zeros(2), Qmat=np.diag([1.0, 0.0]),
                                        qvec=np.zeros(2), Xin=Box([0.0, -1.0], [0.0, 1.0]), N=20)

    @staticmethod
    def recorded_calls(monkeypatch):
        """In call order: ("build",), ("block", ranks), ("k_diag",) and ("corollary",) of each solve."""
        events = []
        objectives = solver_module._RankEvaluator.objectives

        def recording(kind, fn):
            def call(*args):
                events.append((kind,))
                return fn(*args)
            return call

        def stacked(self, n):
            events.append(("block", range(self.k + 1, self.k + n + 1)))
            return objectives(self, n)

        for name, kind in (("build_spectral_data", "build"), ("k_diag", "k_diag"), ("corollary_one_holds", "corollary")):
            monkeypatch.setattr(solver_module, name, recording(kind, getattr(solver_module, name)))
        monkeypatch.setattr(solver_module._RankEvaluator, "objectives", stacked)
        return events

    def test_a_scan_that_stays_negative_builds_none(self, monkeypatch):
        events = self.recorded_calls(monkeypatch)
        rep = solve(DECAYING_1D)
        assert (rep.status, rep.iterations) == (SolveStatus.FAILED, DECAYING_1D.N + 1)
        assert [e for e in events if e[0] != "block"] == []

    def test_a_positive_rank_zero_builds_before_the_first_block(self, monkeypatch):
        events = self.recorded_calls(monkeypatch)
        rep = solve(diagonal_instance())
        assert rep.status is SolveStatus.K_DIAG and rep.k_pos == 0
        assert [e[0] for e in events[:3]] == ["build", "corollary", "k_diag"]
        assert [e for e in events if e[0] == "build"] == [("build",)]

    def test_a_later_k_pos_builds_between_its_block_and_its_stopping_rank(self, monkeypatch):
        events = self.recorded_calls(monkeypatch)
        rep = solve(OSC_VERTEX_LIST)
        assert rep.k_pos == 88
        assert answer_key(rep) == paper_loop(OSC_VERTEX_LIST)
        kinds = [e[0] for e in events]
        assert kinds.count("build") == 1 and "corollary" not in kinds
        first = kinds.index("build")
        assert kinds[first + 1] == "k_diag" and "k_diag" not in kinds[:first]
        # the last block formed before the build holds rank 88
        assert rep.k_pos in [e for e in events[:first] if e[0] == "block"][-1][1]

    def test_a_zero_rank_zero_builds_none(self, monkeypatch):
        events = self.recorded_calls(monkeypatch)
        rep = solve(self.ZERO_AT_RANK_ZERO)
        assert (rep.status, rep.iterations) == (SolveStatus.FAILED, self.ZERO_AT_RANK_ZERO.N + 1)
        # nu_0 = 0 does not beat the incumbent 0, and a built envelope is positive, so Corollary 1
        # could not hold: no rank improves, and nothing is built or tested
        assert [e for e in events if e[0] != "block"] == []

    def test_a_corollary_one_exit_forms_no_block(self, monkeypatch):
        events = self.recorded_calls(monkeypatch)
        rep = solve(COROLLARY_ONE_1D)
        assert rep.status is SolveStatus.COROLLARY_ONE
        # one build and one test at rank 0, then no block and no stopping rank
        assert events == [("build",), ("corollary",)]

    @pytest.fixture
    def failing_envelope(self, monkeypatch):
        def violated(*args):
            raise AssumptionViolated("decay envelope 0.0 is not positive")

        monkeypatch.setattr(solver_module, "build_spectral_data", violated)

    def test_a_scan_that_stays_negative_never_meets_the_assumption(self, failing_envelope):
        rep = solve(DECAYING_1D)
        assert (rep.status, rep.iterations) == (SolveStatus.FAILED, DECAYING_1D.N + 1)

    def test_a_zero_rank_zero_never_meets_the_assumption(self, failing_envelope):
        rep = solve(self.ZERO_AT_RANK_ZERO)
        assert (rep.status, rep.iterations) == (SolveStatus.FAILED, self.ZERO_AT_RANK_ZERO.N + 1)

    @pytest.mark.parametrize("inst", [diagonal_instance(), OSC_VERTEX_LIST], ids=["rank-zero", "k-pos-88"])
    def test_a_built_envelope_raises_the_violated_assumption(self, failing_envelope, inst):
        with pytest.raises(AssumptionViolated):
            solve(inst)


class TestRankBoundScreen:
    """Ranks settled without a maximizer call, by the rank bound or by their own box bound."""

    def test_settled_ranks_cannot_beat_the_incumbent(self, monkeypatch):
        # every block goes through the screens, none through the exact block pass
        monkeypatch.setattr(solver_module, "EXACT_BLOCK_MAX_ROWS", 0)
        evaluated, ranks = [], []
        original = solver_module._RankEvaluator.maximize

        def maximize(self, f):
            # the evaluator may have formed ranks ahead in a block: the rank is the next one
            # whose objective f is, bit for bit
            for k, g in ranks[0]:
                if np.array_equal(g[0], f[0]) and np.array_equal(g[1], f[1]):
                    evaluated.append(k)
                    break
            return original(self, f)

        monkeypatch.setattr(solver_module._RankEvaluator, "maximize", maximize)
        checked = screened = box_screened = scan_screened = 0
        for spec, index in itertools.product(mixed_benchspecs(seed=606), range(2)):
            inst = random_instance(spec, index)
            evaluated.clear()
            ranks[:] = [enumerate(rank_objectives(inst, 10**6))]
            rep = solve(inst)
            if rep.status is not SolveStatus.K_DIAG or rep.iterations == 0:
                continue
            checked += 1
            n = len(evaluated)
            # rank 0 and k_pos are always evaluated, every rank in increasing order
            assert evaluated[0] == 0 and rep.k_pos in evaluated
            assert evaluated == sorted(set(evaluated))
            # settled ranks run to the final stopping rank, or to k_pos when that is later
            assert rep.iterations == max(rep.K_trace[-1][1], rep.k_pos) + 1
            nus, offset = nu_prefix(inst, rep.iterations - 1)
            # the incumbent is 0 until k_pos, the first rank with nu_k > 0
            assert np.all(nus[: rep.k_pos] <= 0.0) and nus[rep.k_pos] > 0.0
            incumbent = 0.0
            for k in range(rep.iterations):
                if k in evaluated:
                    incumbent = max(incumbent, nus[k])
                else:
                    assert nus[k] <= incumbent
            assert incumbent + offset == rep.nu_opt
            screened += n < rep.iterations
            box_screened += evaluated[-1] + 1 > n
            scan_screened += evaluated[: rep.k_pos + 1] != list(range(rep.k_pos + 1))
        assert checked >= 40 and screened >= 30 and box_screened >= 5 and scan_screened >= 1

    def test_reports_without_the_box_screen_are_bit_identical(self, monkeypatch):
        specs = mixed_benchspecs(seed=707)
        instances = [random_instance(spec, index) for spec, index in itertools.product(specs, range(2))]
        kinds = {(spec.objective_kind, spec.vertex_count is None) for spec in specs}
        assert len(kinds) == 3  # a convex box, a vertex list and a concave box
        calls = collections.Counter()
        original = solver_module._RankEvaluator.maximize

        def maximize(self, f):
            calls[solver_module.box_bound is recording] += 1
            return original(self, f)

        stacked = []

        def recording(Q, *args):
            stacked.append(Q.shape[0] > 1)
            return box_bound(Q, *args)

        monkeypatch.setattr(solver_module._RankEvaluator, "maximize", maximize)
        monkeypatch.setattr(solver_module, "box_bound", recording)
        screened, blocked = [], []
        for inst in instances:
            stacked.clear()
            screened.append(solve(inst))
            blocked.append(any(stacked))
        # the compared solves include a Failed one, where every rank comes before k_pos, and one
        # with k_pos >= 1, both with scan ranks screened in blocks of more than one rank
        assert any(b and rep.status is SolveStatus.FAILED for rep, b in zip(screened, blocked))
        assert any(b and rep.k_pos is not None and rep.k_pos >= 1 for rep, b in zip(screened, blocked))
        # both screens off: every bound is inf, for one rank or a block
        monkeypatch.setattr(
            solver_module, "box_bound", lambda Q, *args: (np.full(Q.shape[:-2], np.inf), np.zeros(Q.shape[:-2]))
        )
        for inst, rep in zip(instances, screened, strict=True):
            ref = solve(inst)
            assert (rep.status, rep.nu_opt, rep.k_opt, rep.k_pos) == (ref.status, ref.nu_opt, ref.k_opt, ref.k_pos)
            assert (rep.K_trace, rep.iterations) == (ref.K_trace, ref.iterations)
            assert (rep.x_opt is None and ref.x_opt is None) or np.array_equal(rep.x_opt, ref.x_opt)
        # the screen settled ranks that the unscreened solves evaluate
        assert calls[True] < calls[False]


class TestExactBlocks:
    """Short blocks over small vertex arrays are evaluated whole, with the reports of the screened blocks."""

    @staticmethod
    def tiny_instances():
        """Convex instances on boxes with d <= 4 and on lists of 1 to 16 points, at N = 20."""
        for dim, kind, system, points in itertools.product(
            (1, 2, 3, 4),
            (ObjectiveKind.CXH, ObjectiveKind.CXNH),
            (SystemKind.LINEAR, SystemKind.AFFINE),
            (None, 1, 5, 16),
        ):
            spec = BenchSpec(dim, system, kind, points, 1, 900 + dim, 20)
            for index in range(3):
                yield random_instance(spec, index)

    def test_reports_match_the_screened_solves_and_the_oracles(self, monkeypatch):
        stacked = []
        form_values = solver_module.form_values

        def recording(V, Q, q):
            stacked.append(Q.shape[0])
            return form_values(V, Q, q)

        monkeypatch.setattr(solver_module, "form_values", recording)
        checked = collections.Counter()
        for inst in self.tiny_instances():
            stacked.clear()
            rep = solve(inst)
            if not stacked:
                continue
            with monkeypatch.context() as m:
                m.setattr(solver_module, "EXACT_BLOCK_MAX_ROWS", 0)
                ref = solve(inst)
            assert (rep.status, rep.nu_opt, rep.k_opt, rep.k_pos) == (ref.status, ref.nu_opt, ref.k_opt, ref.k_pos)
            assert (rep.K_trace, rep.iterations) == (ref.K_trace, ref.iterations)
            assert (rep.x_opt is None and ref.x_opt is None) or rep.x_opt.tobytes() == ref.x_opt.tobytes()
            assert max(stacked) <= solver_module.SCAN_BLOCK_MIN
            checked["exact"] += 1
            if rep.status is SolveStatus.FAILED:
                nus, _ = nu_prefix(inst, inst.N)
                assert np.all(nus <= 0.0) and rep.iterations == inst.N + 1
                checked["failed"] += 1
                continue
            horizon = rep.iterations - 1
            nus, offset = nu_prefix(inst, horizon)
            assert np.max(nus) + offset == rep.nu_opt and int(np.argmax(nus)) == rep.k_opt
            assert rep.nu_opt == pytest.approx(trajectory_max(inst, 4 * horizon), rel=1e-12, abs=1e-12)
            checked["k_pos > 0"] += rep.k_pos > 0
            # an improvement inside the first block lowers K
            trace = rep.K_trace
            checked["K shrinks"] += any(
                k <= solver_module.SCAN_BLOCK_MIN and K < earlier for (k, K), (_, earlier) in zip(trace[1:], trace)
            )
        assert checked["exact"] >= 150 and checked["failed"] >= 5
        assert checked["k_pos > 0"] >= 2 and checked["K shrinks"] >= 15

    def test_no_rank_past_the_current_K_counts(self, monkeypatch):
        # the first improvement keeps K at N, every later one sets K = 1: that ends the first
        # block at the second improvement, though a later rank in it may beat the incumbent
        improvements = []

        def k_diag(sd, nu):
            improvements.append(nu)
            return 20 if len(improvements) == 1 else 1

        monkeypatch.setattr(solver_module, "k_diag", k_diag)
        cut = 0
        for inst in self.tiny_instances():
            improvements.clear()
            rep = solve(inst)
            with monkeypatch.context() as m:
                m.setattr(solver_module, "EXACT_BLOCK_MAX_ROWS", 0)
                improvements.clear()
                ref = solve(inst)
            assert (rep.status, rep.nu_opt, rep.k_opt, rep.K_trace, rep.iterations) == (
                ref.status, ref.nu_opt, ref.k_opt, ref.K_trace, ref.iterations)
            if len(rep.K_trace) == 2:
                nus, offset = nu_prefix(inst, solver_module.SCAN_BLOCK_MIN)
                cut += np.max(nus) + offset > rep.nu_opt
        assert cut >= 5


class TestDegenerateScreens:
    def test_affine_fixed_point_only_working_set(self):
        # Xin = {b~}: the recentred set is the origin, the value is the offset
        inst = ProblemInstance(
            A=[[0.5]], b=[1.0], Qmat=[[1.0]], qvec=[0.0], Xin=Box([2.0], [2.0])
        )
        rep = solve(inst)
        assert rep.status is SolveStatus.K_DIAG
        assert rep.nu_opt == 4.0
        assert rep.k_opt == 0
        assert rep.iterations == 0
        np.testing.assert_array_equal(rep.x_opt, [2.0])

    def test_concave_homogeneous_reduced_linear_part(self):
        inst = ProblemInstance(
            A=0.5 * np.eye(2), b=np.zeros(2), Qmat=-np.eye(2), qvec=np.zeros(2), Xin=osc_box()
        )
        rep = solve(inst)
        assert rep.status is SolveStatus.K_DIAG
        assert rep.nu_opt == 0.0
        assert rep.k_opt == 0
        assert rep.iterations == 0

    @pytest.mark.parametrize("lower, upper", [([1.0], [2.0]), ([1.0, 1.0], [2.0, 2.0])])
    def test_concave_homogeneous_box_missing_the_origin_fails_at_the_scan_cap(self, lower, upper, monkeypatch):
        # f = -|x|^2 < 0 = f(0) on the whole box and at every rank: the supremum 0 is only a limit, and no
        # rank beats the incumbent 0, so the solve ends Failed as a scan up to N would, with no rank evaluated
        def no_rank(*args):
            raise AssertionError("a rank was evaluated")

        monkeypatch.setattr(solver_module, "maximize_concave_qp", no_rank)
        d = len(lower)
        inst = ProblemInstance(
            A=0.5 * np.eye(d), b=np.zeros(d), Qmat=-np.eye(d), qvec=np.zeros(d), Xin=Box(lower, upper)
        )
        rep = solve(inst)
        assert rep.status is SolveStatus.FAILED
        assert (rep.nu_opt, rep.x_opt, rep.k_opt, rep.k_pos, rep.K_trace) == (None, None, None, None, [])
        assert rep.iterations == inst.N + 1 == 101


class TestCorollaryOneExit:
    def test_early_exit_when_rank_zero_attains_the_envelope(self):
        rep = solve(COROLLARY_ONE_1D)
        assert rep.status is SolveStatus.COROLLARY_ONE
        assert rep.nu_opt == 4.0
        assert rep.k_opt == 0
        assert rep.k_pos == 0
        assert rep.iterations == 1
        assert rep.K_trace == []


class TestTinyWorkingSets:
    """Working sets whose coordinates are tiny: the envelope must stay positive, or be refused by name."""

    QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])

    def test_underflowed_mode_maxima_are_refused(self):
        # every |(U^-1 x)_i|^2 underflows to 0, so M = 0; rank 1 turns x_1 negative and beats the
        # incumbent with a positive value, whose stopping rank would divide by sqrt(L M) = 0
        inst = ProblemInstance(A=0.9 * self.QUARTER_TURN, b=np.zeros(2), Qmat=np.eye(2), qvec=[-1.0, 0.0],
                               Xin=Box([1e-170, -1e-170], [2e-170, 1e-170]))
        with pytest.raises(AssumptionViolated, match="not positive"):
            solve(inst)

    @pytest.mark.parametrize("s", [1e-150, 1e-155, 1e-158])
    def test_the_stopping_rank_of_a_subnormal_value(self, s):
        # L M and nu_0 are about 8 s^2, so 4 L M nu_0 underflows to 0 and, with q = 0, the root t* would
        # divide by 0 unless its square root is taken factor by factor
        inst = ProblemInstance(A=0.9 * self.QUARTER_TURN, b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2),
                               Xin=Box([s, s], [2.0 * s, 2.0 * s]))
        rep = solve(inst)
        assert (rep.nu_opt, rep.k_opt) == brute_force(inst, 200)[:2]

    @pytest.mark.parametrize("s", [1e-3, 1e-8, 1e-15, 1e-17, 1e-20])
    def test_the_envelope_does_not_cancel(self, s):
        # sqrt(L M) ~ s against V = 1/2: (sqrt(L M) + V)^2 - V^2 rounds to 0 for s below about 1e-17,
        # and nu_0 = s would pass Corollary 1, while rank 1 reaches 1.98 s
        inst = ProblemInstance(A=0.99 * self.QUARTER_TURN.T, b=np.zeros(2), Qmat=np.eye(2), qvec=[1.0, 0.0],
                               Xin=Box([0.0, s], [s, 2.0 * s]))
        rep = solve(inst)
        nu, k, _ = brute_force(inst, 200)
        assert (rep.status, rep.nu_opt, rep.k_opt) == (SolveStatus.K_DIAG, nu, k)
        assert k == 1


def overflow_instance(b: float, lower: float, upper: float, curvature: float = 1.0) -> ProblemInstance:
    """x -> x/2 + (b, b) in the plane, f(x) = curvature ||x||^2, over the box [lower, upper]^2: all data finite."""
    return ProblemInstance(A=0.5 * np.eye(2), b=np.full(2, b), Qmat=curvature * np.eye(2), qvec=np.zeros(2),
                           Xin=Box(np.full(2, lower), np.full(2, upper)))


class TestOverflow:
    """Finite data whose values overflow end in a named error, not in a report of inf or in a wrong cause.

    numpy's overflow warnings are silenced, as they would fail the test before the solver's own checks.
    """

    @pytest.mark.parametrize(
        "args, error, message",
        [
            # every rank-0 value is inf: the parent reported CorollaryOne with nu_opt inf
            ((1e155, 2.5e155, 3.5e155), ValueError, "rank 0 has the maximum inf, which is not finite"),
            # the reduced problem is finite, but the offset b~^T Q b~ overflows: the parent reported KDiag inf
            ((1e155, 1.99999e155, 2.00001e155), ValueError, r"optimal value .* \+ offset inf is not finite"),
            # the initial set is the fixed point alone, answered by the degenerate screen with the offset
            ((1e155, 2e155, 2e155), ValueError, r"optimal value 0.0 \+ offset inf is not finite"),
            # the parent built the envelope from the inf rank-0 value and called its nan zero
            ((0.0, 1e155, 2e155), ValueError, "rank 0 has the maximum inf, which is not finite"),
            # finite values, but M overflows: the envelope L M + ||e|| sqrt(M) is 1e-300 inf + 0 inf, nan
            ((0.0, 1e155, 2e155, 1e-300), AssumptionViolated, r"decay envelope nan is not finite: .* M = inf,"),
        ],
        ids=["rank-value", "offset", "offset-single-point", "rank-value-linear", "envelope"],
    )
    def test_is_a_named_error(self, args, error, message):
        inst = overflow_instance(*args)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=message):
            solve(inst)
        if error is ValueError:
            # the oracle refuses what solve refuses, with its message
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=message):
                brute_force(inst, 5)


def scaled(inst: ProblemInstance, s: int, t: int) -> ProblemInstance:
    """inst under x -> 2^s x and f -> 2^t f: Q 2^(t - 2s), q 2^(t - s), b and the initial set 2^s, all exact."""
    X = inst.Xin
    Xin = Box(np.ldexp(X.lower, s), np.ldexp(X.upper, s)) if isinstance(X, Box) else VRep(np.ldexp(X.points, s))
    return ProblemInstance(A=inst.A, b=np.ldexp(inst.b, s), Qmat=np.ldexp(inst.Qmat, t - 2 * s),
                           qvec=np.ldexp(inst.qvec, t - s), Xin=Xin, N=inst.N)


class TestScaleInvariance:
    """A convex solve does not depend on units: scaling x and f by powers of two scales the report exactly."""

    SPECS = [
        BenchSpec(dim=3, system_kind=SystemKind.AFFINE, objective_kind=ObjectiveKind.CXNH, instance_count=30,
                  seed=1, N=20),
        BenchSpec(dim=6, system_kind=SystemKind.AFFINE, objective_kind=ObjectiveKind.CXNH, vertex_count=50,
                  instance_count=30, seed=1, N=20),
        BenchSpec(dim=4, system_kind=SystemKind.LINEAR, objective_kind=ObjectiveKind.CXH, instance_count=20,
                  seed=2, N=100),
        # boxes past geometry.CORNER_TABLE_MIN_DIM: BoxCorners tables and the zonogon walk's mode maxima
        BenchSpec(dim=12, system_kind=SystemKind.LINEAR, objective_kind=ObjectiveKind.CXH, instance_count=10,
                  seed=3, N=100),
        BenchSpec(dim=12, system_kind=SystemKind.AFFINE, objective_kind=ObjectiveKind.CXNH, instance_count=10,
                  seed=3, N=100),
    ]

    # a Corollary-1 exit, a long vertex-list scan (k_pos = 88) and a linear objective, beside the random draws
    FIXED = [COROLLARY_ONE_1D, OSC_VERTEX_LIST,
             ProblemInstance(A=OSC_A, b=[0.1, -0.2], Qmat=np.zeros((2, 2)), qvec=[0.3, -1.0], Xin=osc_box())]

    @pytest.mark.parametrize("s, t", [(0, -40), (40, 0), (0, -80), (-40, 40), (200, 0)])
    def test_reports_scale_bit_for_bit(self, s, t):
        statuses = set()
        draws = (random_instance(spec, i) for spec in self.SPECS for i in range(spec.instance_count))
        for inst in itertools.chain(self.FIXED, draws):
            ref, rep = solve(inst), solve(scaled(inst, s, t))
            statuses.add(ref.status)
            assert (rep.status, rep.k_opt, rep.k_pos, rep.K_trace, rep.iterations) == (
                ref.status, ref.k_opt, ref.k_pos, ref.K_trace, ref.iterations)
            if ref.status is SolveStatus.FAILED:
                assert (rep.nu_opt, rep.x_opt) == (None, None)
                continue
            assert rep.nu_opt == np.ldexp(ref.nu_opt, t)
            assert rep.x_opt.tobytes() == np.ldexp(ref.x_opt, s).tobytes()
        assert statuses == set(SolveStatus)


class TestBruteForce:
    def test_oscillator_norm_square(self):
        val, k, _ = brute_force(osc_instance(np.eye(2)), 300)
        assert val == 2.0
        assert k == 0

    def test_horizon_zero(self):
        inst = osc_instance(np.diag([1.0, 0.0]))
        val, k, x = brute_force(inst, 0)
        assert k == 0
        assert val == 1.0

    def test_an_integer_horizon_of_either_kind(self):
        inst = osc_instance(np.diag([1.0, 0.0]))
        (val, k, x), (ref_val, ref_k, ref_x) = brute_force(inst, np.int64(7)), brute_force(inst, 7)
        assert (val, k) == (ref_val, ref_k)
        np.testing.assert_array_equal(x, ref_x)

    @pytest.mark.parametrize("horizon", [-1, float("inf"), float("nan"), 2.5, 3.0, "3", None, True, False])
    def test_horizon_rejects_anything_but_a_natural_number(self, horizon, monkeypatch):
        # an infinite horizon never ends the scan, so the check comes before any work
        def no_work(inst):
            raise AssertionError("brute_force reduced the instance before checking the horizon")

        monkeypatch.setattr(support, "reduce_affine", no_work)
        with pytest.raises(ValueError, match="horizon must be a natural number"):
            brute_force(osc_instance(np.eye(2)), horizon)

    def test_runs_on_a_jordan_block_without_a_factorization(self, monkeypatch):
        def no_factorization(A):
            raise AssertionError("brute_force factorized A")

        monkeypatch.setattr(support, "eig_decompose", no_factorization)
        monkeypatch.setattr(solver_module, "eig_decompose", no_factorization)
        inst = ProblemInstance(A=[[0.5, 1.0], [0.0, 0.5]], b=np.zeros(2), Qmat=np.eye(2), qvec=np.zeros(2),
                               Xin=osc_box())
        val, k, x = brute_force(inst, 20)
        # A (-1, -1) = (-1.5, -0.5), and (-1, -1) is the first of the two best corners
        assert (val, k) == (2.5, 1) and val == trajectory_max(inst, 20)
        np.testing.assert_array_equal(x, [-1.0, -1.0])

    def test_matches_the_argmax_of_the_rank_optima_across_blocks(self):
        found = set()
        for inst in (osc_instance(np.diag([1.0, 0.0])), OSC_VERTEX_LIST):
            val, k, x = brute_force(inst, 150)
            nus, offset = nu_prefix(inst, 150)
            # both sides take the same per-rank values from support.rank_maxima
            assert (val, k) == (np.max(nus) + offset, int(np.argmax(nus)))
            # trajectory simulation shares nothing with rank_objectives
            assert val == pytest.approx(trajectory_max(inst, 150), rel=1e-12)
            found.add(k // solver_module.SCAN_BLOCK_MAX)
        # one best rank lies in the first SCAN_BLOCK_MAX = 64 ranks and the other past them, in a
        # later block of solve's walk
        assert len(found) == 2

    def test_ties_break_to_smallest_rank(self):
        # second coordinate square: rank 1 reproduces the rank-0 value exactly
        inst = osc_instance(np.diag([0.0, 1.0]))
        val, k, _ = brute_force(inst, 10)
        assert val == 1.0
        assert k == 0

    def test_a_concave_box_past_the_vertex_cap_builds_no_corners(self):
        d = 23
        rng = np.random.default_rng(0)
        M = rng.normal(size=(d, d))
        inst = ProblemInstance(A=0.5 * np.eye(d), b=np.zeros(d), Qmat=-(M.T @ M) / d - 0.1 * np.eye(d),
                               qvec=rng.normal(size=d), Xin=Box(-np.ones(d), np.ones(d)))
        reports = []
        # the 2^23 corners would take 64 MiB as one value each
        assert traced_peak(lambda: reports.append(solve(inst))) < 2**20
        val, k, x = brute_force(inst, 3)
        # A^k x stays in the box, which holds 0, so no later rank beats rank 0
        assert k == 0 and np.all(np.abs(x) <= 1.0)
        assert val == pytest.approx(form_value((inst.Qmat, inst.qvec), x), rel=1e-12) and val > 0.0
        rep = reports[0]
        assert (rep.status, rep.nu_opt, rep.k_opt) == (SolveStatus.K_DIAG, val, k)
        assert rep.x_opt.tobytes() == x.tobytes()

    def test_shares_no_code_with_the_rank_evaluator(self, monkeypatch):
        def no_evaluator(*args):
            raise AssertionError("brute_force built the solver's rank evaluator")

        monkeypatch.setattr(solver_module, "_RankEvaluator", no_evaluator)
        monkeypatch.setattr(support, "_RankEvaluator", no_evaluator)
        concave = ProblemInstance(A=OSC_A, b=[0.1, -0.2], Qmat=-np.eye(2), qvec=[1.0, 0.5], Xin=osc_box())
        for inst in (osc_instance(np.diag([1.0, 0.0])), OSC_VERTEX_LIST, concave):
            val, k, x = brute_force(inst, 30)
            if inst is concave:
                # each rank's exact box maximum, from a direct matrix power and the KKT patterns
                red = reduce_affine(inst)
                f = (red.Qmat, red.qvec_reduced)
                ref = max(concave_box_max_kkt(composed(f, inst.A, j), red.Xwork.lower, red.Xwork.upper)
                          for j in range(31)) + red.offset
                assert val == pytest.approx(ref, abs=1e-9)
            else:
                assert val == pytest.approx(trajectory_max(inst, 30), rel=1e-12)
            # x is an initial point whose state at rank k takes the value
            z = x
            for _ in range(k):
                z = inst.A @ z + inst.b
            assert form_value((inst.Qmat, inst.qvec), z) == pytest.approx(val, rel=1e-9)


def mixed_benchspecs(seed, N=100):
    specs = []
    for dim in (2, 3, 4, 5):
        for system in (SystemKind.LINEAR, SystemKind.AFFINE):
            specs.append(BenchSpec(dim, system, ObjectiveKind.CXH, None, 1, seed + dim, N))
            specs.append(BenchSpec(dim, system, ObjectiveKind.CXNH, 12, 1, seed + 10 + dim, N))
            specs.append(BenchSpec(dim, system, ObjectiveKind.CANH, None, 1, seed + 20 + dim, N))
    return specs


class TestSolveAgainstOracles:
    def test_kdiag_results_match_brute_force(self):
        count = 0
        for spec in mixed_benchspecs(seed=500):
            for index in range(3):
                inst = random_instance(spec, index)
                rep = solve(inst)
                if rep.status is not SolveStatus.K_DIAG or rep.iterations == 0:
                    continue
                count += 1
                final_k = rep.K_trace[-1][1]
                val, k, _ = brute_force(inst, 4 * final_k)
                assert val == pytest.approx(rep.nu_opt, abs=1e-7)
                assert k == rep.k_opt
                ks = [K for _, K in rep.K_trace]
                assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert count >= 30

    def test_evaluated_prefix_supremum_matches_report(self):
        for spec in mixed_benchspecs(seed=321):
            inst = random_instance(spec, 0)
            rep = solve(inst)
            if rep.status is not SolveStatus.K_DIAG or rep.iterations == 0:
                continue
            final_k = rep.K_trace[-1][1]
            nus, offset = nu_prefix(inst, final_k)
            # both sides add the offset to bit-identical reduced values
            assert partial_sup(FiniteC0Sequence(nus), 0, final_k) + offset == rep.nu_opt

    def test_affine_solves_match_trajectory_simulation(self):
        checked = 0
        for spec in mixed_benchspecs(seed=4242):
            if spec.system_kind is not SystemKind.AFFINE or not spec.objective_kind.convex:
                continue
            for index in range(4):
                inst = random_instance(spec, index)
                rep = solve(inst)
                if rep.status is not SolveStatus.K_DIAG or rep.iterations == 0:
                    continue
                checked += 1
                ref = trajectory_max(inst, 4 * rep.K_trace[-1][1])
                assert rep.nu_opt == pytest.approx(ref, abs=1e-7)
        assert checked >= 10

    def test_failed_status_is_sound(self):
        found = 0
        for index in range(60):
            spec = BenchSpec(2, SystemKind.LINEAR, ObjectiveKind.CANH, None, 1, 888, 40)
            inst = random_instance(spec, index)
            rep = solve(inst)
            if rep.status is not SolveStatus.FAILED:
                continue
            found += 1
            assert rep.iterations == inst.N + 1
            nus, _ = nu_prefix(inst, inst.N)
            assert np.all(nus <= 0.0)
            if found >= 3:
                break
        assert found >= 1

    def test_determinism_bit_identical_reports(self):
        for spec in mixed_benchspecs(seed=77)[:6]:
            inst1 = random_instance(spec, 0)
            inst2 = random_instance(spec, 0)
            r1, r2 = solve(inst1), solve(inst2)
            assert r1.status == r2.status
            assert r1.nu_opt == r2.nu_opt
            assert r1.k_opt == r2.k_opt
            assert r1.k_pos == r2.k_pos
            assert r1.K_trace == r2.K_trace
            assert r1.iterations == r2.iterations
            if r1.x_opt is None:
                assert r2.x_opt is None
            else:
                assert np.array_equal(r1.x_opt, r2.x_opt)
