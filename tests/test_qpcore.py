"""Objective classification, rank-k objectives, and the two maximizers."""

import numpy as np
import pytest

from reachmax import Box, VRep, qpcore
from reachmax.errors import NotConcave, QPNotConverged
from reachmax.geometry import vertices
from reachmax.qpcore import (
    ObjectiveClass,
    QuadraticObjective,
    classify,
    maximize_concave_qp,
    maximize_convex_vertices,
)

from support import OSC_A, composed, concave_box_max_kkt, grid_max, rank_evaluator, refined_grid_max, stepped_objective


class TestQuadraticObjective:
    def test_value(self):
        obj = QuadraticObjective([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0], 3.0)
        assert obj.value([1.0, 1.0]) == pytest.approx(1.0 + 2.0 + 1.0 - 1.0 + 3.0)

    def test_symmetrized_on_construction(self):
        obj = QuadraticObjective([[1.0, 1e-10], [0.0, 1.0]], [0.0, 0.0])
        np.testing.assert_array_equal(obj.Qmat, obj.Qmat.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadraticObjective([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


class TestClassify:
    def test_identity_is_convex(self):
        assert classify(QuadraticObjective(np.eye(2), np.zeros(2))) is ObjectiveClass.CONVEX_PSD

    def test_rank_one_psd_is_convex(self):
        Q = np.array([[1.0, -0.5], [-0.5, 0.25]])  # eigenvalues 0 and 5/4
        assert classify(QuadraticObjective(Q, np.zeros(2))) is ObjectiveClass.CONVEX_PSD

    def test_indefinite_unsupported(self):
        assert classify(QuadraticObjective(np.diag([1.0, -1.0]), np.zeros(2))) is ObjectiveClass.UNSUPPORTED

    def test_zero_matrix_unsupported(self):
        assert classify(QuadraticObjective(np.zeros((2, 2)), np.zeros(2))) is ObjectiveClass.UNSUPPORTED

    def test_nsd_with_zero_top_eigenvalue_unsupported(self):
        assert classify(QuadraticObjective(np.diag([0.0, -1.0]), np.zeros(2))) is ObjectiveClass.UNSUPPORTED

    def test_negative_definite_is_concave(self):
        assert (
            classify(QuadraticObjective(-np.eye(3), np.zeros(3)))
            is ObjectiveClass.STRICTLY_CONCAVE_ND
        )


class TestStep:
    """The rank-k objectives x -> f(A^k x) of the solver's rank evaluator."""

    def test_step_zero_is_the_objective_itself(self):
        obj = QuadraticObjective(np.eye(2), [1.0, 2.0], 0.5)
        f = stepped_objective(rank_evaluator(obj, OSC_A), 0)
        x = np.array([0.3, -0.7])
        assert f.value(x) + obj.c == pytest.approx(obj.value(x), abs=0.0)

    def test_one_dimensional_contraction(self):
        # Q=1, q=-1, A=1/2, k=2: value is x^2/16 - x/4
        f = stepped_objective(rank_evaluator(QuadraticObjective([[1.0]], [-1.0]), [[0.5]]), 2)
        for x in (0.25, 0.5, 1.0):
            assert f.value([x]) == pytest.approx(x * x / 16.0 - x / 4.0, abs=1e-15)

    def test_diagonal_power(self):
        f = stepped_objective(rank_evaluator(QuadraticObjective(np.eye(2), np.zeros(2)), 0.5 * np.eye(2)), 3)
        assert f.value([1.0, 1.0]) == pytest.approx(2.0 * 0.125**2, abs=0.0)

    def test_step_next_matches_direct_power(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            A = rng.uniform(-1.0, 1.0, size=(d, d)) * 0.6
            M = rng.uniform(-1.0, 1.0, size=(d, d))
            obj = QuadraticObjective(M.T @ M, rng.uniform(-1.0, 1.0, size=d), rng.normal())
            k = int(rng.integers(0, 9))
            direct = composed(obj, A, k)
            ev = rank_evaluator(obj, A)
            for j in range(k + 1):
                f = stepped_objective(ev, j)
            x = rng.uniform(-1.0, 1.0, size=d)
            scale = 1.0 + abs(direct.value(x))
            assert abs(f.value(x) + obj.c - direct.value(x)) <= 1e-9 * scale

    def test_agrees_with_naive_composition(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            A = rng.uniform(-1.0, 1.0, size=(d, d)) * 0.8
            M = rng.uniform(-1.0, 1.0, size=(d, d))
            obj = QuadraticObjective(M.T @ M, rng.uniform(-1.0, 1.0, size=d), 0.0)
            k = int(rng.integers(0, 7))
            f = stepped_objective(rank_evaluator(obj, A), k)
            x = rng.uniform(-1.0, 1.0, size=d)
            z = x.copy()
            for _ in range(k):
                z = A @ z
            naive = obj.value(z)
            assert abs(f.value(x) - naive) <= 1e-9 * (1.0 + abs(naive))


class TestMaximizeConvexVertices:
    def test_norm_square_on_unit_box(self):
        obj = QuadraticObjective(np.eye(2), np.zeros(2))
        V = vertices(Box([-1.0, -1.0], [1.0, 1.0]))
        val, arg = maximize_convex_vertices(obj, V)
        assert val == 2.0
        # four symmetric optima: the first vertex in enumeration order wins
        np.testing.assert_array_equal(arg, [-1.0, -1.0])

    def test_nonhomogeneous_unique_corner(self):
        Q = np.array([[1.0, -0.5], [-0.5, 0.25]])
        obj = QuadraticObjective(Q, [-1.0, 0.5])
        V = vertices(Box([-1.0, -1.0], [1.0, 1.0]))
        val, arg = maximize_convex_vertices(obj, V)
        assert val == pytest.approx(15.0 / 4.0, abs=0.0)
        np.testing.assert_array_equal(arg, [-1.0, 1.0])

    def test_single_vertex(self):
        obj = QuadraticObjective([[1.0]], [0.0])
        val, arg = maximize_convex_vertices(obj, np.array([[3.0]]))
        assert val == 9.0
        np.testing.assert_array_equal(arg, [3.0])

    def test_matches_grid_search_on_random_instances(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            M = rng.uniform(-1.0, 1.0, size=(d, d))
            obj = QuadraticObjective(M.T @ M, rng.uniform(-1.0, 1.0, size=d), rng.normal())
            A = rng.uniform(-1.0, 1.0, size=(d, d)) * 0.7
            s = composed(obj, A, int(rng.integers(0, 4)))
            center = rng.uniform(-1.0, 1.0, size=d)
            radius = rng.uniform(0.1, 1.0, size=d)
            box = Box(center - radius, center + radius)
            val, _ = maximize_convex_vertices(s, vertices(box))
            ref = grid_max(s.value_many, box.lower, box.upper, per_axis=5)
            assert val == pytest.approx(ref, rel=1e-6)


class TestMaximizeConcaveQP:
    def test_interior_stationary_point(self):
        s = QuadraticObjective([[-1.0]], [1.0])
        val, arg = maximize_concave_qp(s, Box([0.0], [1.0]))
        assert val == pytest.approx(0.25, abs=1e-8)
        assert arg[0] == pytest.approx(0.5, abs=1e-6)

    def test_boundary_optimum(self):
        s = QuadraticObjective([[-1.0]], [0.0])
        val, arg = maximize_concave_qp(s, Box([1.0], [2.0]))
        assert val == pytest.approx(-1.0, abs=1e-7)
        assert arg[0] == pytest.approx(1.0, abs=1e-6)

    def test_two_dimensional_boundary_optimum(self):
        s = QuadraticObjective(-np.eye(2), [2.0, 0.0])
        val, arg = maximize_concave_qp(s, Box([-1.0, -1.0], [1.0, 1.0]))
        # dense grid search at step 1e-3 confirms the optimum (1, (1, 0))
        pts = np.stack(
            [m.ravel() for m in np.meshgrid(*(np.arange(-1.0, 1.0 + 1e-9, 1e-3),) * 2, indexing="ij")],
            axis=1,
        )
        ref = float(np.max(s.value_many(pts)))
        assert ref == pytest.approx(1.0, abs=1e-5)
        assert val == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(arg, [1.0, 0.0], atol=1e-5)

    def test_rejects_convex_objective(self):
        s = QuadraticObjective(np.eye(2), np.zeros(2))
        with pytest.raises(NotConcave):
            maximize_concave_qp(s, Box([-1.0, -1.0], [1.0, 1.0]))

    def test_accepts_singular_rank_objective(self):
        # a singular A leaves the rank-1 objective negative semidefinite only
        s = composed(QuadraticObjective(-np.eye(2), [1.0, 1.0]), np.diag([1.0, 0.0]), 1)
        val, arg = maximize_concave_qp(s, Box([-1.0, -1.0], [1.0, 1.0]))
        assert val == pytest.approx(0.25, abs=1e-8)
        assert arg[0] == pytest.approx(0.5, abs=1e-6)

    def test_rejects_vertex_representation(self):
        s = QuadraticObjective(-np.eye(2), [1.0, 0.0])
        with pytest.raises(ValueError):
            maximize_concave_qp(s, VRep([[0.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_gap_tol_must_be_finite_and_positive(self, tol):
        # a duality measure target of 0, -1 or nan is never met, and inf bounds nothing
        s = QuadraticObjective(-np.eye(2), [1.0, 1.0])
        with pytest.raises(ValueError, match="gap_tol must be a finite positive number"):
            maximize_concave_qp(s, Box([-1.0, -1.0], [1.0, 1.0]), gap_tol=tol)

    @staticmethod
    def _rank_objective_d6():
        """A fixed d = 6 rank-2 concave objective whose maximum has coordinates at both bounds and free."""
        rng = np.random.default_rng(5)
        M = rng.uniform(-1.0, 1.0, size=(6, 6))
        obj = QuadraticObjective(-(M.T @ M) - 1e-3 * np.eye(6), rng.uniform(-2.0, 2.0, size=6))
        return composed(obj, rng.uniform(-1.0, 1.0, size=(6, 6)) * 0.3, 2), Box(-np.ones(6), np.ones(6))

    def test_gap_tol_bounds_the_distance_from_the_maximum(self):
        # the benchmark self-test stops the QP at gap_tol = 1e-2 and needs an answer that its
        # 1e-7 oracle flags: a loose target must be met, not over-solved
        s, box = self._rank_objective_d6()
        best = concave_box_max_kkt(s, box.lower, box.upper)
        loose, _ = maximize_concave_qp(s, box, gap_tol=1e-2)
        assert 1e-7 < best - loose <= 1e-2
        val, _ = maximize_concave_qp(s, box)
        assert abs(best - val) <= 1e-9

    def test_step_cap_ends_in_a_named_error(self, monkeypatch):
        s, box = self._rank_objective_d6()
        monkeypatch.setattr(qpcore, "QP_MAX_STEPS", 1)
        with pytest.raises(QPNotConverged, match="Frank-Wolfe gap"):
            maximize_concave_qp(s, box)

    def test_badly_scaled_objective_meets_its_certificate(self):
        # curvatures from 1e-6 to 1e6, a box centre near 1e3 and widths from 1e-4 to 1e2: from
        # multipliers of 1, rather than 1 plus the centre gradient's parts, the steps crept to the cap
        rng = np.random.default_rng(7)
        M = rng.normal(size=(12, 12)) * 10.0 ** rng.uniform(-3, 3, size=12)
        c = rng.normal(size=12) * 1e3
        w = 10.0 ** rng.uniform(-4, 2, size=12)
        s = QuadraticObjective(-(M.T @ M), rng.normal(size=12))
        _, arg = maximize_concave_qp(s, Box(c - w, c + w))
        assert np.all(arg >= c - w) and np.all(arg <= c + w)

    def test_degenerate_box_coordinates_pinned(self):
        s = QuadraticObjective(-np.eye(2), [1.0, 1.0])
        val, arg = maximize_concave_qp(s, Box([0.25, 0.0], [0.25, 1.0]))
        assert arg[0] == 0.25
        assert val == pytest.approx(s.value([0.25, 0.5]), abs=1e-8)

    def test_matches_refined_grid_on_random_instances(self):
        rng = np.random.default_rng(97)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            M = rng.uniform(-1.0, 1.0, size=(d, d))
            Q = -(M.T @ M) - 1e-3 * np.eye(d)
            obj = QuadraticObjective(Q, rng.uniform(-1.0, 1.0, size=d), rng.normal())
            A = rng.uniform(-1.0, 1.0, size=(d, d)) * 0.7
            s = composed(obj, A, int(rng.integers(0, 3)))
            center = rng.uniform(-1.0, 1.0, size=d)
            radius = rng.uniform(0.1, 1.0, size=d)
            box = Box(center - radius, center + radius)
            val, arg = maximize_concave_qp(s, box)
            ref = refined_grid_max(s.value_many, box.lower, box.upper)
            assert val == pytest.approx(ref, abs=1e-5)
            kkt = concave_box_max_kkt(s, box.lower, box.upper)
            assert val == pytest.approx(kkt, abs=1e-7)
            assert np.all(arg >= box.lower - 1e-9) and np.all(arg <= box.upper + 1e-9)

    def test_homogeneous_concave_never_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            M = rng.uniform(-1.0, 1.0, size=(d, d))
            obj = QuadraticObjective(-(M.T @ M) - 1e-3 * np.eye(d), np.zeros(d), 0.0)
            A = rng.uniform(-1.0, 1.0, size=(d, d)) * 0.7
            s = composed(obj, A, int(rng.integers(0, 4)))
            center = rng.uniform(-1.0, 1.0, size=d)
            box = Box(center - 0.5, center + 0.5)
            val, _ = maximize_concave_qp(s, box)
            assert val <= 1e-9
