"""Boxes, vertex lists, translation, and the convex-form maximum."""

import numpy as np
import pytest

from reachmax import Box, VRep, geometry
from reachmax.errors import DimensionTooLarge, NotConvexForm
from reachmax.geometry import DEDUP_TOL, _dedup_points, mu, translate, vertices
from reachmax.linalg import gram_inverse

from support import dedup_reference, osc_eigvec_basis


class TestVertices:
    def test_unit_box_corners_in_order(self):
        V = vertices(Box([-1.0, -1.0], [1.0, 1.0]))
        np.testing.assert_array_equal(V, [[-1, -1], [-1, 1], [1, -1], [1, 1]])

    def test_interval(self):
        np.testing.assert_array_equal(vertices(Box([0.25], [0.5])), [[0.25], [0.5]])

    def test_vrep_passthrough(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(vertices(VRep(pts)), pts)

    def test_vrep_dedup_keeps_first_occurrence_order(self):
        pts = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0 + 1e-13], [3.0, 3.0]])
        np.testing.assert_array_equal(vertices(VRep(pts)), [[1.0, 2.0], [0.0, 0.0], [3.0, 3.0]])

    def test_corner_count(self):
        for d in (1, 2, 3, 4, 5):
            box = Box(-np.ones(d), np.ones(d))
            assert vertices(box).shape == (2**d, d)

    def test_cap_exceeded(self):
        with pytest.raises(DimensionTooLarge):
            vertices(Box(-np.ones(5), np.ones(5)), cap=16)

    def test_empty_box_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])


class TestDedupOracle:
    """The vectorized deduplication against the row-by-row reference loop."""

    def check(self, points):
        got = _dedup_points(points, DEDUP_TOL)
        np.testing.assert_array_equal(got, dedup_reference(points, DEDUP_TOL))
        return got

    def test_random_clouds(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m, d = int(rng.integers(1, 400)), int(rng.integers(1, 8))
            pts = rng.uniform(-2.0, 2.0, size=(m, d))
            # overwrite some rows with copies of others moved by up to 2 tol per coordinate
            k = int(rng.integers(0, m))
            moves = rng.choice([0.0, 0.5, 1.0, 2.0], size=(k, 1)) * rng.choice([-1.0, 0.0, 1.0], size=(k, d))
            pts[rng.integers(0, m, k)] = pts[rng.integers(0, m, k)] + DEDUP_TOL * moves
            self.check(pts)

    def test_exact_duplicates(self):
        rng = np.random.default_rng(4)
        base = rng.uniform(-1.0, 1.0, size=(50, 3))
        pts = np.repeat(base, 3, axis=0)[rng.permutation(150)]
        assert len(self.check(pts)) == 50
        # many copies per row overflow the candidate budget and are dropped exactly first
        pts = np.repeat(base, 12, axis=0)[rng.permutation(600)]
        assert len(self.check(pts)) == 50

    def test_non_transitive_chain(self):
        a = np.array([0.3, -1.7, 2.0])
        pts = np.array([a, a + 0.6 * DEDUP_TOL, a + 1.2 * DEDUP_TOL])
        # the middle point is close to both ends, the ends are not close to each other
        np.testing.assert_array_equal(self.check(pts), pts[[0, 2]])
        self.check(pts[::-1].copy())

    def test_one_dimensional(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.0, 1.0, size=(300, 1))
        pts[::7] = pts[1::7][: len(pts[::7])] + 0.7 * DEDUP_TOL
        self.check(pts)

    def test_box_corners_as_vertex_list(self):
        corners = vertices(Box(-np.ones(12), np.ones(12)))
        assert len(self.check(corners)) == 2**12
        # generic weights keep all 2^14 corner projections apart: no candidate pair at all
        earlier, later = geometry._close_pairs(vertices(Box(-np.ones(14), np.ones(14))), DEDUP_TOL)
        assert earlier.size == 0 and later.size == 0

    def test_above_4096_rows_without_near_duplicates(self):
        pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(5000, 3))
        assert len(self.check(pts)) == 5000

    def test_dense_near_duplicate_cluster_uses_blocked_fallback(self, monkeypatch):
        # distinct rows on a 0.45 tol grid: far too many candidate pairs for the sorted window
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1.0, 1.0, size=4) + rng.integers(-3, 4, size=(1500, 4)) * 0.45 * DEDUP_TOL
        calls = []
        blocked = geometry._dedup_blocked
        monkeypatch.setattr(geometry, "_dedup_blocked", lambda *a: calls.append(1) or blocked(*a))
        self.check(pts)
        assert calls


class TestTranslate:
    def test_box_shift(self):
        shifted = translate(Box([-1.0, -1.0], [1.0, 1.0]), [1.0, -1.0])
        np.testing.assert_array_equal(shifted.lower, [-2.0, 0.0])
        np.testing.assert_array_equal(shifted.upper, [0.0, 2.0])

    def test_vrep_shift(self):
        shifted = translate(VRep([[1.0, 1.0]]), [1.0, 1.0])
        np.testing.assert_array_equal(shifted.points, [[0.0, 0.0]])

    def test_zero_shift_is_identity(self):
        box = Box([-1.0, 2.0], [0.5, 3.0])
        same = translate(box, np.zeros(2))
        np.testing.assert_array_equal(same.lower, box.lower)
        np.testing.assert_array_equal(same.upper, box.upper)

    def test_roundtrip_exact_on_integer_data(self):
        # two float subtractions cancel exactly when the inputs are integers
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            lo = rng.integers(-50, 0, size=d).astype(float)
            up = lo + rng.integers(0, 50, size=d)
            t = rng.integers(-100, 100, size=d).astype(float)
            box = Box(lo, up)
            back = translate(translate(box, t), -t)
            np.testing.assert_array_equal(back.lower, box.lower)
            np.testing.assert_array_equal(back.upper, box.upper)
            pts = rng.integers(-100, 100, size=(4, d)).astype(float)
            vback = translate(translate(VRep(pts), t), -t)
            np.testing.assert_array_equal(vback.points, pts)


class TestMu:
    def test_oscillator_gram_form(self):
        B = gram_inverse(osc_eigvec_basis())
        assert mu(B, Box([-1.0, -1.0], [1.0, 1.0])) == pytest.approx(2.0, abs=1e-12)

    def test_identity_form_on_unit_box(self):
        assert mu(np.eye(2), Box([-1.0, -1.0], [1.0, 1.0])) == pytest.approx(2.0, abs=0.0)

    def test_single_point(self):
        assert mu(np.eye(2), VRep([[3.0, 4.0]])) == pytest.approx(25.0, abs=0.0)

    def test_rejects_nonconvex_form(self):
        with pytest.raises(NotConvexForm):
            mu(np.diag([1.0, -1.0]), Box([-1.0, -1.0], [1.0, 1.0]))

    def test_matches_grid_search_on_random_boxes(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            B = M @ M.conj().T  # Hermitian PSD
            center = rng.uniform(-1.0, 1.0, size=d)
            radius = rng.uniform(0.1, 1.0, size=d)
            box = Box(center - radius, center + radius)
            got = mu(B, box)
            R = np.real(B)
            axes = [np.linspace(lo, up, 5) for lo, up in zip(box.lower, box.upper)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([m.ravel() for m in mesh], axis=1)
            ref = float(np.max(np.einsum("ij,jk,ik->i", pts, R, pts)))
            assert got == pytest.approx(ref, rel=1e-6)
