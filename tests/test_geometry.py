"""Boxes, vertex lists, translation, and the envelope constant M, a convex-form maximum."""

import itertools
import typing

import numpy as np
import pytest

from reachmax import Box, Polytope, VRep
from reachmax.bounds import _vertex_maxima
from reachmax.errors import DimensionTooLarge
from reachmax.geometry import CORNER_TABLE_MIN_DIM, BoxCorners, form_values, translate, vertex_set, vertices
from reachmax.qpcore import maximize_convex_vertices

from support import RangeOnly, corner_table_boxes, form, osc_eigvec_basis


class TestPolytope:
    """An initial set is a Box or a VRep: Polytope is their union, not a base class another set could extend."""

    def test_polytope_is_the_union_of_box_and_vrep(self):
        assert typing.get_args(Polytope) == (Box, VRep)
        assert isinstance(Box([0.0, -1.0], [1.0, 1.0]), Polytope)
        assert isinstance(VRep([[0.0, 1.0], [2.0, 3.0]]), Polytope)
        assert not isinstance(RangeOnly([0.0], [1.0]), Polytope)

    def test_public_functions_refuse_any_other_set(self):
        other = RangeOnly([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(TypeError, match="unsupported polytope type RangeOnly"):
            vertices(other)
        with pytest.raises(TypeError, match="unsupported polytope type RangeOnly"):
            translate(other, [0.5, 0.5])


class TestVertices:
    def test_unit_box_corners_in_order(self):
        V = vertices(Box([-1.0, -1.0], [1.0, 1.0]))
        np.testing.assert_array_equal(V, [[-1, -1], [-1, 1], [1, -1], [1, 1]])

    def test_interval(self):
        np.testing.assert_array_equal(vertices(Box([0.25], [0.5])), [[0.25], [0.5]])

    def test_vrep_passthrough(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(vertices(VRep(pts)), pts)

    def test_vrep_passthrough_keeps_duplicates(self):
        pts = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0 + 1e-13], [3.0, 3.0], [0.0, 0.0]])
        np.testing.assert_array_equal(vertices(VRep(pts.copy())), pts)

    def test_box_corners_match_product_order(self):
        rng = np.random.default_rng(11)
        for d in range(1, 11):
            lower = rng.uniform(-2.0, 1.0, size=d)
            upper = lower + rng.uniform(0.0, 3.0, size=d)
            expected = np.array(list(itertools.product(*zip(lower, upper))))
            np.testing.assert_array_equal(vertices(Box(lower, upper)), expected)

    def test_corner_count(self):
        for d in (1, 2, 3, 4, 5):
            box = Box(-np.ones(d), np.ones(d))
            assert vertices(box).shape == (2**d, d)

    def test_cap_exceeded(self):
        with pytest.raises(DimensionTooLarge):
            # 2^23 corners, above DEFAULT_VERTEX_CAP = 2^22: refused before any corner is built
            vertices(Box(-np.ones(23), np.ones(23)))

    def test_empty_box_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            ([0.0, 0.0], [1.0], "box bounds must be 1-d vectors of equal length"),
            ([[0.0, 0.0]], [[1.0, 1.0]], "box bounds must be 1-d vectors of equal length"),
            ([], [], "box dimension must be positive"),
            ([0.0, np.nan], [1.0, 1.0], "box bounds must be finite"),
            ([0.0, 0.0], [1.0, np.inf], "box bounds must be finite"),
        ],
    )
    def test_box_refusals(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            Box(lower, upper)

    @pytest.mark.parametrize("points", [np.zeros((0, 2)), np.zeros((2, 0)), np.zeros((1, 2, 2))])
    def test_vrep_needs_a_point_of_positive_dimension(self, points):
        with pytest.raises(ValueError, match="vertex representation needs at least one point"):
            VRep(points)

    def test_vrep_range_is_the_coordinate_range_and_checks_every_point(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(1, 40)), int(rng.integers(1, 7))))
            P = VRep(pts)
            for got, ref in ((P.lower, pts.min(axis=0)), (P.upper, pts.max(axis=0))):
                assert not got.flags.writeable and got.tobytes() == ref.tobytes()
            assert P.dim == pts.shape[1]
            # one non-finite coordinate anywhere, the last row included, is refused
            for bad in (np.nan, np.inf, -np.inf):
                broken = pts.copy()
                broken[rng.integers(len(pts)), rng.integers(pts.shape[1])] = bad
                with pytest.raises(ValueError, match="vertices must be finite"):
                    VRep(broken)


def random_convex_objective(rng, d: int, linear: bool = True) -> tuple[np.ndarray, np.ndarray]:
    M = rng.normal(size=(d, d))
    return form(M.T @ M, rng.normal(size=d) if linear else np.zeros(d))


class TestBoxCorners:
    """Corner tables give the corners and form values of `vertices` without the 2^d x d array."""

    def test_vertex_set_dispatches_on_dimension(self):
        d = CORNER_TABLE_MIN_DIM
        below = vertex_set(Box(-np.ones(d - 1), np.ones(d - 1)))
        assert isinstance(below, np.ndarray) and below.shape == (2 ** (d - 1), d - 1)
        table = vertex_set(Box(-np.ones(d), np.ones(d)))
        assert isinstance(table, BoxCorners) and len(table) == 2**d
        pts = np.ones((3, d + 2))
        np.testing.assert_array_equal(vertex_set(VRep(pts)), pts)

    def test_decoded_corners_are_the_vertex_rows_bit_for_bit(self):
        for _, box in corner_table_boxes(32):
            V, table = vertices(box), BoxCorners(box)
            assert len(table) == len(V)
            decoded = np.array([table[i] for i in range(len(table))])
            assert decoded.tobytes() == V.tobytes()

    def test_values_match_the_row_products(self):
        eps = np.finfo(float).eps
        for rng, box in corner_table_boxes(31):
            d = box.dim
            f = random_convex_objective(rng, d)
            V = vertices(box)
            got = BoxCorners(box).form_values(*f)
            ref = form_values(V, *f)
            # each value is a sum of at most d^2 + d products, summed in two different orders;
            # both stay within (2d + 2) eps of the sum of the products' magnitudes
            scale = np.einsum("ij,jk,ik->i", np.abs(V), np.abs(f[0]), np.abs(V)) + np.abs(V) @ np.abs(f[1])
            assert np.all(np.abs(got - ref) <= 4 * (d + 2) * eps * scale)
            assert int(np.argmax(got)) == int(np.argmax(ref))

    def test_values_are_bitwise_the_cross_term_product_plus_two_broadcast_sums(self):
        """The one product gives, bit for bit, (head @ 2 Q_AB) @ tail.T + f_A(head)[:, None] + f_B(tail)."""
        rng = np.random.default_rng(34)
        for d in range(CORNER_TABLE_MIN_DIM, 17):
            lower = rng.uniform(-2.0, 1.0, size=d)
            table = BoxCorners(Box(lower, lower + rng.uniform(0.1, 3.0, size=d)))
            a, H, T = table.split, table.head, table.tail
            for _ in range(3):
                M = rng.normal(size=(d, d))
                Q, q = (M + M.T) / 2.0, rng.normal(size=d)
                ref = (H @ (2.0 * Q[:a, a:])) @ T.T
                ref += np.einsum("ij,ij->i", H @ Q[:a, :a] + q[:a], H)[:, None]
                ref += np.einsum("ij,ij->i", T @ Q[a:, a:] + q[a:], T)
                assert table.form_values(Q, q).tobytes() == ref.ravel().tobytes()

    def test_exact_tie_of_opposite_corners_goes_to_the_first(self):
        rng = np.random.default_rng(33)
        for d in range(CORNER_TABLE_MIN_DIM, 17):
            radius = rng.uniform(0.1, 1.0, size=d)
            box = Box(-radius, radius)
            f = random_convex_objective(rng, d, linear=False)
            table = BoxCorners(box)
            vals = table.form_values(*f)
            # corner 2^d - 1 - i is minus corner i, and f(x) = f(-x) without rounding
            np.testing.assert_array_equal(vals, vals[::-1])
            nu, x = maximize_convex_vertices(f, table)
            ref_nu, ref_x = maximize_convex_vertices(f, vertices(box))
            assert x.tobytes() == ref_x.tobytes()
            assert int(np.argmax(vals)) < len(table) // 2
            assert nu == pytest.approx(ref_nu, rel=1e-13)


class TestStackedFormValues:
    """A stack of forms on a vertex array: one pass, bit for bit the values of each form alone."""

    def test_rows_are_the_single_form_values_and_maxima_bit_for_bit(self):
        rng = np.random.default_rng(35)
        ties = 0
        for _ in range(400):
            d, m, n = (int(v) for v in rng.integers(1, (7, 65, 9)))
            V = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0)
            S = rng.normal(size=(n, d, d))
            S = S.transpose(0, 2, 1) @ S
            Qs, qs = (S + S.transpose(0, 2, 1)) / 2.0, rng.normal(size=(n, d))
            if m % 2 == 0 and rng.uniform() < 0.5:
                # x and -x have bitwise equal values under a form without a linear part, so the
                # maximizer's vertex tells which of a tied pair it took: the first one
                V[m // 2 :] = -V[: m // 2]
                qs[:] = 0.0
                ties += 1
            vals = form_values(V, Qs, qs)
            assert vals.shape == (n, m)
            for Q, q, row in zip(Qs, qs, vals, strict=True):
                assert row.tobytes() == form_values(V, Q, q).tobytes()
                nu, x = maximize_convex_vertices((Q, q), V)
                i = int(np.argmax(row))
                assert nu == row[i] and x.tobytes() == V[i].tobytes()
                if not qs.any():
                    assert i < m // 2
        assert ties >= 100


class TestInputCopies:
    """A polytope keeps read-only copies: writing to the caller's arrays later changes nothing."""

    def test_box_bounds(self):
        lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        box = Box(lower, upper)
        lower[0], upper[1] = 5.0, -5.0  # would give lower > upper if the box shared them
        np.testing.assert_array_equal(box.lower, [-1.0, -1.0])
        np.testing.assert_array_equal(box.upper, [1.0, 1.0])
        np.testing.assert_array_equal(vertices(box), [[-1, -1], [-1, 1], [1, -1], [1, 1]])
        with pytest.raises(ValueError):
            box.lower[0] = 5.0

    def test_vrep_points(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        vrep = VRep(pts)
        pts[0] = 99.0
        np.testing.assert_array_equal(vertices(vrep), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            vertices(vrep)[0, 0] = 99.0


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

    def test_shifted_sets_are_read_only_and_match_the_constructor(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 6))
            lower = rng.normal(size=d)
            box = Box(lower, lower + rng.uniform(0.0, 2.0, size=d))
            vrep = VRep(rng.normal(size=(5, d)))
            t = rng.normal(size=d) * 10.0 ** rng.uniform(-3.0, 3.0)
            shifted, moved = translate(box, t), translate(vrep, t)
            built, rebuilt = Box(box.lower - t, box.upper - t), VRep(vrep.points - t)
            assert type(shifted) is Box and type(moved) is VRep
            pairs = [(shifted.lower, built.lower), (shifted.upper, built.upper)]
            # rounding is monotone, so the shifted range is the range of the shifted points
            pairs += [(moved.points, rebuilt.points), (moved.lower, rebuilt.lower), (moved.upper, rebuilt.upper)]
            for a, b in pairs:
                assert not a.flags.writeable
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert np.all(shifted.lower <= shifted.upper)

    def test_a_shift_that_overflows_is_refused(self):
        t = np.array([-1e308, 0.0])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="box bounds must be finite"):
                translate(Box([-1.0, 0.0], [1e308, 1.0]), t)
            with pytest.raises(ValueError, match="vertices must be finite"):
                translate(VRep([[1e308, 0.0]]), t)


class TestMu:
    """M = sum_i m_i, at least the largest Gram-inverse form x* (U U*)^-1 x = ||U^-1 x||^2 at a vertex x."""

    def test_oscillator_gram_form(self):
        M, _ = _vertex_maxima(np.linalg.inv(osc_eigvec_basis()), vertices(Box([-1.0, -1.0], [1.0, 1.0])))
        assert M == pytest.approx(2.0, abs=1e-12)

    def test_identity_form_on_unit_box(self):
        M, m = _vertex_maxima(np.eye(2), vertices(Box([-1.0, -1.0], [1.0, 1.0])))
        assert M == 2.0
        np.testing.assert_array_equal(m, [1.0, 1.0])

    def test_single_point(self):
        M, m = _vertex_maxima(np.eye(2), vertices(VRep([[3.0, 4.0]])))
        assert M == 25.0
        np.testing.assert_array_equal(m, [9.0, 16.0])

    def test_matches_grid_search_on_random_boxes(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            d = int(rng.integers(1, 7))
            U_inv = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            center = rng.uniform(-1.0, 1.0, size=d)
            radius = rng.uniform(0.1, 1.0, size=d)
            box = Box(center - radius, center + radius)
            M, m = _vertex_maxima(U_inv, vertices(box))
            axes = [np.linspace(lo, up, 5) for lo, up in zip(box.lower, box.upper)]
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=1)
            Y = np.abs(pts @ U_inv.T) ** 2
            np.testing.assert_allclose(m, np.max(Y, axis=0), rtol=1e-6)
            # the grid holds every corner, so its largest ||U^-1 x||^2 is the exact M
            exact = float(np.max(Y.sum(axis=1)))
            assert M == float(m.sum())
            assert exact - 1e-6 * exact <= M <= d * exact + 1e-6 * exact
