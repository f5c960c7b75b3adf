import math

import numpy as np
import pytest

from conftest import shared_vertex_pair
from polydual import two_points as two_points_module
from polydual.dual import solve
from polydual.errors import CongruentError, ConcentricError, SharedVertexError
from polydual.geometry import (
    Point2,
    RegularPolygonSpec,
    distances_from,
    vertices,
)
from polydual.reconstruct import verify_permutation
from polydual.two_points import SHARED_VERTEX_EPS, circle_circle_intersect, two_points

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestCircleIntersection:
    def test_external_tangency(self):
        pts = circle_circle_intersect(Point2(0, 0), 1.0, Point2(2, 0), 1.0)
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(1.0, rel=1e-12)
        assert pts[0].y == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_lens(self):
        pts = circle_circle_intersect(Point2(0, 0), 1.0, Point2(1, 0), 1.0)
        assert len(pts) == 2
        ys = sorted(p.y for p in pts)
        assert ys[0] == pytest.approx(-SQRT3 / 2, rel=1e-12)
        assert ys[1] == pytest.approx(SQRT3 / 2, rel=1e-12)
        for p in pts:
            assert p.x == pytest.approx(0.5, rel=1e-12)

    def test_disjoint(self):
        assert circle_circle_intersect(Point2(0, 0), 1.0, Point2(3, 0), 1.0) == []

    def test_contained(self):
        assert circle_circle_intersect(Point2(0, 0), 3.0, Point2(0.1, 0), 1.0) == []

    def test_internal_tangency(self):
        pts = circle_circle_intersect(Point2(0, 0), 2.0, Point2(1, 0), 1.0)
        assert len(pts) == 1
        assert pts[0].x == pytest.approx(2.0, rel=1e-12)

    def test_concentric_rejected(self):
        with pytest.raises(ConcentricError):
            circle_circle_intersect(Point2(0, 0), 1.0, Point2(0, 0), 1.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            circle_circle_intersect(Point2(0, 0), -1.0, Point2(1, 0), 1.0)

    def test_ordering_by_angle(self):
        p1, p2 = circle_circle_intersect(Point2(0, 0), 1.0, Point2(1, 0), 1.0)
        a1 = math.atan2(p1.y, p1.x) % (2 * math.pi)
        a2 = math.atan2(p2.y, p2.x) % (2 * math.pi)
        assert a1 < a2


class TestSquaresWorkedExample:
    """Two squares sharing vertex (1,1): the larger with circumradius
    sqrt(2) about the origin, the smaller with circumradius 1 about (2,1)."""

    def setup_method(self):
        self.pa = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        self.pb = RegularPolygonSpec(4, Point2(2.0, 1.0), 1.0, math.pi)
        self.sol = two_points(self.pa, self.pb)

    def test_two_points_exist(self):
        assert self.sol.m2 is not None
        assert not self.sol.collinear_degenerate
        # frozen from the geometry: both circles pass through these points
        assert self.sol.m1.x == pytest.approx(0.6, rel=1e-12)
        assert self.sol.m1.y == pytest.approx(0.8, rel=1e-12)
        assert self.sol.m2.x == pytest.approx(1.0, rel=1e-12)
        assert self.sol.m2.y == pytest.approx(0.0, abs=1e-12)

    def test_swapped_circle_membership(self):
        for q in (self.sol.m1, self.sol.m2):
            assert q.distance_to(self.pb.center) == pytest.approx(SQRT2, rel=1e-10)
            assert q.distance_to(self.pa.center) == pytest.approx(1.0, rel=1e-10)

    def test_first_point_matching_is_index_aligned(self):
        da = distances_from(self.sol.m1, self.pa).values
        db = distances_from(self.sol.m1, self.pb).values
        for a, b in zip(da, db):
            assert a == pytest.approx(b, rel=1e-12)

    def test_second_point_matching_is_index_reversed(self):
        da = distances_from(self.sol.m2, self.pa).values
        db = distances_from(self.sol.m2, self.pb).values
        n = 4
        for i in range(n):
            assert da[i] == pytest.approx(db[(n - i) % n], rel=1e-12)

    def test_permutations_verified(self):
        for match in self.sol.matches:
            assert match.ok
            assert match.residual <= 1e-12


class TestErrors:
    def test_congruent_rejected(self):
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        pb = RegularPolygonSpec(4, Point2(2.0, 0.0), SQRT2, math.pi / 4)
        with pytest.raises(CongruentError):
            two_points(pa, pb)

    def test_no_shared_vertex_rejected(self):
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        pb = RegularPolygonSpec(4, Point2(10.0, 0.0), 1.0, 0.0)
        with pytest.raises(SharedVertexError):
            two_points(pa, pb)

    def test_mismatched_counts_rejected(self):
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        pb = RegularPolygonSpec(5, Point2(1.0, 1.0), 1.0, 0.0)
        with pytest.raises(ValueError):
            two_points(pa, pb)


class TestLastSharedVertex:
    """A 64-gon pair sharing vertex 63 of both: the search reaches the last
    pair of indices and must still build each polygon's vertices once."""

    def setup_method(self):
        n, step = 64, 2.0 * math.pi / 64
        self.pa = RegularPolygonSpec(n, Point2(0.0, 0.0), 1.0, 0.3)
        v = vertices(self.pa)[n - 1]
        r_b, psi = 1.6, 2.0
        center_b = Point2(v.x + r_b * math.cos(psi), v.y + r_b * math.sin(psi))
        self.pb = RegularPolygonSpec(n, center_b, r_b, (psi + math.pi) - step * (n - 1))

    def test_shared_vertex_is_last_of_both(self):
        va, vb = vertices(self.pa), vertices(self.pb)
        tol = SHARED_VERTEX_EPS * 1.6
        shared = [(i, j) for i, a in enumerate(va) for j, b in enumerate(vb)
                  if a.distance_to(b) <= tol]
        assert shared == [(63, 63)]

    def test_solves_and_matches(self):
        sol = two_points(self.pa, self.pb)
        assert sol.m2 is not None and not sol.collinear_degenerate
        assert all(m.ok for m in sol.matches)
        for q in (sol.m1, sol.m2):
            assert q.distance_to(self.pb.center) == pytest.approx(1.0, rel=1e-12)
            assert q.distance_to(self.pa.center) == pytest.approx(1.6, rel=1e-12)

    def test_no_point_per_vertex(self, monkeypatch):
        built = []
        check = Point2.__post_init__
        monkeypatch.setattr(Point2, "__post_init__", lambda q: built.append(check(q)))
        calls = []
        kernel = two_points_module.vertex_coords
        monkeypatch.setattr(two_points_module, "vertex_coords",
                            lambda p: calls.append(p) or kernel(p))
        two_points(self.pa, self.pb)
        assert calls == [self.pa, self.pb]
        # the two circle intersections; vertex search and distances use floats
        assert len(built) == 2


class TestRandomPairs:
    def test_existence_and_multiset_equality(self):
        rng = np.random.default_rng(909)
        tangency_seen = 0
        for _ in range(400):
            pa, pb, _v = shared_vertex_pair(rng)
            sol = two_points(pa, pb)
            points = (sol.m1,) if sol.m2 is None else (sol.m1, sol.m2)
            if sol.m2 is None:
                tangency_seen += 1
            scale = max(pa.circumradius, pb.circumradius)
            for q, match in zip(points, sol.matches):
                d_a, d_b = distances_from(q, pa), distances_from(q, pb)
                res = verify_permutation(d_a, d_b).residual
                assert res <= 1e-8 * scale
                assert match.ok
        # generic pairs essentially never land tangent
        assert tangency_seen <= 2

    def test_collinear_gives_single_point(self):
        rng = np.random.default_rng(910)
        for _ in range(100):
            pa, pb, v = shared_vertex_pair(rng, collinear=True)
            sol = two_points(pa, pb)
            assert sol.collinear_degenerate
            assert sol.m2 is None
            res = verify_permutation(
                distances_from(sol.m1, pa), distances_from(sol.m1, pb)
            ).residual
            assert res <= 1e-8 * max(pa.circumradius, pb.circumradius)

    def test_consistency_with_dual_solver(self):
        rng = np.random.default_rng(911)
        for _ in range(200):
            pa, pb, _v = shared_vertex_pair(rng)
            sol = two_points(pa, pb)
            m1 = sol.m1
            dual = solve(distances_from(m1, pa))
            got = {
                (round(dual.larger.circumradius, 6), round(dual.larger.center_distance, 6)),
                (round(dual.smaller.circumradius, 6), round(dual.smaller.center_distance, 6)),
            }
            r_a, r_b = pa.circumradius, pb.circumradius
            l_a = m1.distance_to(pa.center)
            l_b = m1.distance_to(pb.center)
            scale = max(r_a, r_b, l_a, l_b)
            pairs = (
                (dual.larger.circumradius, dual.larger.center_distance),
                (dual.smaller.circumradius, dual.smaller.center_distance),
            )
            err_a = min(max(abs(r - r_a), abs(l - l_a)) for r, l in pairs)
            err_b = min(max(abs(r - r_b), abs(l - l_b)) for r, l in pairs)
            assert err_a <= 1e-8 * scale
            assert err_b <= 1e-8 * scale
            assert got  # evidence computed
