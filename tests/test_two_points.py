import math
import types

import numpy as np
import pytest

from conftest import rotate_about, shared_vertex_pair
from polydual import two_points as two_points_module
from polydual.dual import solve
from polydual.errors import CongruentError, SharedVertexError
from polydual.geometry import (
    Point2,
    RegularPolygonSpec,
    distances_from,
    verify_permutation,
    vertex_coords,
)
from polydual.two_points import two_points

SQRT2 = math.sqrt(2.0)


def side_of_center_line(pa, pb, q):
    """Signed distance of q from the oriented line through pa's and pb's centers."""
    ox, oy = pb.center.x - pa.center.x, pb.center.y - pa.center.y
    return (ox * (q.y - pa.center.y) - oy * (q.x - pa.center.x)) / math.hypot(ox, oy)


class TestCircleIntersection:
    """The two points are the intersections of the swapped-radius circles,
    built as the half-turn and reflection images of the shared vertex."""

    def test_external_tangency(self):
        # the shared vertex (1, 0) lies between the centers (0, 0) and (3, 0)
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0, 0.0)
        pb = RegularPolygonSpec(4, Point2(3.0, 0.0), 2.0, math.pi)
        sol = two_points(pa, pb)
        assert sol.m2 is None
        assert sol.m1 == Point2(2.0, 0.0)

    def test_internal_tangency(self):
        # the shared vertex (1, 0) lies beyond both centers (0, 0) and (-2, 0)
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0, 0.0)
        pb = RegularPolygonSpec(4, Point2(-2.0, 0.0), 3.0, 0.0)
        sol = two_points(pa, pb)
        assert sol.m2 is None
        assert sol.m1 == Point2(-3.0, 0.0)
        assert sol.matches[0].ok

    def test_concentric_rejected(self):
        # a vertex shared within its tolerance about a common center: the
        # radii differ by less than that tolerance, so the pair is congruent;
        # at tol 0 the vertices, 1e-10 apart, are not shared
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0, 0.0)
        pb = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0000000001, 0.0)
        with pytest.raises(CongruentError):
            two_points(pa, pb, tol=1e-9)
        with pytest.raises(SharedVertexError):
            two_points(pa, pb, tol=0.0)

    def test_symmetric_lens(self):
        # both points sit on the swapped-radius circles, mirrored across the
        # line through the centers
        rng = np.random.default_rng(905)
        for _ in range(200):
            pa, pb, _v = shared_vertex_pair(rng)
            sol = two_points(pa, pb)
            scale = max(pa.circumradius, pb.circumradius)
            for q in (sol.m1, sol.m2):
                assert abs(q.distance_to(pb.center) - pa.circumradius) <= 1e-14 * scale
                assert abs(q.distance_to(pa.center) - pb.circumradius) <= 1e-14 * scale
            mid = Point2((sol.m1.x + sol.m2.x) / 2, (sol.m1.y + sol.m2.y) / 2)
            assert abs(side_of_center_line(pa, pb, mid)) <= 1e-14 * scale
            chord = (sol.m2.x - sol.m1.x, sol.m2.y - sol.m1.y)
            axis = (pb.center.x - pa.center.x, pb.center.y - pa.center.y)
            dot = chord[0] * axis[0] + chord[1] * axis[1]
            assert abs(dot) <= 1e-14 * scale * math.hypot(*axis)

    def test_ordering_by_angle(self):
        # seen from pa's center, m1 lies counterclockwise of the center line
        # and m2 clockwise
        rng = np.random.default_rng(906)
        for _ in range(200):
            pa, pb, _v = shared_vertex_pair(rng)
            sol = two_points(pa, pb)
            assert side_of_center_line(pa, pb, sol.m1) > 0.0
            assert side_of_center_line(pa, pb, sol.m2) < 0.0

    def test_points_coincide_exactly_when_vertex_is_on_the_line(self):
        # the mirror images sit at twice the vertex's distance from the line
        rng = np.random.default_rng(907)
        for i in range(200):
            pa, pb, v = shared_vertex_pair(rng, collinear=i % 2 == 0)
            sol = two_points(pa, pb)
            scale = max(pa.circumradius, pb.circumradius)
            off_line = abs(side_of_center_line(pa, pb, v))
            if sol.m2 is None:
                assert off_line <= 1e-9 * scale
            else:
                assert off_line > 1e-9 * scale
                assert sol.m1.distance_to(sol.m2) == pytest.approx(2 * off_line, rel=1e-9)


class TestSquaresWorkedExample:
    """Two squares sharing vertex (1,1): the larger with circumradius
    sqrt(2) about the origin, the smaller with circumradius 1 about (2,1)."""

    def setup_method(self):
        self.pa = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        self.pb = RegularPolygonSpec(4, Point2(2.0, 1.0), 1.0, math.pi)
        self.sol = two_points(self.pa, self.pb)

    def test_two_points_exist(self):
        assert self.sol.m2 is not None
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

    def test_shared_vertex_tolerance_is_tol(self):
        # vertex (1, 0) of pa and (1.000000000001, 0) of pb: 1e-12 apart
        pa = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0, 0.0)
        pb = RegularPolygonSpec(4, Point2(3.000000000001, 0.0), 2.0, math.pi)
        with pytest.raises(SharedVertexError) as err:
            two_points(pa, pb, 1e-13)
        assert err.value.context["tolerance"] == 1e-13 * 2.0
        assert two_points(pa, pb, 1e-9).m2 is None

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
        v = Point2(*vertex_coords(self.pa)[n - 1])
        r_b, psi = 1.6, 2.0
        center_b = Point2(v.x + r_b * math.cos(psi), v.y + r_b * math.sin(psi))
        self.pb = RegularPolygonSpec(n, center_b, r_b, (psi + math.pi) - step * (n - 1))

    def test_shared_vertex_is_last_of_both(self):
        va, vb = vertex_coords(self.pa), vertex_coords(self.pb)
        tol = 1e-9 * 1.6  # the default tol times the larger radius
        shared = [(i, j) for i, a in enumerate(va) for j, b in enumerate(vb)
                  if math.dist(a, b) <= tol]
        assert shared == [(63, 63)]

    def test_solves_and_matches(self):
        sol = two_points(self.pa, self.pb)
        assert sol.m2 is not None
        assert all(m.ok for m in sol.matches)
        for q in (sol.m1, sol.m2):
            assert q.distance_to(self.pb.center) == pytest.approx(1.0, rel=1e-12)
            assert q.distance_to(self.pa.center) == pytest.approx(1.6, rel=1e-12)

    def test_one_comparison_per_vertex(self, monkeypatch):
        calls = []
        hypot = math.hypot
        counting = types.SimpleNamespace(
            **{**vars(math), "hypot": lambda *xy: calls.append(xy) or hypot(*xy)}
        )
        monkeypatch.setattr(two_points_module, "math", counting)
        two_points(self.pa, self.pb)
        # 64 vertex comparisons, the last one the match, and the center gap
        assert len(calls) == 64 + 1

    def test_no_point_per_vertex(self, monkeypatch):
        built = []
        new = Point2.__new__
        monkeypatch.setattr(Point2, "__new__", lambda cls, *xy: built.append(xy) or new(cls, *xy))
        calls = []
        kernel = two_points_module.vertex_coords
        monkeypatch.setattr(two_points_module, "vertex_coords",
                            lambda p: calls.append(p) or kernel(p))
        two_points(self.pa, self.pb)
        assert calls == [self.pa, self.pb]
        # the half-turn and reflection images; vertex search and distances use floats
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

    def test_vertex_search_agrees_with_all_pairs_scan(self):
        # pb's center moved by half or twice the vertex tolerance: only the
        # vertex nearest in angle is compared, and it decides as a scan of
        # all n^2 vertex pairs does
        rng = np.random.default_rng(2027)
        tol = 1e-9
        for i in range(300):
            pa, pb, _ = shared_vertex_pair(rng, int(rng.integers(3, 65)))
            vtol = tol * max(pa.circumradius, pb.circumradius)
            gap = vtol * (0.5 if i % 2 else 2.0)
            turn = float(rng.uniform(0.0, 2.0 * math.pi))
            pb = RegularPolygonSpec(pb.n, Point2(pb.center.x + gap * math.cos(turn),
                                                 pb.center.y + gap * math.sin(turn)),
                                    pb.circumradius, pb.phase)
            va, vb = vertex_coords(pa), vertex_coords(pb)
            scan = any(math.dist(a, b) <= vtol for a in va for b in vb)
            assert scan == bool(i % 2)
            try:
                two_points(pa, pb, tol)
                found = True
            except SharedVertexError:
                found = False
            assert found == scan

    def test_collinear_gives_single_point(self):
        rng = np.random.default_rng(910)
        for _ in range(100):
            pa, pb, v = shared_vertex_pair(rng, collinear=True)
            sol = two_points(pa, pb)
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

    def test_near_collinear_gives_two_points(self):
        # a collinear partner rotated about the shared vertex by 1e-6 rad
        rng = np.random.default_rng(912)
        for _ in range(200):
            pa, pb, v = shared_vertex_pair(rng, collinear=True)
            turned = RegularPolygonSpec(
                pb.n, rotate_about(pb.center, v, 1e-6), pb.circumradius, pb.phase + 1e-6
            )
            sol = two_points(pa, turned)
            assert sol.m2 is not None and sol.m1 != sol.m2
            assert all(m.ok for m in sol.matches)


def scaled_pair(pa, pb, k):
    return tuple(
        RegularPolygonSpec(
            p.n,
            Point2(math.ldexp(p.center.x, k), math.ldexp(p.center.y, k)),
            math.ldexp(p.circumradius, k),
            p.phase,
        )
        for p in (pa, pb)
    )


def scaled_point(q, k):
    return None if q is None else Point2(math.ldexp(q.x, k), math.ldexp(q.y, k))


@pytest.mark.parametrize("k", [-1000, -700, -71, -1, 1, 511, 700, 1000])
def test_power_of_two_scaling_is_exact(k):
    # every step is a sum, product, quotient or hypot of lengths, so scaling
    # every input length by 2^k scales every output length by exactly 2^k
    rng = np.random.default_rng(913)
    for i in range(300):
        pa, pb, _v = shared_vertex_pair(rng, collinear=i % 5 == 0)
        want = two_points(pa, pb)
        got = two_points(*scaled_pair(pa, pb, k))
        assert (got.m2 is None) == (want.m2 is None)
        assert (got.m1, got.m2) == (scaled_point(want.m1, k), scaled_point(want.m2, k))
        assert len(got.matches) == len(want.matches)
        for g, w in zip(got.matches, want.matches):
            assert (g.ok, g.permutation) == (w.ok, w.permutation)
            assert g.residual == math.ldexp(w.residual, k)
