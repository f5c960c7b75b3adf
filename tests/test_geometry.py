import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polydual.geometry import (
    TWO_PI,
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    distances_from,
    distances_to,
    normalize_angle,
    verify_permutation,
    vertex_coords,
)
from polydual.svg import Scene, render_svg
from polydual.two_points import two_points

SQRT2 = math.sqrt(2.0)


def unit_square():
    return RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)


class TestVertices:
    def test_unit_square(self):
        vs = vertex_coords(unit_square())
        expected = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        for (x, y), (ex, ey) in zip(vs, expected):
            assert x == pytest.approx(ex, abs=1e-15)
            assert y == pytest.approx(ey, abs=1e-15)

    def test_unit_triangle(self):
        vs = vertex_coords(RegularPolygonSpec(3, Point2(0.0, 0.0), 1.0, 0.0))
        expected = [(1, 0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)]
        for (x, y), (ex, ey) in zip(vs, expected):
            assert x == pytest.approx(ex, abs=1e-15)
            assert y == pytest.approx(ey, abs=1e-15)

    def test_degenerate_radius(self):
        assert vertex_coords(RegularPolygonSpec(5, Point2(2.0, 0.0), 0.0, 1.3)) == [(2.0, 0.0)] * 5

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            RegularPolygonSpec(2, Point2(0, 0), 1.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            RegularPolygonSpec(4, Point2(0, 0), -1.0)

    @given(
        n=st.integers(3, 20),
        radius=st.floats(1e-3, 1e3),
        phase=st.floats(-10.0, 10.0),
        ux=st.floats(-5.0, 5.0),
        uy=st.floats(-5.0, 5.0),
    )
    def test_consecutive_vertices_equidistant(self, n, radius, phase, ux, uy):
        # center offsets scale with the radius: coordinate rounding stays
        # proportional to the side length
        center = Point2(ux * radius, uy * radius)
        vs = vertex_coords(RegularPolygonSpec(n, center, radius, phase))
        sides = [math.dist(vs[i], vs[(i + 1) % n]) for i in range(n)]
        ref = sides[0]
        for s in sides:
            assert abs(s - ref) <= 1e-12 * ref


class TestDistances:
    def test_square_from_point_on_axis(self):
        d = distances_from(Point2(1.0, 0.0), unit_square())
        expected = (1.0, math.sqrt(5), math.sqrt(5), 1.0)
        for got, want in zip(d.values, expected):
            assert got == pytest.approx(want, rel=1e-15)

    def test_center_gives_circumradius(self):
        p = RegularPolygonSpec(7, Point2(0.3, -0.4), 2.5, 0.9)
        d = distances_from(p.center, p)
        for v in d.values:
            assert v == pytest.approx(2.5, rel=1e-15)

    def test_point_on_circumcircle(self):
        d = distances_from(Point2(SQRT2, 0.0), unit_square())
        lo = math.sqrt(4 - 2 * SQRT2)
        hi = math.sqrt(4 + 2 * SQRT2)
        expected = (lo, hi, hi, lo)
        for got, want in zip(d.values, expected):
            assert got == pytest.approx(want, rel=1e-14)


def point2_vertices(p):
    """The per-vertex ``Point2`` construction the float kernel replaced."""
    step = TWO_PI / p.n
    return [
        Point2(
            p.center.x + p.circumradius * math.cos(p.phase + step * i),
            p.center.y + p.circumradius * math.sin(p.phase + step * i),
        )
        for i in range(p.n)
    ]


class TestFloatKernel:
    @given(
        n=st.integers(3, 64),
        scale=st.floats(1e-6, 1e6),
        phase=st.floats(allow_nan=False, allow_infinity=False),
        cx=st.floats(-5.0, 5.0),
        cy=st.floats(-5.0, 5.0),
        px=st.floats(-10.0, 10.0),
        py=st.floats(-10.0, 10.0),
    )
    def test_bit_identical_to_point2_path(self, n, scale, phase, cx, cy, px, py):
        p = RegularPolygonSpec(n, Point2(cx * scale, cy * scale), scale, phase)
        point = Point2(px * scale, py * scale)
        ref = point2_vertices(p)
        # repr tells -0.0 from 0.0, so these compare bit for bit
        assert repr(vertex_coords(p)) == repr([(v.x, v.y) for v in ref])
        want = tuple(point.distance_to(v) for v in ref)
        assert repr(distances_from(point, p).values) == repr(want)

    def test_bound_overflow_without_vertex_overflow(self):
        # |cx| + r overflows, but with phase pi every vertex stays below
        # 1.75e308, so the slow path must pass the polygon
        p = RegularPolygonSpec(3, Point2(1.5e308, 0.0), 0.5e308, math.pi)
        assert vertex_coords(p) == [(v.x, v.y) for v in point2_vertices(p)]

    def test_overflow_raises_point2_message(self):
        p = RegularPolygonSpec(5, Point2(1.7e308, 0.0), 1e308, 0.0)
        with pytest.raises(ValueError, match=r"coordinates must be finite, got \(inf, 0\.0\)"):
            vertex_coords(p)

    @pytest.mark.parametrize(
        "call",
        [
            lambda big: distances_from(Point2(0.0, 0.0), big),
            lambda big: two_points(big, RegularPolygonSpec(4, Point2(0.0, 0.0), 5e307)),
            lambda big: two_points(RegularPolygonSpec(4, Point2(0.0, 0.0), 5e307), big),
            lambda big: render_svg(Scene(polygons=((big, "A"),))),
        ],
        ids=["distances_from", "two_points-a", "two_points-b", "render_svg"],
    )
    def test_vertex_overflow_raises(self, call):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            call(RegularPolygonSpec(4, Point2(1e308, 0.0), 1e308))


class TestDistancesTo:
    def test_overflowing_distance_raises(self):
        with pytest.raises(ValueError, match="distances must be finite"):
            distances_to(Point2(-1e308, 0.0), [(1e308, 0.0), (0.0, 0.0), (0.0, 1.0)])

    def test_nan_coordinate_raises(self):
        # max() of these distances is 1.0, so a max-below-inf test would pass the NaN
        coords = [(1.0, 0.0), (math.nan, 0.0), (0.0, 1.0)]
        with pytest.raises(ValueError, match="distances must be finite"):
            distances_to(Point2(0.0, 0.0), coords)

    def test_short_list_raises(self):
        with pytest.raises(ValueError, match="at least 3 distances"):
            distances_to(Point2(0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)])

    def test_is_a_distance_spec(self):
        d = distances_to(Point2(0.0, 0.0), [(3.0, 4.0), (0.0, 1.0), (-2.0, 0.0)])
        assert d == DistanceSpec((5.0, 1.0, 2.0))
        assert type(d) is DistanceSpec


class TestDistanceSpec:
    def test_rejects_short_lists(self):
        with pytest.raises(ValueError):
            DistanceSpec((1.0, 2.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceSpec((1.0, -2.0, 3.0))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DistanceSpec((1.0, float("nan"), 3.0))


class TestMultisetEqual:
    def test_permutation_matches(self):
        a = DistanceSpec((1.0, math.sqrt(5), math.sqrt(5), 1.0))
        b = DistanceSpec((math.sqrt(5), 1.0, 1.0, math.sqrt(5)))
        assert verify_permutation(a, b, 1e-9).ok

    def test_detects_difference(self):
        assert not verify_permutation(
            DistanceSpec((1, 2, 3)), DistanceSpec((1, 2, 3.1)), 1e-9
        ).ok

    def test_zero_lists(self):
        z = DistanceSpec((0.0, 0.0, 0.0))
        assert verify_permutation(z, z, 1e-9).ok

    def test_mismatched_n_is_an_error(self):
        with pytest.raises(ValueError):
            verify_permutation(DistanceSpec((1, 2, 3)), DistanceSpec((1, 2, 3, 4)), 1e-9)
        with pytest.raises(ValueError) as exc:
            verify_permutation(DistanceSpec((1, 2, 3)), DistanceSpec((1, 2, 3, 4)))
        # no input reaches this check, so it is a caller bug, not a SchemaError
        assert type(exc.value) is ValueError

    @given(st.lists(st.floats(0.0, 1e6), min_size=3, max_size=10))
    def test_reflexive(self, values):
        d = DistanceSpec(tuple(values))
        assert verify_permutation(d, d, 1e-12).ok

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=3, max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_symmetric_and_permutation_invariant(self, values, rnd):
        a = DistanceSpec(tuple(values))
        shuffled = list(values)
        rnd.shuffle(shuffled)
        b = DistanceSpec(tuple(shuffled))
        assert verify_permutation(a, b, 1e-12).ok
        assert verify_permutation(b, a, 1e-12).ok


def test_normalize_angle_range():
    for raw in (-1e-18, 0.0, 1.0, 2 * math.pi, 7.5, -12.3, 2 * math.pi - 1e-18):
        a = normalize_angle(raw)
        assert 0.0 <= a < 2 * math.pi
