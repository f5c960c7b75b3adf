import math

import numpy as np
import pytest

from conftest import random_configuration, unit_square
from polydual.dual import polygons, solve
from polydual.errors import DegenerateError
from polydual.geometry import (
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    distances_from,
    verify_permutation,
    vertex_coords,
)
from polydual.cyclic import averages_from_distances
from polydual.reconstruct import construct_dual

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
TWO_PI = 2.0 * math.pi


class TestConstructDual:
    def test_square_worked_example(self):
        pair = construct_dual(unit_square(), Point2(1.0, 0.0), 0.0)
        b = pair.b_polygon
        assert b.center.x == pytest.approx(1.0 + SQRT2, rel=1e-12)
        assert b.center.y == pytest.approx(0.0, abs=1e-12)
        assert b.circumradius == pytest.approx(1.0, rel=1e-12)
        # one vertex sits at angle pi/4 from the companion center
        angles = [(b.phase + TWO_PI * i / 4) % TWO_PI for i in range(4)]
        assert any(abs(a - math.pi / 4) < 1e-9 for a in angles)
        d = distances_from(Point2(1.0, 0.0), b)
        assert verify_permutation(d, DistanceSpec((1.0, 1.0, SQRT5, SQRT5)), 1e-9).ok
        d_in = distances_from(Point2(1.0, 0.0), unit_square())
        for q in (b, pair.c_polygon):
            assert verify_permutation(d_in, distances_from(Point2(1.0, 0.0), q)).residual <= 1e-12

    def test_square_companion_phases(self):
        # the center seen from the point turns from azimuth pi to 0, so
        # vertex 0 of the square, at pi/4, goes to pi/4 - pi, and its mirror
        # in the x axis to pi - pi/4
        pair = construct_dual(unit_square(), Point2(1.0, 0.0), 0.0)
        assert pair.b_polygon.phase == pytest.approx(math.pi + math.pi / 4, abs=1e-12)
        assert pair.c_polygon.phase == pytest.approx(math.pi - math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize(
        "point, anchor_distance",
        [(Point2(-3.0, 0.0), 4.0), (Point2(3.0, 0.0), 2.0)],
        ids=["far-pole", "near-pole"],
    )
    def test_anchor_at_a_pole_has_one_companion(self, point, anchor_distance):
        # vertex 0 of the unit square, on the line through the point and the
        # center, at r + l or |r - l|: its image lies on the mirror axis, so
        # the mirrors coincide
        square = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0, 0.0)
        for direction in (0.0, 1.0, 4.0):
            pair = construct_dual(square, point, direction)
            b, c = pair.b_polygon, pair.c_polygon
            assert abs(math.remainder(b.phase - c.phase, TWO_PI)) <= 1e-12
            assert math.dist(point, vertex_coords(b)[0]) == pytest.approx(
                anchor_distance, rel=1e-12
            )

    def test_equilateral_three_five_seven(self):
        # the distance triple's larger triangle, of side 8, about the origin
        p = polygons(solve(DistanceSpec((3.0, 5.0, 7.0))), 3)[0]
        pair = construct_dual(p, Point2(0.0, 0.0), 1.234)
        assert pair.b_polygon.circumradius == pytest.approx(math.sqrt(19.0 / 3.0), rel=1e-12)
        side = pair.b_polygon.circumradius * math.sqrt(3.0)
        assert side == pytest.approx(math.sqrt(19.0), rel=1e-12)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_power_of_two_scaling_is_exact(self, k):
        # the point-to-center classification used to underflow (DEGENERATE),
        # and the law of cosines divided by an underflowed product or
        # overflowed its squares
        def scaled(v):
            return math.ldexp(v, k)

        p = RegularPolygonSpec(5, Point2(0.2, -0.3), 2.0, 0.4)
        point = Point2(1.1, 0.2)
        want = construct_dual(p, point, 0.9)
        got = construct_dual(
            RegularPolygonSpec(5, Point2(scaled(0.2), scaled(-0.3)), scaled(2.0), 0.4),
            Point2(scaled(1.1), scaled(0.2)),
            0.9,
        )
        for g, w in ((got.b_polygon, want.b_polygon), (got.c_polygon, want.c_polygon)):
            assert (g.center.x, g.center.y) == (scaled(w.center.x), scaled(w.center.y))
            assert (g.circumradius, g.phase) == (scaled(w.circumradius), w.phase)

    def test_point_on_circumcircle_is_degenerate(self):
        with pytest.raises(DegenerateError):
            construct_dual(unit_square(), Point2(SQRT2, 0.0), 0.0)

    def test_point_at_center_is_degenerate(self):
        with pytest.raises(DegenerateError):
            construct_dual(unit_square(), Point2(0.0, 0.0), 0.0)

    def test_bound_overflow_without_vertex_overflow_is_answered(self):
        # |cx| + r overflows, but each vertex sits at 1e308 +/- 5.7e307
        p = RegularPolygonSpec(4, Point2(1e308, 0.0), 8e307, math.pi / 4)
        point = Point2(9e307, 0.0)
        pair = construct_dual(p, point, math.pi)
        assert pair.b_polygon.center.x == pytest.approx(1e307, rel=1e-15)
        assert pair.b_polygon.circumradius == pytest.approx(1e307, rel=1e-15)
        d = distances_from(point, p)
        assert verify_permutation(d, distances_from(point, pair.b_polygon)).ok

    def test_vertex_overflow_raises_before_degeneracy(self):
        # the point at the center is DEGENERATE, but the overflow is judged first
        p = RegularPolygonSpec(4, Point2(1e308, 0.0), 1e308)
        with pytest.raises(ValueError, match="coordinates must be finite"):
            construct_dual(p, Point2(1e308, 0.0))

    def test_overflowing_center_distance_raises(self):
        # |r - l| <= 4 ulp(l) holds for l = inf: it must not read on_circumcircle
        p = RegularPolygonSpec(4, Point2(1e308, 0.0), 1.0)
        with pytest.raises(ValueError, match="distance to the center must be finite, got inf"):
            construct_dual(p, Point2(-1e308, 0.0))

    def test_full_circle_of_directions(self):
        rng = np.random.default_rng(777)
        for _ in range(100):
            poly, point = random_configuration(rng)
            d = distances_from(point, poly)
            direction = float(rng.uniform(0.0, TWO_PI))
            pair = construct_dual(poly, point, direction)
            scale = max(d.values)
            for q in (pair.b_polygon, pair.c_polygon):
                x = distances_from(point, q)
                assert verify_permutation(d, x).residual <= 1e-12 * scale
            # swap conditions: companion center at the original circumradius,
            # companion radius equal to the original center distance
            radius = poly.circumradius
            dist = point.distance_to(poly.center)
            assert point.distance_to(pair.b_polygon.center) == pytest.approx(
                radius, rel=1e-10
            )
            assert pair.b_polygon.circumradius == pytest.approx(
                dist, rel=1e-10, abs=1e-12 * scale
            )

    def test_point_near_center_or_circumcircle_never_raises(self):
        # r and l are the inputs' own, so only |r - l| <= 4 ulp(max(r, l)) or
        # min(r, l) == 0 is refused; every other point's companion matches
        # to rounding, however small l/r is, or however close to 1
        pentagon = RegularPolygonSpec(5, Point2(0.0, 0.0), 1.0, 0.3)
        near = 1.0 + 1e-8
        configs = [(pentagon, Point2(near * math.cos(1.0), near * math.sin(1.0))),
                   (pentagon, Point2(1e-14, 0.0))]
        rng = np.random.default_rng(12)
        ratios = [1.0 + s * 10.0 ** -k for k in range(1, 16) for s in (-1.0, 1.0)]
        ratios += [10.0 ** -k for k in range(1, 301)]
        for ratio in ratios:
            for _ in range(8):
                radius = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
                az = float(rng.uniform(0.0, TWO_PI))
                n, phase = int(rng.integers(3, 41)), float(rng.uniform(0.0, TWO_PI))
                # the center at the origin, so the point's coordinates carry l to rounding
                poly = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, phase)
                configs.append(
                    (poly, Point2(ratio * radius * math.cos(az), ratio * radius * math.sin(az)))
                )
        def in_band(poly, point):
            r, l = poly.circumradius, point.distance_to(poly.center)
            return abs(r - l) <= 4.0 * math.ulp(max(r, l)) or l == 0.0

        assert not any(in_band(poly, point) for poly, point in configs)
        # off the origin the coordinate subtraction rounds too: n up to 64 and
        # the center anywhere in [-2, 2]^2, skipping only what falls in the band
        for i in range(2000):
            n = int(rng.integers(3, 65))
            if i % 2 == 0:
                ratio = 10.0 ** rng.uniform(-14.0, -6.0)
            else:
                ratio = 1.0 + float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-6.0, -3.0)
            poly, point = random_configuration(rng, n, ratio_range=(ratio, ratio), ratio_gap=0.0)
            if not in_band(poly, point):
                configs.append((poly, point))
        for poly, point in configs:
            direction = float(rng.uniform(0.0, TWO_PI))
            rng.integers(0, poly.n)  # a retired argument's draw, kept so later draws keep theirs
            pair = construct_dual(poly, point, direction)
            d = distances_from(point, poly)
            for q in (pair.b_polygon, pair.c_polygon):
                x = distances_from(point, q)
                assert verify_permutation(d, x).residual <= 1e-13 * max(d.values)
        # the band's edge: 4 ulps off the circle is refused, 5 is answered
        unit = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0)
        for ulps in (-4, 4):
            with pytest.raises(DegenerateError):
                construct_dual(unit, Point2(1.0 + ulps * math.ulp(1.0), 0.0))
        for ulps in (-5, 5):
            construct_dual(unit, Point2(1.0 + ulps * math.ulp(1.0), 0.0))

    def test_power_sum_transfer(self):
        rng = np.random.default_rng(778)
        for _ in range(60):
            poly, point = random_configuration(rng)
            d = distances_from(point, poly)
            pair = construct_dual(poly, point, float(rng.uniform(0.0, TWO_PI)))
            x = distances_from(point, pair.b_polygon)
            for a, b in zip(
                averages_from_distances(d).values, averages_from_distances(x).values
            ):
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)

    def test_mirror_pair(self):
        rng = np.random.default_rng(779)
        for _ in range(60):
            poly, point = random_configuration(rng)
            pair = construct_dual(poly, point, float(rng.uniform(0.0, TWO_PI)))
            d_b = distances_from(point, pair.b_polygon)
            d_c = distances_from(point, pair.c_polygon)
            assert verify_permutation(d_b, d_c, 1e-9).ok
            # reflecting b across the line point -> companion center gives c
            axis = math.atan2(
                pair.b_polygon.center.y - point.y, pair.b_polygon.center.x - point.x
            )
            vb = [Point2(*xy) for xy in vertex_coords(pair.b_polygon)]
            vc = [Point2(*xy) for xy in vertex_coords(pair.c_polygon)]
            for v in vb:
                rel = math.atan2(v.y - point.y, v.x - point.x)
                radius = point.distance_to(v)
                mirrored = Point2(
                    point.x + radius * math.cos(2 * axis - rel),
                    point.y + radius * math.sin(2 * axis - rel),
                )
                assert any(mirrored.distance_to(w) < 1e-7 * max(radius, 1.0) for w in vc)

    def test_every_vertex_keeps_its_distance(self):
        # vertex k of b and vertex -k of its mirror c are as far from the point
        # as vertex k of the input, index by index, for n up to 64, the point
        # near the center or the circumcircle, and directions up to 1e300
        rng = np.random.default_rng(780)
        for i in range(3000):
            n = int(rng.integers(3, 65))
            if i % 3 == 0:
                poly, point = random_configuration(rng, n)
            else:
                if i % 3 == 1:
                    ratio = 10.0 ** rng.uniform(-14.0, -1.0)
                else:
                    ratio = 1.0 + float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-12.0, -1.0)
                poly, point = random_configuration(rng, n, ratio_range=(ratio,) * 2, ratio_gap=0.0)
            if i % 2 == 0:
                direction = float(rng.uniform(-TWO_PI, TWO_PI))
            else:
                direction = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(0.0, 300.0)
            pair = construct_dual(poly, point, direction)
            d = distances_from(point, poly).values
            d_b = distances_from(point, pair.b_polygon).values
            d_c = distances_from(point, pair.c_polygon).values
            worst = max(max(abs(d_b[k] - d[k]), abs(d_c[-k] - d[k])) for k in range(n))
            assert worst <= 1e-13 * max(d), (i, worst / max(d))

    def test_fitted_pair_is_placed_by_the_same_rule(self):
        # with the point at the origin and the direction 0, the companion of
        # the fit's larger polygon is the fit's smaller one, bit for bit
        rng = np.random.default_rng(782)
        for _ in range(2000):
            poly, point = random_configuration(rng, n_range=(3, 64))
            larger, smaller = polygons(solve(distances_from(point, poly)), poly.n)
            pair = construct_dual(larger, Point2(0.0, 0.0), 0.0)
            assert repr(pair.b_polygon) == repr(smaller)

    def test_involution_through_solve(self):
        rng = np.random.default_rng(781)
        for _ in range(60):
            poly, point = random_configuration(rng)
            sol = solve(distances_from(point, poly))
            pair = construct_dual(poly, point, float(rng.uniform(0.0, TWO_PI)))
            sol_b = solve(distances_from(point, pair.b_polygon))
            for a, b in (
                (sol.larger.circumradius, sol_b.larger.circumradius),
                (sol.larger.center_distance, sol_b.larger.center_distance),
                (sol.smaller.circumradius, sol_b.smaller.circumradius),
                (sol.smaller.center_distance, sol_b.smaller.center_distance),
            ):
                assert abs(a - b) <= 1e-8 * max(a, b, 1e-300)


class TestVerifyPermutation:
    def test_identity(self):
        d = DistanceSpec((1.0, SQRT5, SQRT5, 1.0))
        match = verify_permutation(d, d, 1e-9)
        assert match.ok
        assert match.permutation == (0, 1, 2, 3)
        assert match.residual == 0.0

    def test_reversal(self):
        d = DistanceSpec((1.0, 2.0, 3.0, 4.0))
        x = DistanceSpec((4.0, 3.0, 2.0, 1.0))
        match = verify_permutation(d, x, 1e-9)
        assert match.ok
        assert match.permutation == (3, 2, 1, 0)

    def test_failure_reports_residual(self):
        match = verify_permutation(DistanceSpec((1, 2, 3)), DistanceSpec((1, 2, 4)), 1e-9)
        assert not match.ok
        assert match.residual == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify_permutation(DistanceSpec((1, 2, 3)), DistanceSpec((1, 2, 3, 4)), 1e-9)
