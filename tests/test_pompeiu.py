import contextlib
import io
import json
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import random_configuration, rotate_about
from polydual.cli import main
from polydual.dual import Degeneracy, polygons, solve
from polydual.errors import DegenerateError, TriangleInequalityError
from polydual.geometry import (
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    azimuth,
    distances_from,
    verify_permutation,
    vertex_coords,
)
from polydual.pompeiu import (
    construct_both_triangles,
    construct_triangles,
    pompeiu_from_distances,
    solve_equilateral,
    triangles,
)
from polydual.oracle import random_instance
from polydual.reconstruct import construct_dual

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon


class TestPompeiuTriangle:
    def test_three_five_seven_area(self):
        tri = pompeiu_from_distances(3.0, 5.0, 7.0)
        assert tri.area == pytest.approx(15.0 * SQRT3 / 4.0, rel=1e-14)
        assert tri.area == pytest.approx(6.49519052838329, rel=1e-14)
        assert not tri.degenerate

    def test_van_schooten_degenerate(self):
        tri = pompeiu_from_distances(1.0, 1.0, 2.0)
        assert tri.degenerate
        assert tri.area == 0.0

    def test_violation_raises(self):
        with pytest.raises(TriangleInequalityError):
            pompeiu_from_distances(1.0, 1.0, 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pompeiu_from_distances(-1.0, 1.0, 1.0)

    def test_triangle_carries_the_fit(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            poly, point = random_configuration(rng, 3)
            d = distances_from(point, poly).values
            assert pompeiu_from_distances(*d).solution == solve(DistanceSpec(d), math.inf)

    @pytest.mark.parametrize(
        "sides, degenerate",
        [
            ((1.0, 2.0, 3.0), True),
            ((3.0, 5.0, 8.0), True),
            ((1e-5, 2e-5, 3e-5), True),
            ((1.0, 1.0, 2.000000001), True),
            ((1.0, 1.0, 1.9999999999), False),
        ],
    )
    def test_degenerate_is_the_fits_circumcircle_class(self, sides, degenerate):
        tri = pompeiu_from_distances(*sides)
        on_circle = solve_equilateral(tri).solution.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
        assert tri.degenerate is on_circle is degenerate
        assert (tri.area == 0.0) is degenerate

    def test_wide_tol_violation_is_degenerate(self):
        # far beyond the fit's rounding, but within tol: the clamp is the double root
        tri = pompeiu_from_distances(0.5, 0.0, 0.5001, tol=1e-3)
        assert tri.degenerate
        with pytest.raises(DegenerateError):
            construct_both_triangles(0.5, 0.0, 0.5001, tol=1e-3)

    def test_tiny_scale_is_not_degenerate(self):
        # the slack used to be judged against an absolute floor of 1e-12
        tri = pompeiu_from_distances(3e-30, 5e-30, 7e-30)
        assert not tri.degenerate
        assert tri.area == pytest.approx(15.0 * SQRT3 / 4.0 * 1e-60, rel=1e-14)
        dual = solve_equilateral(tri)
        assert dual.solution.degeneracy is Degeneracy.NONE
        assert dual.side_larger == pytest.approx(8e-30, rel=1e-14)
        assert dual.side_smaller == pytest.approx(math.sqrt(19.0) * 1e-30, rel=1e-14)


class TestClosedForms:
    def test_three_five_seven(self):
        dual = solve_equilateral(pompeiu_from_distances(3.0, 5.0, 7.0))
        sol = dual.solution
        assert sol.larger.circumradius**2 == pytest.approx(64.0 / 3.0, rel=1e-12)
        assert sol.larger.center_distance**2 == pytest.approx(19.0 / 3.0, rel=1e-12)
        assert sol.smaller.circumradius**2 == pytest.approx(19.0 / 3.0, rel=1e-12)
        assert sol.smaller.center_distance**2 == pytest.approx(64.0 / 3.0, rel=1e-12)
        assert dual.side_larger == pytest.approx(8.0, rel=1e-12)
        assert dual.side_smaller == pytest.approx(math.sqrt(19.0), rel=1e-12)

    def test_degenerate_triple_collapses(self):
        dual = solve_equilateral(pompeiu_from_distances(1.0, 1.0, 2.0))
        sol = dual.solution
        assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
        vals = (
            sol.larger.circumradius,
            sol.larger.center_distance,
            sol.smaller.circumradius,
            sol.smaller.center_distance,
        )
        for v in vals:
            assert v == pytest.approx(vals[0], rel=1e-12)

    def test_equal_triple_centers_the_point(self):
        dual = solve_equilateral(pompeiu_from_distances(2.0, 2.0, 2.0))
        assert dual.solution.degeneracy is Degeneracy.AT_CENTER
        # the squared distance cancels to ulp level; its root keeps half the digits
        assert dual.solution.larger.center_distance == pytest.approx(0.0, abs=2e-8)

    def test_agreement_with_general_solver(self):
        rng = np.random.default_rng(31)
        cases = [random_configuration(rng, 3) for _ in range(300)]
        # the point on the circumcircle
        cases += [random_instance(88_000 + s, (3, 3), degenerate_mode=True) for s in range(400)]
        # the point near the center
        cases += [
            random_configuration(rng, 3, ratio_range=(q, q))
            for q in (1e-6, 1e-7, 1e-8, 1e-9)
            for _ in range(150)
        ]
        triples = [distances_from(point, poly).values for poly, point in cases]
        # the point at the center, at several scales
        triples += [(float(v),) * 3 for v in np.geomspace(1e-6, 1e6, 100)]
        for values in triples:
            general = solve(DistanceSpec(values))
            special = solve_equilateral(pompeiu_from_distances(*values)).solution
            assert special.degeneracy is general.degeneracy
            scale = max(general.larger.circumradius, general.smaller.center_distance)
            # at the center the small root keeps half the digits in both paths
            near = 5e-8 if general.degeneracy is Degeneracy.AT_CENTER else 1e-10
            for a, b, rel in (
                (general.larger.circumradius, special.larger.circumradius, 1e-10),
                (general.larger.center_distance, special.larger.center_distance, near),
                (general.smaller.circumradius, special.smaller.circumradius, near),
                (general.smaller.center_distance, special.smaller.center_distance, 1e-10),
            ):
                assert abs(a - b) <= rel * scale
            # the discriminant reduces to (16/3) * area^2
            area = pompeiu_from_distances(*values).area
            expected = (16.0 / 3.0) * area * area
            assert abs(general.discriminant - expected) <= 1e-9 * max(
                expected, general.mean_square**2
            )


def _decimal_margin(d):
    """sum(d^2) - 4*sqrt(3)*area for the float triple d, to 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        a, b, c = (Decimal(v) for v in d)
        sixteen_area_sq = 2 * (a * a * b * b + b * b * c * c + c * c * a * a) - (
            a**4 + b**4 + c**4
        )
        return a * a + b * b + c * c - Decimal(3).sqrt() * max(sixteen_area_sq, 0).sqrt()


class TestWeitzenbock:
    def test_three_five_seven(self):
        assert pompeiu_from_distances(3.0, 5.0, 7.0).weitzenbock_margin == pytest.approx(
            38.0, rel=1e-13
        )

    def test_equal_triple_is_equality_case(self):
        assert pompeiu_from_distances(2.0, 2.0, 2.0).weitzenbock_margin == 0.0

    def test_degenerate_triple(self):
        assert pompeiu_from_distances(1.0, 1.0, 2.0).weitzenbock_margin == pytest.approx(
            6.0, rel=1e-13
        )

    def test_margin_is_six_times_center_distance_squared(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            poly, point = random_configuration(rng, 3)
            d = distances_from(point, poly)
            tri = pompeiu_from_distances(*d.values)
            dual = solve_equilateral(tri)
            expected = 6.0 * dual.solution.larger.center_distance ** 2
            assert abs(tri.weitzenbock_margin - expected) <= 1e-9 * max(expected, 1e-12)

    @pytest.mark.parametrize("sides, margin", [((0.0,) * 3, 0.0), ((1.0,) * 3, 0.0),
                                               ((1.0, 2.0, 3.0), 14.0)],
                             ids=["0,0,0", "1,1,1", "1,2,3"])
    def test_exact_triples(self, sides, margin):
        assert pompeiu_from_distances(*sides).weitzenbock_margin == margin

    def test_within_four_eps_of_decimal_reference(self):
        """The margin is within 4 eps relative of the exact margin of its
        float triple, and never negative, from the center to l/r = 3.

        2*sum((a^2 - b^2)^2) / (sum(d^2) + 4*sqrt(3)*area) adds only
        nonnegative terms and takes each difference of squares as
        (a - b)*(a + b), so no digit cancels however near the center the
        point is.  Against an 80-digit reference the worst of these
        classes measured 2.4 eps.
        """
        rng = np.random.default_rng(19)
        classes = [{"ratio_range": (0.05, 3.0)}] + [
            {"ratio_range": (q / 2.0, 2.0 * q)} for q in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12)
        ]
        for kwargs in classes:
            for _ in range(400):
                poly, point = random_configuration(rng, 3, **kwargs)
                d = distances_from(point, poly).values
                got = pompeiu_from_distances(*d).weitzenbock_margin
                want = _decimal_margin(d)
                assert got >= 0.0
                assert abs(Decimal(got) - want) <= 4 * Decimal(EPS) * want, (d, kwargs)


class TestConstructionA:
    def test_three_five_seven_sides(self):
        tp = construct_both_triangles(3.0, 5.0, 7.0)
        assert tp.larger[0].distance_to(tp.larger[1]) == pytest.approx(8.0, rel=1e-12)
        assert tp.smaller[0].distance_to(tp.smaller[1]) == pytest.approx(
            math.sqrt(19.0), rel=1e-12
        )
        for tri in (tp.larger, tp.smaller):
            got = [tp.point.distance_to(v) for v in tri]
            # vertex 0 is the farthest, and the fit's slot order follows it
            for a, b in zip(got, (7.0, 3.0, 5.0)):
                assert abs(a - b) <= 1e-10 * 7.0

    def test_canonical_placement(self):
        t = pompeiu_from_distances(3.0, 5.0, 7.0)
        tp = construct_triangles(t)
        assert (tp.point.x, tp.point.y) == (0.0, 0.0)
        r, l = t.solution.larger
        larger, smaller = triangles(t)
        assert larger == polygons(t.solution, 3)[0]
        assert (larger.center, larger.circumradius) == ((l, 0.0), r)
        assert (smaller.center, smaller.circumradius) == ((r, 0.0), l)
        assert larger.phase == smaller.phase
        for spec, tri in zip((larger, smaller), (tp.larger, tp.smaller)):
            assert tri == tuple(Point2(*xy) for xy in vertex_coords(spec))

    def test_equal_triple(self):
        tp = construct_both_triangles(2.0, 2.0, 2.0)
        assert tp.larger[0].distance_to(tp.larger[1]) == pytest.approx(
            2.0 * SQRT3, rel=1e-12
        )
        # the point is the center, so the companion collapses to a point
        assert tp.smaller[0].distance_to(tp.smaller[1]) <= 1e-12
        got = sorted(tp.point.distance_to(v) for v in tp.larger)
        for v in got:
            assert v == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateError):
            construct_both_triangles(1.0, 1.0, 2.0)

    def test_matches_closed_forms_on_random_triples(self):
        rng = np.random.default_rng(33)
        # general triples, then triples within 1e-6..1e-3 of the circumcircle,
        # where the two triangles are closest in size
        inputs = [{"ratio_gap": 1e-2}] * 200 + [
            {"ratio_range": (1.0 - 1e-3, 1.0 + 1e-3), "ratio_gap": 1e-6}
        ] * 200
        for kwargs in inputs:
            poly, point = random_configuration(rng, 3, **kwargs)
            d = distances_from(point, poly)
            tp = construct_both_triangles(*d.values)
            dual = solve_equilateral(pompeiu_from_distances(*d.values))
            scale = max(d.values)
            side_larger = tp.larger[0].distance_to(tp.larger[1])
            side_smaller = tp.smaller[0].distance_to(tp.smaller[1])
            assert side_larger > side_smaller
            assert abs(side_larger - dual.side_larger) <= 1e-9 * scale
            assert abs(side_smaller - dual.side_smaller) <= 1e-9 * scale

    def test_vertex_k_is_equally_far_in_both_triangles(self):
        # the point's distance to vertex k is symmetric in r and l
        rng = np.random.default_rng(40)
        inputs = [{"ratio_gap": 1e-2}] * 300 + [
            {"ratio_range": (1.0 - 1e-3, 1.0 + 1e-3), "ratio_gap": 1e-6}
        ] * 100 + [{"ratio_range": (0.0, 1e-6)}] * 100
        for kwargs in inputs:
            poly, point = random_configuration(rng, 3, **kwargs)
            d = distances_from(point, poly).values
            tp = construct_both_triangles(*d)
            for a, b in zip(tp.larger, tp.smaller):
                assert abs(tp.point.distance_to(a) - tp.point.distance_to(b)) <= 8 * EPS * max(d)


class TestConstructionB:
    """The companion of one equilateral triangle: ``construct_dual`` at n=3."""

    def test_three_five_seven(self):
        p = triangles(pompeiu_from_distances(3.0, 5.0, 7.0))[0]
        point = Point2(0.0, 0.0)
        q = construct_dual(p, point).b_polygon
        assert q.circumradius * SQRT3 == pytest.approx(math.sqrt(19.0), rel=1e-12)
        assert verify_permutation(
            distances_from(point, p), distances_from(point, q), 1e-10
        ).ok

    def test_preserves_multiset_both_directions(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            poly, point = random_configuration(rng, 3)
            d = distances_from(point, poly)
            q = construct_dual(poly, point, float(rng.uniform(0.0, TWO_PI))).b_polygon
            assert verify_permutation(d, distances_from(point, q), 1e-10).ok
            # swapped parameters
            assert q.circumradius == pytest.approx(
                point.distance_to(poly.center), rel=1e-9, abs=1e-12 * max(d.values)
            )
            assert point.distance_to(q.center) == pytest.approx(
                poly.circumradius, rel=1e-9
            )

    def test_applying_twice_returns_congruent(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            poly, point = random_configuration(rng, 3)
            q = construct_dual(poly, point, float(rng.uniform(0.0, TWO_PI))).b_polygon
            back = construct_dual(q, point, float(rng.uniform(0.0, TWO_PI))).b_polygon
            assert back.circumradius == pytest.approx(poly.circumradius, rel=1e-9)
            assert point.distance_to(back.center) == pytest.approx(
                point.distance_to(poly.center), rel=1e-9
            )

    def test_orientations_give_mirror_pair(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            poly, point = random_configuration(rng, 3)
            pair = construct_dual(poly, point, float(rng.uniform(0.0, TWO_PI)))
            q_pos, q_neg = pair.b_polygon, pair.c_polygon
            assert q_pos.circumradius == q_neg.circumradius
            assert q_pos.center == q_neg.center
            assert verify_permutation(
                distances_from(point, q_pos), distances_from(point, q_neg), 1e-9
            ).ok

    def test_shared_vertex_kept(self):
        # mirroring the center across the bisector of the point and vertex k
        # puts the companion center at r from the point and at l from that
        # vertex, so it is vertex k of one companion or vertex -k of its mirror
        poly = RegularPolygonSpec(3, Point2(0.0, 0.0), 2.0, 0.3)
        point = Point2(0.9, 0.4)
        c = poly.center
        for k, xy in enumerate(vertex_coords(poly)):
            a = Point2(*xy)
            ux, uy = a.x - point.x, a.y - point.y
            t = ((2.0 * c.x - point.x - a.x) * ux + (2.0 * c.y - point.y - a.y) * uy) / (
                ux * ux + uy * uy
            )
            mirrored = Point2(c.x - t * ux, c.y - t * uy)
            pair = construct_dual(poly, point, azimuth(point, mirrored))
            assert min(
                math.dist(a, vertex_coords(pair.b_polygon)[k]),
                math.dist(a, vertex_coords(pair.c_polygon)[-k]),
            ) <= 1e-12

    def test_center_point_raises(self):
        poly = RegularPolygonSpec(3, Point2(0.0, 0.0), 2.0, 0.0)
        with pytest.raises(DegenerateError):
            construct_dual(poly, Point2(0.0, 0.0))

    def test_circumcircle_point_raises(self):
        poly = RegularPolygonSpec(3, Point2(0.0, 0.0), 2.0, 0.0)
        with pytest.raises(DegenerateError):
            construct_dual(poly, Point2(2.0 * math.cos(1.0), 2.0 * math.sin(1.0)))


class TestPompeiuForward:
    def test_measured_distances_always_form_a_triangle(self):
        rng = np.random.default_rng(37)
        for _ in range(400):
            poly, point = random_configuration(rng, 3)
            d = distances_from(point, poly)
            tri = pompeiu_from_distances(*d.values)  # must not raise
            assert not tri.degenerate

    def test_degenerate_exactly_on_circumcircle(self):
        rng = np.random.default_rng(38)
        for _ in range(200):
            radius = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            phase = float(rng.uniform(0.0, TWO_PI))
            az = float(rng.uniform(0.0, TWO_PI))
            poly = RegularPolygonSpec(3, Point2(0.0, 0.0), radius, phase)
            point = Point2(radius * math.cos(az), radius * math.sin(az))
            d = distances_from(point, poly)
            tri = pompeiu_from_distances(*d.values, tol=1e-9)
            assert tri.degenerate


def rotation_triangles(d1, d2, d3):
    """Pompeiu's construction of both triangles by 60-degree rotations.

    The point is the origin and the edge of length d2 lies along the
    positive x axis; the shared vertex, at distance d1 from the point and
    d3 from the edge's far end, goes in the upper half plane.  Each
    equilateral triangle on the edge has an apex that becomes the second
    vertex of one output triangle, and the third vertex is the image of
    the shared vertex under the rotation about that apex taking the
    edge's far end onto the point.  The clockwise apex gives the larger
    triangle.
    """
    m = Point2(0.0, 0.0)
    support = Point2(d2, 0.0)
    x = (d1 * d1 - d3 * d3 + d2 * d2) / (2.0 * d2)
    shared = Point2(x, math.sqrt(max(d1 * d1 - x * x, 0.0)))
    out = []
    for turn in (-math.pi / 3.0, math.pi / 3.0):
        apex = rotate_about(support, m, turn)
        angle = azimuth(apex, m) - azimuth(apex, support)
        out.append((shared, apex, rotate_about(shared, apex, angle)))
    return out


def _sides(tri):
    return sorted(tri[i].distance_to(tri[(i + 1) % 3]) for i in range(3))


class TestRotationWitness:
    """The rotation construction, independent of the fit, agrees with its triangles."""

    def test_agrees_on_seeded_triples(self):
        rng = np.random.default_rng(41)
        ratios = [None] * 5000
        ratios += [1.0 + sign * 10.0**-j for j in range(1, 8) for sign in (-1, 1)] * 300
        ratios += [10.0**-j for j in range(2, 11)] * 200
        compared = 0
        for ratio in ratios:
            kwargs = {"ratio_gap": 1e-3} if ratio is None else {
                "ratio_range": (ratio, ratio), "ratio_gap": 0.0}
            poly, point = random_configuration(rng, 3, **kwargs)
            d = distances_from(point, poly).values
            t = pompeiu_from_distances(*d)
            if t.degenerate:  # within about 1.7e-7 of the circle, both refuse
                assert ratio is not None and abs(ratio - 1.0) < 2e-7
                continue
            r, l = t.solution.larger
            kappa = (r * r + l * l) / (abs(r - l) * max(r, l))
            bound = 16 * EPS * kappa * max(d)
            tp = construct_triangles(t)
            for new, old in zip((tp.larger, tp.smaller), rotation_triangles(*d)):
                got = sorted(tp.point.distance_to(v) for v in new)
                want = sorted(math.hypot(*v) for v in old)
                for a, b in zip(got + _sides(new), want + _sides(old)):
                    assert abs(a - b) <= bound
            compared += 1
        assert compared >= 10_000


#: The seeded ``pompeiu --construct`` triples of the golden corpus.
CORPUS_TRIPLES = [
    "0.3988589811561481,0.48174348886225066,0.21940603998194705",
    "9.508776110614534,6.0206917832894336,6.489663596827267",
    "5.926586324979848,17.734710694844964,12.368753996464925",
    "0.17690709333167345,0.1764472748928942,0.21727399562887567",
]


def _construct(values):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["pompeiu", "--distances", ",".join(map(repr, values)), "--construct"])
    doc = json.loads(out.getvalue())["construction"]
    return code, [(v["x"], v["y"]) for v in [doc["point"], *doc["larger"], *doc["smaller"]]]


@pytest.mark.parametrize("triple", ["3,5,7", *CORPUS_TRIPLES])
def test_construct_scales_exactly_by_powers_of_two(triple):
    # the squared distances used to under- or overflow outside 2^-536..2^509
    values = [float(v) for v in triple.split(",")]
    code, base = _construct(values)
    assert code == 0
    tri = pompeiu_from_distances(*values)
    for k in [*range(-1000, 1001, 10), -537, -536, 509, 510]:
        scaled = [math.ldexp(v, k) for v in values]
        code, got = _construct(scaled)
        assert code == 0
        assert got == [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in base]
        # area and margin are of degree 2: exactly 2^(2k) wherever that is a normal double
        scaled_tri = pompeiu_from_distances(*scaled)
        for x, y in ((tri.area, scaled_tri.area),
                     (tri.weitzenbock_margin, scaled_tri.weitzenbock_margin)):
            e = math.frexp(x)[1] + 2 * k
            if sys.float_info.min_exp <= e <= sys.float_info.max_exp:
                assert y == math.ldexp(x, 2 * k), (k, x, y)
