import functools
import math
import sys
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_configuration
from polydual.cli import JobRequest, run
from polydual.dual import Degeneracy, polygons, solve
from polydual.errors import RealizabilityError, TriangleInequalityError
from polydual.geometry import DistanceSpec, Point2, RegularPolygonSpec, distances_from
from polydual.oracle import random_instance

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
EPS = sys.float_info.epsilon
#: The fit's error constant: the small root is good to C_FIT*eps*(r/l).
C_FIT = 64.0


def canonical(n, r, l, phase=0.3, azimuth=1.1):
    """Distances from a point at ``l`` from the center of an n-gon of radius ``r``."""
    poly = RegularPolygonSpec(n, Point2(0.0, 0.0), r, phase)
    point = Point2(l * math.cos(azimuth), l * math.sin(azimuth))
    return distances_from(point, poly)


def point_class(values):
    """The ``point_class`` key of the ``dual`` command's result."""
    result, code = run(JobRequest("dual", {"distances": list(values)}))
    assert code == 0
    return result["point_class"]


class TestSquareExample:
    def test_values(self):
        d = DistanceSpec((1.0, SQRT5, SQRT5, 1.0))
        sol = solve(d)
        assert sol.mean_square == pytest.approx(3.0, rel=1e-12)
        mean_fourth = math.fsum(v**4 for v in d.values) / d.n
        assert mean_fourth == pytest.approx(13.0, rel=1e-12)
        product = sol.larger.circumradius * sol.larger.center_distance
        assert sol.mean_square**2 + 2.0 * product**2 == pytest.approx(mean_fourth, rel=1e-12)
        assert sol.discriminant == pytest.approx(1.0, rel=1e-12)
        assert sol.larger.circumradius == pytest.approx(SQRT2, rel=1e-12)
        assert sol.larger.center_distance == pytest.approx(1.0, rel=1e-12)
        assert sol.smaller.circumradius == pytest.approx(1.0, rel=1e-12)
        assert sol.smaller.center_distance == pytest.approx(SQRT2, rel=1e-12)
        assert sol.degeneracy is Degeneracy.NONE
        assert point_class((1.0, SQRT5, SQRT5, 1.0)) == "inside_larger"


class TestDegeneracies:
    def test_all_equal_distances(self):
        sol = solve(DistanceSpec((2.0,) * 5))
        assert sol.degeneracy is Degeneracy.AT_CENTER
        assert sol.larger.circumradius == pytest.approx(2.0, rel=1e-12)
        assert sol.larger.center_distance == pytest.approx(0.0, abs=1e-12)
        assert sol.smaller.circumradius == pytest.approx(0.0, abs=1e-12)
        assert point_class((2.0,) * 5) == "center_degenerate"

    def test_point_on_circumcircle(self):
        lo = math.sqrt(4 - 2 * SQRT2)
        hi = math.sqrt(4 + 2 * SQRT2)
        sol = solve(DistanceSpec((lo, hi, hi, lo)))
        assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
        for v in (
            sol.larger.circumradius,
            sol.larger.center_distance,
            sol.smaller.circumradius,
            sol.smaller.center_distance,
        ):
            assert v == pytest.approx(SQRT2, rel=1e-9)
        assert point_class((lo, hi, hi, lo)) == "on_circle"

    def test_classes_stop_at_rounding_level(self):
        # a fixed 1e-10 threshold classed l/r = 1e-6 as at_center and
        # snapped a point 1e-5 off the circumcircle to r = l
        for l in (1e-6, 1.0 - 1e-5, 1.0 + 1e-5):
            sol = solve(canonical(5, 1.0, l))
            assert sol.degeneracy is Degeneracy.NONE
            assert sorted((sol.larger.circumradius, sol.larger.center_distance)) == [
                pytest.approx(min(l, 1.0), rel=1e-9),
                pytest.approx(max(l, 1.0), rel=1e-9),
            ]


class TestRealizability:
    def test_impossible_distances(self):
        with pytest.raises(RealizabilityError):
            solve(DistanceSpec((1.0, 1.0, 5.0)))

    def test_triple_is_judged_by_the_triangle_inequality(self):
        with pytest.raises(TriangleInequalityError) as info:
            solve(DistanceSpec((1.0, 5.0, 1.0)))
        assert isinstance(info.value, RealizabilityError)
        assert info.value.code == "TRIANGLE_INEQUALITY"
        assert info.value.context == {"sides": (5.0, 1.0, 1.0), "gap": 3.0}  # sorted

    def test_triple_within_tol_of_a_triangle_answers_on_the_circumcircle(self):
        # the discriminant test alone would call this unrealizable at tol 1e-9
        sol = solve(DistanceSpec((1.0, 1.0, 2.000000001)))
        assert sol == solve(DistanceSpec((1.0, 1.0, 2.000000001)), math.inf)
        assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
        assert sol.discriminant == 0.0
        assert sol.larger == sol.smaller

    def test_barely_negative_discriminant_clamps(self):
        # mean_fourth tuned so the discriminant is ~ -1e-12 * mean_square^2
        lo = math.sqrt(4 - 2 * SQRT2)
        hi = math.sqrt(4 + 2 * SQRT2)
        bump = 1.0 + 2.6e-13
        sol = solve(DistanceSpec((lo, hi * bump, hi, lo)))
        assert sol.discriminant >= 0.0
        assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE

    def test_clamp_far_below_zero_is_the_double_root(self):
        sol = solve(DistanceSpec((1.0, 1.0, 2.001)), math.inf)
        assert sol.discriminant == 0.0
        assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
        assert sol.larger == sol.smaller


class TestRoundTrip:
    def test_recovers_generating_parameters(self):
        rng = np.random.default_rng(404)
        for _ in range(500):
            poly, point = random_configuration(rng)
            radius = poly.circumradius
            dist = point.distance_to(poly.center)
            sol = solve(distances_from(point, poly))
            pairs = (
                (sol.larger.circumradius, sol.larger.center_distance),
                (sol.smaller.circumradius, sol.smaller.center_distance),
            )
            scale = max(radius, dist)
            best = min(
                max(abs(r - radius), abs(l - dist)) for r, l in pairs
            )
            assert best <= 1e-9 * scale
            # inside/outside matches the sign of radius - distance
            if sol.degeneracy is Degeneracy.NONE:
                if radius > dist:
                    assert (sol.larger.circumradius, sol.larger.center_distance) == (
                        pytest.approx(radius, rel=1e-9),
                        pytest.approx(dist, rel=1e-9, abs=1e-12 * scale),
                    )
                else:
                    assert (sol.smaller.circumradius, sol.smaller.center_distance) == (
                        pytest.approx(radius, rel=1e-9),
                        pytest.approx(dist, rel=1e-9),
                    )

    def test_discriminant_equals_squared_parameter_gap(self):
        rng = np.random.default_rng(405)
        for _ in range(300):
            poly, point = random_configuration(rng)
            radius = poly.circumradius
            dist = point.distance_to(poly.center)
            sol = solve(distances_from(point, poly))
            expected = (radius * radius - dist * dist) ** 2
            assert abs(sol.discriminant - expected) <= 1e-9 * max(expected, sol.mean_square**2)

    def test_product_identity(self):
        rng = np.random.default_rng(406)
        for _ in range(300):
            poly, point = random_configuration(rng)
            d = distances_from(point, poly)
            sol = solve(d)
            p1 = sol.larger.circumradius * sol.larger.center_distance
            p2 = sol.smaller.circumradius * sol.smaller.center_distance
            assert abs(p1 - p2) <= 1e-12 * max(p1, p2, 1e-300)
            mean_fourth = math.fsum(v**4 for v in d.values) / d.n
            expected = math.sqrt(max((mean_fourth - sol.mean_square**2) / 2.0, 0.0))
            assert p1 == pytest.approx(expected, rel=1e-9, abs=1e-12 * max(sol.mean_square, 1.0))

    def test_pair_swap_is_exact(self):
        sol = solve(DistanceSpec((1.0, SQRT5, SQRT5, 1.0)))
        assert sol.larger.circumradius == sol.smaller.center_distance
        assert sol.larger.center_distance == sol.smaller.circumradius


class TestExtremeScales:
    """Each input here read wrong or exited 2 while the solver raised powers of d."""

    def test_underflowing_squares(self):
        # the squares of 1e-170 underflow to zero: all-zero radii, on_circumcircle
        tiny = solve(DistanceSpec((1e-170, 2e-170, 2.5e-170)))
        unit = solve(DistanceSpec((1.0, 2.0, 2.5)))
        assert tiny.degeneracy is unit.degeneracy is Degeneracy.NONE
        for got, want in (
            (tiny.larger.circumradius, unit.larger.circumradius),
            (tiny.larger.center_distance, unit.larger.center_distance),
        ):
            assert got == pytest.approx(want * 1e-170, rel=4 * EPS)

    def test_overflowing_squares(self):
        # the squares of 1e200 overflow: the command exited 2
        result, code = run(JobRequest("dual", {"distances": [1e200, 2e200, 2.5e200]}))
        unit = solve(DistanceSpec((1.0, 2.0, 2.5)))
        assert code == 0
        assert result["degeneracy"] == "none"
        assert result["larger"]["circumradius"] == pytest.approx(
            unit.larger.circumradius * 1e200, rel=4 * EPS
        )
        assert result["smaller"]["circumradius"] == pytest.approx(
            unit.smaller.circumradius * 1e200, rel=4 * EPS
        )
        assert result["consistency"]["passed"]
        # degree-2 and degree-4 outputs past the float range read inf
        assert result["mean_square"] == result["discriminant"] == math.inf

    def test_thirty_gon_of_radius_one_million(self):
        # d^58 overflowed in the power means: the command exited 2
        r, l = 1e6, 5e5
        result, code = run(JobRequest("dual", {"distances": list(canonical(30, r, l).values)}))
        assert code == 0
        assert result["larger"]["circumradius"] == pytest.approx(r, rel=1e-14)
        assert result["larger"]["center_distance"] == pytest.approx(l, rel=1e-14)
        assert result["consistency"]["passed"]

    @pytest.mark.parametrize("n", [3, 7])
    def test_point_near_the_center(self, n):
        # l/r = 1e-8: the small root by subtraction was off by 5e-2 (n=3) and 1.0 (n=7)
        r, l = 1.0, 1e-8
        sol = solve(canonical(n, r, l))
        assert sol.degeneracy is Degeneracy.NONE
        assert abs(sol.larger.center_distance - l) / l <= C_FIT * EPS * (r / l)
        assert sol.larger.circumradius == pytest.approx(r, rel=4 * EPS)


class TestPolygons:
    """The canonical pair: the point at the origin, both centers on the +x axis."""

    def test_square_example(self):
        larger, smaller = polygons(solve(DistanceSpec((1.0, SQRT5, SQRT5, 1.0))), 4)
        assert larger.center == (pytest.approx(1.0, rel=4 * EPS), 0.0)
        assert larger.circumradius == pytest.approx(SQRT2, rel=4 * EPS)
        assert smaller.center == (pytest.approx(SQRT2, rel=4 * EPS), 0.0)
        assert smaller.circumradius == pytest.approx(1.0, rel=4 * EPS)
        # the two farthest vertices, at slots 0 and -1, straddle the +x axis
        assert larger.phase == smaller.phase == pytest.approx(math.pi / 4, rel=4 * EPS)

    def test_both_realize_the_distances_vertex_by_vertex(self):
        origin = Point2(0.0, 0.0)
        for seed in range(2000):
            poly, point = random_instance(51_000 + seed, (3, 64))
            d = distances_from(point, poly)
            sol = solve(d)
            r, l = sol.larger
            kappa = (r * r + l * l) / (abs(r - l) * max(r, l))
            scale = max(d.values)
            larger, smaller = (distances_from(origin, p).values for p in polygons(sol, d.n))
            for got in (larger, smaller):
                residual = max(abs(a - b) for a, b in zip(sorted(got), sorted(d.values)))
                assert residual <= 16 * EPS * kappa * scale
            assert larger.index(max(larger)) == 0
            assert max(abs(a - b) for a, b in zip(larger, smaller)) <= 8 * EPS * scale


def _decimal_pi():
    """pi to the context precision, the recipe from the ``decimal`` docs."""
    getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


def _decimal_series(x, i, s):
    """cos (i=0, s=1) or sin (i=1, s=x) by the Taylor recipe from the ``decimal`` docs."""
    getcontext().prec += 2
    lasts, fact, num, sign = 0, 1, s, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    getcontext().prec -= 2
    return +s


@functools.lru_cache(maxsize=None)
def _decimal_slot_tables(n):
    with localcontext() as ctx:
        ctx.prec = 50
        pi = _decimal_pi()
        out = []
        for j in range(n):
            x = 2 * pi * ((j + 1) // 2 * (1 if j % 2 == 0 else -1)) / n
            out.append((_decimal_series(x, 0, Decimal(1)), _decimal_series(x, 1, x)))
        return tuple(out)


def reference_fit(values):
    """The same phase fit as ``solve``, evaluated in 50-digit decimal arithmetic."""
    n = len(values)
    tables = _decimal_slot_tables(n)
    with localcontext() as ctx:
        ctx.prec = 50
        m = max(Decimal(v) for v in values)
        squares = sorted(((Decimal(v) / m) ** 2 for v in values), reverse=True)
        s2 = sum(squares) / n
        re = sum((q - s2) * c for q, (c, _) in zip(squares, tables)) / n
        im = sum((q - s2) * s for q, (_, s) in zip(squares, tables)) / n
        two_p = 2 * (re * re + im * im).sqrt()
        a = (s2 + two_p).sqrt()
        b = max(s2 - two_p, Decimal(0)).sqrt()
        return (a + b) / 2 * m, two_p / (a + b) * m


class TestFitProperties:
    @settings(max_examples=300)
    @given(
        n=st.integers(3, 64),
        ratio=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 3.0)),
        big=st.floats(1.0, 2.0),
        phase=st.floats(0.0, 7.0),
        azimuth=st.floats(0.0, 7.0),
        k=st.integers(-1000, 1000),
    )
    def test_power_of_two_scaling_is_exact(self, n, ratio, big, phase, azimuth, k):
        """Scaling every distance by 2^k scales both pairs by exactly 2^k.

        This holds while every input and output stays a normal double,
        since then both the scaling and the quotients d/max(d) are exact.
        """
        r, l = (big, big * ratio) if ratio <= 1.0 else (big / ratio, big)
        d = canonical(n, r, l, phase, azimuth)
        sol = solve(d)
        want = (sol.larger.circumradius, sol.larger.center_distance)
        scaled = [math.ldexp(v, k) for v in d.values] + [math.ldexp(v, k) for v in want]
        assume(all(v == 0.0 or sys.float_info.min <= v < math.inf for v in scaled))
        got = solve(DistanceSpec(tuple(scaled[:n])))
        assert got.degeneracy is sol.degeneracy
        assert (got.larger.circumradius, got.larger.center_distance) == tuple(scaled[n:])
        assert (got.smaller.circumradius, got.smaller.center_distance) == tuple(scaled[n:])[::-1]

    @settings(max_examples=200)
    @given(
        n=st.integers(3, 1000),
        exponent=st.floats(-300.0, 300.0),
        log_gap=st.floats(-12.0, -0.31),
        near_circle=st.booleans(),
        point_outside=st.booleans(),
        phase=st.floats(0.0, 7.0),
        azimuth=st.floats(0.0, 7.0),
    )
    def test_error_bound_against_decimal_reference(
        self, n, exponent, log_gap, near_circle, point_outside, phase, azimuth
    ):
        """Both roots lie within C_FIT*eps*max(r/l, r/(r-l)) of the exact fit.

        Near the center that is the bound C_FIT*eps*(r/l) on the small
        root.  Near the circumcircle the rounding of the squared distances
        themselves moves s2 - 2P = (r - l)^2 by about eps*s2, so |r - l|
        carries a relative error of eps*r/(r - l) that no evaluation order
        can remove.
        """
        # l/r from 1e-12 to 1 - 1e-6: outside both degeneracy classes
        t = 1.0 - 10.0 ** (log_gap / 2.0) if near_circle else 10.0**log_gap
        big = 10.0**exponent
        r, l = (t * big, big) if point_outside else (big, t * big)
        d = canonical(n, r, l, phase, azimuth)
        sol = solve(d)
        assert sol.degeneracy is Degeneracy.NONE
        ref_big, ref_small = reference_fit(d.values)
        bound = C_FIT * EPS * float(max(ref_big / ref_small, ref_big / (ref_big - ref_small)))
        for got, want in (
            (sol.larger.circumradius, ref_big),
            (sol.larger.center_distance, ref_small),
        ):
            assert float(abs(Decimal(got) - want) / want) <= bound
