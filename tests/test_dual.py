import math

import numpy as np
import pytest

from conftest import random_configuration
from polydual.cli import JobRequest, run
from polydual.dual import Degeneracy, solve
from polydual.errors import RealizabilityError
from polydual.geometry import DistanceSpec, Point2, RegularPolygonSpec, distances_from

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def point_class(values):
    """The ``point_class`` key of the ``dual`` command's result."""
    result, code = run(JobRequest("dual", {"distances": list(values)}))
    assert code == 0
    return result["point_class"]


class TestSquareExample:
    def test_values(self):
        sol = solve(DistanceSpec((1.0, SQRT5, SQRT5, 1.0)))
        assert sol.mean_square == pytest.approx(3.0, rel=1e-12)
        assert sol.mean_fourth == pytest.approx(13.0, rel=1e-12)
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


class TestRealizability:
    def test_impossible_distances(self):
        with pytest.raises(RealizabilityError):
            solve(DistanceSpec((1.0, 1.0, 5.0)))

    def test_barely_negative_discriminant_clamps(self):
        # mean_fourth tuned so the discriminant is ~ -1e-12 * mean_square^2
        lo = math.sqrt(4 - 2 * SQRT2)
        hi = math.sqrt(4 + 2 * SQRT2)
        bump = 1.0 + 2.6e-13
        sol = solve(DistanceSpec((lo, hi * bump, hi, lo)))
        assert sol.discriminant >= 0.0
        assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE


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
            sol = solve(distances_from(point, poly))
            p1 = sol.larger.circumradius * sol.larger.center_distance
            p2 = sol.smaller.circumradius * sol.smaller.center_distance
            assert abs(p1 - p2) <= 1e-12 * max(p1, p2, 1e-300)
            expected = math.sqrt(max((sol.mean_fourth - sol.mean_square**2) / 2.0, 0.0))
            assert p1 == pytest.approx(expected, rel=1e-9, abs=1e-12 * max(sol.mean_square, 1.0))

    def test_pair_swap_is_exact(self):
        sol = solve(DistanceSpec((1.0, SQRT5, SQRT5, 1.0)))
        assert sol.larger.circumradius == sol.smaller.center_distance
        assert sol.larger.center_distance == sol.smaller.circumradius
