import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_configuration
from polydual.cyclic import (
    CyclicAverages,
    _power_means,
    averages_from_distances,
    check_consistency,
)
from polydual.dual import solve
from polydual.errors import RealizabilityError, TriangleInequalityError
from polydual.geometry import DistanceSpec, Point2, RegularPolygonSpec, distances_from

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def from_parameters(n, circumradius, center_distance):
    """The n-1 circle means from the two sizes: mean square r^2 + l^2, spread 2 r^2 l^2."""
    r2, l2 = circumradius * circumradius, center_distance * center_distance
    return _power_means(r2 + l2, 2.0 * r2 * l2, n - 1)


class TestFromDistances:
    def test_square_example(self):
        avgs = averages_from_distances(DistanceSpec((1.0, SQRT5, SQRT5, 1.0)))
        assert avgs.n == 4
        assert avgs.values[0] == pytest.approx(3.0, rel=1e-15)
        assert avgs.values[1] == pytest.approx(13.0, rel=1e-15)
        assert avgs.values[2] == pytest.approx(63.0, rel=1e-15)

    def test_constant_list(self):
        r = 1.7
        avgs = averages_from_distances(DistanceSpec((r,) * 6))
        for m, v in enumerate(avgs.values, start=1):
            assert v == pytest.approx(r ** (2 * m), rel=1e-14)

    def test_three_five_seven(self):
        # direct power sums: (9+25+49)/3 and (81+625+2401)/3
        avgs = averages_from_distances(DistanceSpec((3.0, 5.0, 7.0)))
        assert avgs.values[0] == pytest.approx(83.0 / 3.0, rel=1e-15)
        assert avgs.values[1] == pytest.approx(3107.0 / 3.0, rel=1e-15)

    def test_no_vertex_cap(self):
        avgs = averages_from_distances(DistanceSpec((1.0,) * 70))
        assert avgs.values == (1.0,) * 69
        assert check_consistency(avgs).passed

    @pytest.mark.parametrize("ratio", [1e-4, 0.1, 0.9, 3.0])
    def test_higher_orders_are_within_the_plain_sum_bound(self, ratio):
        # orders 1 and 2 are compensated sums; the others add nonnegative terms
        # left to right, within (n - 1)*eps of the correctly rounded sum
        values = _regular_distances(200, ratio)
        squares = [v * v for v in values]
        powers = list(squares)
        for m, mean in enumerate(averages_from_distances(DistanceSpec(values)).values, start=1):
            want = math.fsum(powers) / 200
            if m <= 2:
                assert mean == want
            assert abs(mean - want) <= 200 * sys.float_info.epsilon * want, m
            powers = [p * q for p, q in zip(powers, squares)]

    def test_all_zero_distances(self):
        avgs = averages_from_distances(DistanceSpec((0.0,) * 6))
        assert avgs.values == (0.0,) * 5
        report = check_consistency(avgs)
        assert report.passed
        assert [c.expected for c in report.checks] == [0.0] * 3


class TestFromParameters:
    def test_square_parameters(self):
        values = from_parameters(4, SQRT2, 1.0)
        assert values[0] == pytest.approx(3.0, rel=1e-15)
        assert values[1] == pytest.approx(13.0, rel=1e-15)
        # order-3 term: 27 + C(3,2)*C(2,1)*2*1*3 = 27 + 36
        assert values[2] == pytest.approx(63.0, rel=1e-15)

    def test_point_at_center(self):
        r = 2.2
        for m, v in enumerate(from_parameters(6, r, 0.0), start=1):
            assert v == pytest.approx(r ** (2 * m), rel=1e-14)

    def test_three_five_seven_parameters(self):
        values = from_parameters(3, math.sqrt(64.0 / 3.0), math.sqrt(19.0 / 3.0))
        assert values[0] == pytest.approx(83.0 / 3.0, rel=1e-13)
        assert values[1] == pytest.approx(3107.0 / 3.0, rel=1e-13)


class TestPhaseIndependence:
    """The two computation routes agree for orders up to n-1, whatever the
    polygon rotation or point azimuth; at order n the rotation leaks in."""

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(20260809)
        for _ in range(400):
            poly, point = random_configuration(rng)
            from_d = averages_from_distances(distances_from(point, poly))
            from_p = from_parameters(poly.n, poly.circumradius, point.distance_to(poly.center))
            for a, b in zip(from_d.values, from_p):
                assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)

    def test_order_n_depends_on_phase(self):
        n, radius, dist = 4, 1.0, 0.5
        point = Point2(dist, 0.0)

        def power_mean(phase: float, m: int) -> float:
            p = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, phase)
            d = distances_from(point, p)
            return math.fsum(v ** (2 * m) for v in d.values) / n

        # all means up to n-1 agree between the two rotations ...
        for m in range(1, n):
            assert power_mean(0.0, m) == pytest.approx(power_mean(math.pi / n, m), rel=1e-9)
        # ... but the order-n mean does not
        gap = abs(power_mean(0.0, n) - power_mean(math.pi / n, n))
        assert gap > 1e-6


def _series_mean(s2: float, spread: float, m: int) -> Decimal:
    """Mean of d^(2m) as the exact series, to 50 digits:
    s2^m * sum_k C(m,2k)*C(2k,k)/2^k * (spread/s2^2)^k."""
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(spread) / (Decimal(s2) * Decimal(s2))
        term = total = Decimal(1)
        for k in range(1, m // 2 + 1):
            term = term * ((m - 2 * k + 2) * (m - 2 * k + 1)) / (2 * k * k) * q
            total += term
        return total * Decimal(s2) ** m


class TestRecurrenceAccuracy:
    @pytest.mark.parametrize("ratio", [1e-4, 0.01, 0.3, 0.9, 1.0, 1.2, 3.0])
    def test_closure_values_against_decimal_series(self, ratio):
        """The closure values for orders up to 999 lie within 1e-14 of the
        exact series through order 63 and within 5e-13 beyond.

        The reference takes the same s2 and float spread the check forms,
        so it measures the recurrence alone.  The mean square is near 1 so
        that order 999 stays in the float range; past order 63 every ninth
        order and the last are compared.
        """
        r = 1.0 / math.sqrt(1.0 + ratio * ratio)
        avgs = CyclicAverages(1000, from_parameters(1000, r, ratio * r))
        s2 = avgs.values[0]
        spread = avgs.values[1] - s2 * s2
        checks = check_consistency(avgs).checks
        assert [c.order for c in checks] == list(range(3, 1000))
        for c in checks:
            if c.order > 63 and c.order % 9 and c.order != 999:
                continue
            want = _series_mean(s2, spread, c.order)
            err = float(abs(Decimal(c.expected) - want) / want)
            assert err <= (1e-14 if c.order <= 63 else 5e-13), c.order


class TestConsistency:
    def test_genuine_instances_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            poly, point = random_configuration(rng)
            report = check_consistency(averages_from_distances(distances_from(point, poly)))
            assert report.passed

    def test_constructed_counterexample(self):
        # plugging (3, 13) into the closure identity gives 27 + 3*(13-9)*3 = 63
        report = check_consistency(CyclicAverages(4, (3.0, 13.0, 64.0)))
        assert not report.passed
        (check,) = report.checks
        assert check.order == 3
        assert check.expected == pytest.approx(63.0, rel=1e-15)
        assert check.residual == pytest.approx(1.0, rel=1e-12)

    def test_n3_vacuously_passes(self):
        report = check_consistency(CyclicAverages(3, (4.0, 17.0)))
        assert report.checks == ()
        assert report.passed

    def test_moment_inequality_guard(self):
        report = check_consistency(CyclicAverages(3, (4.0, 15.0)))
        assert not report.passed

    @given(st.integers(0, 10_000))
    def test_single_distance_perturbation_fails(self, seed):
        rng = np.random.default_rng(seed)
        poly, point = random_configuration(
            rng, n=int(rng.integers(4, 9)), ratio_range=(0.3, 2.5), ratio_gap=1e-2
        )
        values = list(distances_from(point, poly).values)
        worst = max(range(len(values)), key=lambda i: values[i])
        values[worst] *= 1.01
        report = check_consistency(averages_from_distances(DistanceSpec(tuple(values))))
        assert not report.passed


def _band_distances(n, s2):
    """sqrt(s2 + 2*cos(psi + 2*pi*k/n)): P = 1, psi = pi/n at even n and 0 at odd n.

    For s2 in [2*cos(pi/n), 2) every square is nonnegative and every
    closure identity holds, yet s2^2 < 4*P^2, so no regular polygon gives
    these distances: r and l would be complex.
    """
    psi = math.pi / n if n % 2 == 0 else 0.0
    return DistanceSpec(tuple(math.sqrt(max(s2 + 2.0 * math.cos(psi + 2.0 * math.pi * k / n), 0.0))
                              for k in range(n)))


def _refused_by_solve(d):
    try:
        solve(d)
    except (RealizabilityError, TriangleInequalityError):
        return True
    return False


class TestUnrealizableBand:
    """Lists that pass every closure identity but break 2*spread <= s2^2."""

    SIX = (1.9188670635478835, 1.3964240043768943, 0.4668502890982536, 0.46685028909825294,
           1.3964240043768938, 1.9188670635478837)

    def test_triangle_inequality_breach_fails(self):
        # n = 3 has no closure identity: the bound alone refuses it
        d = DistanceSpec((1.0, 1.0, 5.0))
        report = check_consistency(averages_from_distances(d))
        assert report.checks == ()
        assert not report.passed
        assert _refused_by_solve(d)

    def test_six_gon_with_complex_sizes_fails(self):
        # s2 = 1.95, P = 1, psi = pi/6: the closure residuals are rounding only
        d = DistanceSpec(self.SIX)
        report = check_consistency(averages_from_distances(d))
        assert all(c.residual <= 1e-12 * c.expected for c in report.checks)
        assert not report.passed
        assert _refused_by_solve(d)

    def test_seeded_band_is_refused_by_both(self):
        rng = np.random.default_rng(4)
        accepted = []
        for _ in range(3000):
            n = int(rng.integers(3, 65))
            s2 = float(rng.uniform(2.0 * math.cos(math.pi / n), 2.0 * (1.0 - 1e-3)))
            d = _band_distances(n, s2)
            if check_consistency(averages_from_distances(d)).passed or not _refused_by_solve(d):
                accepted.append((n, s2))
        assert accepted == []


def _regular_distances(n, ratio):
    """Distances from a regular n-gon at l/r = ratio, scaled so max(d) = 1."""
    r = 1.0 / (1.0 + ratio)
    point = Point2(ratio * r * math.cos(0.7), ratio * r * math.sin(0.7))
    return distances_from(point, RegularPolygonSpec(n, Point2(0.0, 0.0), r, 0.3)).values


def _pairwise_means(values):
    """The n-1 even-power means, summed pairwise by numpy.

    Within about log2(n) ulps of compensated sums, far under the closure
    floor, and fast enough for n = 3000, where ``math.fsum`` takes seconds.
    """
    squares = np.square(np.asarray(values))
    powers = squares.copy()
    means = []
    for _ in range(1, len(values)):
        means.append(float(powers.mean()))
        powers *= squares
    return CyclicAverages(len(values), tuple(means))


class TestClosureFloor:
    """Order m is judged at max(tol, 2*m^2*eps), the check's own conditioning."""

    RATIOS = [1e-4, 1e-2, 0.1, 0.5, 0.9, 1.1, 3.0]

    @pytest.mark.parametrize("n", [200, 1000, 3000])
    def test_genuine_polygons_pass_at_tight_tol(self, n):
        for ratio in self.RATIOS:
            assert check_consistency(_pairwise_means(_regular_distances(n, ratio)), 1e-12).passed

    @pytest.mark.parametrize("n", [200, 1000, 3000])
    def test_moved_largest_distance_fails(self, n):
        for ratio in self.RATIOS:
            values = list(_regular_distances(n, ratio))
            values[values.index(max(values))] *= 1.0 + 1e-6
            assert not check_consistency(_pairwise_means(values), 1e-12).passed

    @pytest.mark.parametrize("ratio", [1e-4, 1e-2])
    def test_compensated_means_pass_at_tight_tol(self, ratio):
        # at a flat 1e-12, 889 and 831 of these 997 orders fail
        d = DistanceSpec(_regular_distances(1000, ratio))
        assert check_consistency(averages_from_distances(d), 1e-12).passed


def test_cyclic_averages_shape_validation():
    with pytest.raises(ValueError):
        CyclicAverages(4, (1.0, 2.0))
    with pytest.raises(ValueError):
        CyclicAverages(3, (1.0, -2.0))
