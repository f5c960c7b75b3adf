"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> ...: PASS/FAIL`` line (visible with
``pytest -s``); the assertions themselves carry the tolerances.
"""

import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import _result_hex, random_configuration, shared_vertex_pair
from polydual.cli import JobRequest, run
from polydual.cyclic import _power_means, averages_from_distances
from polydual.dual import Degeneracy, solve
from polydual.geometry import (
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    distances_from,
    verify_permutation,
)
from polydual.oracle import (
    AGREE_TOL,
    COARSE_SIZE_STEPS,
    OracleConfig,
    random_instance,
    search_second_polygon,
)
from polydual.pompeiu import pompeiu_from_distances, solve_equilateral
from polydual.reconstruct import construct_dual
from polydual.two_points import two_points

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
TWO_PI = 2.0 * math.pi


@contextmanager
def report(line):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {line}: FAIL")
        raise
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_square_worked_example():
    with report("1 square worked example"):
        d = DistanceSpec((1.0, SQRT5, SQRT5, 1.0))
        avgs = averages_from_distances(d)
        assert avgs.values[0] == pytest.approx(3.0, rel=1e-12)
        assert avgs.values[1] == pytest.approx(13.0, rel=1e-12)
        assert avgs.values[2] == pytest.approx(63.0, rel=1e-12)
        sol = solve(d)
        assert sol.discriminant == pytest.approx(1.0, rel=1e-12)
        assert sol.larger.circumradius == pytest.approx(SQRT2, rel=1e-12)
        assert sol.larger.center_distance == pytest.approx(1.0, rel=1e-12)
        assert sol.smaller.circumradius == pytest.approx(1.0, rel=1e-12)
        assert sol.smaller.center_distance == pytest.approx(SQRT2, rel=1e-12)
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            solve(d)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 1e-3, f"solve took {min(timings) * 1e3:.3f} ms"


def test_criterion_2_equilateral_three_five_seven():
    with report("2 equilateral 3-5-7 closed forms"):
        dual = solve_equilateral(pompeiu_from_distances(3.0, 5.0, 7.0))
        assert dual.side_larger == pytest.approx(8.0, rel=1e-12)
        assert dual.side_smaller == pytest.approx(math.sqrt(19.0), rel=1e-12)
        sol = dual.solution
        assert sol.larger.circumradius**2 == pytest.approx(64.0 / 3.0, rel=1e-12)
        assert sol.larger.center_distance**2 == pytest.approx(19.0 / 3.0, rel=1e-12)
        assert sol.smaller.circumradius**2 == pytest.approx(19.0 / 3.0, rel=1e-12)
        general = solve(DistanceSpec((3.0, 5.0, 7.0)))
        for a, b in (
            (general.larger.circumradius, sol.larger.circumradius),
            (general.larger.center_distance, sol.larger.center_distance),
            (general.smaller.circumradius, sol.smaller.circumradius),
            (general.smaller.center_distance, sol.smaller.center_distance),
            (general.discriminant, sol.discriminant),
        ):
            assert a == pytest.approx(b, rel=1e-12)


def test_criterion_3_power_mean_identity_suite():
    with report("3 power-mean identity, 1000 instances per n"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(30303)
        for n in range(3, 13):
            for _ in range(1000):
                poly, point = random_configuration(rng, n=n)
                from_d = averages_from_distances(distances_from(point, poly))
                r2 = poly.circumradius ** 2
                l2 = point.distance_to(poly.center) ** 2
                from_p = _power_means(r2 + l2, 2.0 * r2 * l2, n - 1)
                for a, b in zip(from_d.values, from_p):
                    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-300)
        # at order n the identity genuinely breaks: two rotations of the
        # same square give different order-4 power means
        n, radius, dist = 4, 1.0, 0.5
        point = Point2(dist, 0.0)

        def order_n_mean(phase):
            p = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, phase)
            return math.fsum(v ** (2 * n) for v in distances_from(point, p).values) / n

        assert abs(order_n_mean(0.0) - order_n_mean(math.pi / n)) > 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"


def test_criterion_4_round_trip_ten_thousand():
    with report("4 parameter round trip, 10^4 instances"):
        rng = np.random.default_rng(40404)
        for _ in range(10_000):
            poly, point = random_configuration(rng)
            radius = poly.circumradius
            dist = point.distance_to(poly.center)
            scale = max(radius, dist)
            sol = solve(distances_from(point, poly))
            pairs = (
                (sol.larger.circumradius, sol.larger.center_distance),
                (sol.smaller.circumradius, sol.smaller.center_distance),
            )
            assert min(max(abs(r - radius), abs(l - dist)) for r, l in pairs) <= 1e-9 * scale
            if min(radius, dist) ** 2 > 1e-9 * sol.mean_square:
                if radius > dist:
                    r, l = pairs[0]
                else:
                    r, l = pairs[1]
                assert abs(r - radius) <= 1e-9 * scale
                assert abs(l - dist) <= 1e-9 * scale
        for seed in range(500):
            poly, point = random_instance(seed, (3, 12), degenerate_mode=True)
            sol = solve(distances_from(point, poly))
            assert sol.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
            vals = (
                sol.larger.circumradius,
                sol.larger.center_distance,
                sol.smaller.circumradius,
                sol.smaller.center_distance,
            )
            for v in vals:
                assert abs(v - vals[0]) <= 1e-9 * vals[0]


def test_criterion_5_construction_suite():
    with report("5 companion construction, 10^3 x 8 directions"):
        rng = np.random.default_rng(50505)
        for _ in range(1000):
            poly, point = random_configuration(rng)
            d = distances_from(point, poly)
            scale = max(d.values)
            radius = poly.circumradius
            dist = point.distance_to(poly.center)
            for _ in range(8):
                direction = float(rng.uniform(0.0, TWO_PI))
                pair = construct_dual(poly, point, direction)
                for q in (pair.b_polygon, pair.c_polygon):
                    x = distances_from(point, q)
                    assert verify_permutation(d, x).residual <= 1e-8 * scale
                    match = verify_permutation(d, x, 1e-7)
                    assert match.ok
                # swap conditions to 1e-10 relative
                assert (
                    abs(point.distance_to(pair.b_polygon.center) - radius)
                    <= 1e-10 * radius
                )
                assert abs(pair.b_polygon.circumradius - dist) <= 1e-10 * max(
                    dist, 1e-12 * scale
                )


def test_criterion_6_two_points_suite():
    with report("6 two-points theorem, 10^4 shared-vertex pairs"):
        rng = np.random.default_rng(60606)
        tangencies = 0
        for _ in range(10_000):
            pa, pb, _v = shared_vertex_pair(rng)
            sol = two_points(pa, pb)
            scale = max(pa.circumradius, pb.circumradius)
            points = (sol.m1,) if sol.m2 is None else (sol.m1, sol.m2)
            if sol.m2 is None:
                tangencies += 1
            for q in points:
                d_a, d_b = distances_from(q, pa), distances_from(q, pb)
                assert verify_permutation(d_a, d_b).residual <= 1e-8 * scale
        assert tangencies < 10  # generic pairs; tangency is measure zero
        for _ in range(300):
            pa, pb, _v = shared_vertex_pair(rng, collinear=True)
            sol = two_points(pa, pb)
            assert sol.m2 is None


def test_criterion_7_oracle_independence():
    with report("7 oracle agreement, 500 instances"):
        t0 = time.perf_counter()
        worst = 0.0
        # the grid cells a default search scores; the rest are descent evaluations
        grid = (OracleConfig().grid_resolution // 2 + 1) * COARSE_SIZE_STEPS
        evals = []
        for seed in range(500):
            poly, point = random_instance(70_000 + seed, (3, 8))
            res = search_second_polygon(poly, point)
            assert res.found, f"oracle missed instance seed={70_000 + seed}"
            evals.append(res.samples_evaluated - grid)
            r_in = poly.circumradius
            l_in = point.distance_to(poly.center)
            scale = max(r_in, l_in)
            # the swap relations emerge from the search unconstrained
            err = max(
                abs(res.polygon.circumradius - l_in),
                abs(point.distance_to(res.polygon.center) - r_in),
            )
            worst = max(worst, err / scale)
            assert err <= 1e-5 * scale
            sol = solve(distances_from(point, poly))
            expect_r = min(sol.smaller.circumradius, sol.larger.circumradius, key=lambda v: abs(v - l_in))
            assert abs(res.polygon.circumradius - expect_r) <= 1e-5 * scale
        elapsed = time.perf_counter() - t0
        print(f"  [oracle: {elapsed:.1f}s for 500 instances, worst rel err {worst:.2e}, "
              f"descent evaluations median {statistics.median(evals):g}, max {max(evals)}]")
        assert elapsed < 600.0, f"oracle suite took {elapsed:.1f}s"


#: The oracle's hard instance classes: center-distance/radius ratios l/r
#: close to the circumcircle, close to the center, and far outside it.
HARD_RATIOS = {
    "l/r = 1 +- 10^-3.3..10^-1":
        lambda rng: 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.3, -1.0),
    "l/r = 10^-4..10^-1": lambda rng: 10.0 ** rng.uniform(-4.0, -1.0),
    "l/r = 3..30": lambda rng: rng.uniform(3.0, 30.0),
}


#: sha256 over the ``_result_hex`` rows of the 1800 hard-class searches, one
#: ``repr((k, *row))`` line each, in the order the test draws them, so a
#: change to the search that moves one float of a find fails.
HARD_CLASSES_DIGEST = "3f4d48e94d5e1754e542fff1f8eb66063d0ad35098ea187c74d09f2bfe35c90a"


def test_criterion_7_oracle_hard_classes():
    with report("7 oracle agreement on hard classes, 1800 instances, 400 on the circle"):
        t0 = time.perf_counter()
        rng = random.Random(21)
        digest = hashlib.sha256()
        k = 0
        for label, draw_ratio in HARD_RATIOS.items():
            for n_range in ((3, 8), (13, 64)):
                for _ in range(300):
                    n = rng.randint(*n_range)
                    radius = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
                    dist = draw_ratio(rng) * radius
                    poly = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, rng.uniform(0.0, TWO_PI))
                    az = rng.uniform(0.0, TWO_PI)
                    point = Point2(dist * math.cos(az), dist * math.sin(az))
                    res = search_second_polygon(poly, point)
                    digest.update(repr((k, *_result_hex(res))).encode() + b"\n")
                    k += 1
                    where = (label, n_range, poly, point)
                    assert res.found, where
                    err = max(
                        abs(res.polygon.circumradius - dist),
                        abs(point.distance_to(res.polygon.center) - radius),
                    )
                    assert err <= AGREE_TOL * max(radius, dist), where
        assert digest.hexdigest() == HARD_CLASSES_DIGEST
        # on the circumcircle the companion is the polygon itself: nothing to find
        t1 = time.perf_counter()
        for n_range in ((3, 8), (13, 64)):
            for seed in range(200):
                poly, point = random_instance(60_000 + seed, n_range, degenerate_mode=True)
                res = search_second_polygon(poly, point)
                assert not res.found, (n_range, seed)
                # the descent lands on the input and its swapped twin is the input
                # too, so no polygon is reported
                assert res.polygon is None and res.residual == math.inf, (n_range, seed)
        t2 = time.perf_counter()
        print(f"  [oracle: {t2 - t0:.1f}s for 2200 hard instances, "
              f"{t2 - t1:.2f}s of them for 400 on the circle]")


def test_criterion_8_pompeiu_boundary():
    with report("8 triangle-inequality margin, 10^5 triples"):
        rng = np.random.default_rng(80808)
        for _ in range(100_000):
            radius = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            ratio = float(rng.uniform(0.05, 3.0))
            while abs(ratio - 1.0) < 1e-3:
                ratio = float(rng.uniform(0.05, 3.0))
            phase = float(rng.uniform(0.0, TWO_PI))
            az = float(rng.uniform(0.0, TWO_PI))
            poly = RegularPolygonSpec(3, Point2(0.0, 0.0), radius, phase)
            dist = ratio * radius
            point = Point2(dist * math.cos(az), dist * math.sin(az))
            d = distances_from(point, poly).values
            tri = pompeiu_from_distances(*d)
            margin = tri.weitzenbock_margin
            qsum = math.fsum(v * v for v in d)
            assert margin >= -1e-9 * qsum
            # equality is reserved for equal triples: a point clearly off
            # the center keeps the margin visibly positive
            assert margin > 1e-9 * qsum
        for _ in range(2000):
            side = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            assert pompeiu_from_distances(side, side, side).weitzenbock_margin == 0.0
        # degenerate triples land the solver on the circumcircle branch
        for seed in range(500):
            poly, point = random_instance(88_000 + seed, (3, 3), degenerate_mode=True)
            sol = solve(distances_from(point, poly))
            assert sol.discriminant <= 1e-9 * sol.mean_square**2


def _count_classes(svg_text):
    counts = {}
    for el in ET.fromstring(svg_text).iter():
        cls = el.get("class")
        if cls:
            counts[cls] = counts.get(cls, 0) + 1
    return counts


def test_criterion_9_cli_contract():
    with report("9 CLI contract"):
        square = "1,2.2360679774997896,2.2360679774997896,1"
        proc = subprocess.run(
            [sys.executable, "-m", "polydual.cli", "dual", "--distances", square],
            capture_output=True,
        )
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["larger"]["circumradius"] == pytest.approx(1.4142135623730951, rel=1e-12)
        assert out["larger"]["center_distance"] == pytest.approx(1.0, rel=1e-12)
        assert out["smaller"]["circumradius"] == pytest.approx(1.0, rel=1e-12)
        assert out["smaller"]["center_distance"] == pytest.approx(1.4142135623730951, rel=1e-12)
        assert out["consistency"]["passed"] is True

        proc = subprocess.run(
            [sys.executable, "-m", "polydual.cli", "pompeiu", "--distances", "3,5,7"],
            capture_output=True,
        )
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["side_larger"] == pytest.approx(8.0, rel=1e-12)
        assert out["side_smaller"] == pytest.approx(4.358898943540674, rel=1e-12)

        proc = subprocess.run(
            [sys.executable, "-m", "polydual.cli", "dual", "--distances", "1,1,5"],
            capture_output=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["code"] == "TRIANGLE_INEQUALITY"

        # SVG structural counts
        result, code = run(
            JobRequest(
                "render",
                {
                    "scene": "dual",
                    "polygon": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": math.pi / 4,
                    },
                    "point": {"x": 1, "y": 0},
                    "direction": 0.0,
                },
            )
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 2
        assert counts["construction-circle"] == 3
        assert counts["point-marker"] == 1

        result, code = run(
            JobRequest(
                "render",
                {
                    "scene": "two-points",
                    "polygon_a": {
                        "n": 4,
                        "center": {"x": 0, "y": 0},
                        "r": SQRT2,
                        "phase": math.pi / 4,
                    },
                    "polygon_b": {
                        "n": 4,
                        "center": {"x": 2, "y": 1},
                        "r": 1.0,
                        "phase": math.pi,
                    },
                },
            )
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 2
        assert counts["construction-circle"] == 2
        assert counts["point-marker"] == 2

        result, code = run(
            JobRequest("render", {"scene": "pompeiu", "distances": [3.0, 5.0, 7.0]})
        )
        assert code == 0
        counts = _count_classes(result["svg"])
        assert counts["polygon"] == 2
        assert counts["point-marker"] == 1
        assert counts["distance-segment"] == 6

        # byte determinism at the process level
        argv = [sys.executable, "-m", "polydual.cli", "dual", "--distances", square]
        a = subprocess.run(argv, capture_output=True)
        b = subprocess.run(argv, capture_output=True)
        assert a.stdout == b.stdout
