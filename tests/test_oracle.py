import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydual.geometry import TWO_PI, Point2, RegularPolygonSpec, distances_from
from polydual.oracle import (
    COARSE_SIZE_STEPS,
    DESCENT_SEEDS,
    RATIO_EXCLUSION_HALF_WIDTH,
    OracleConfig,
    _grid_scores,
    _pick_seeds,
    _residuals,
    search_second_polygon,
    random_instance,
)

SQRT2 = math.sqrt(2.0)


class TestRandomInstance:
    def test_same_seed_same_instance(self):
        a = random_instance(1234, (3, 12))
        b = random_instance(1234, (3, 12))
        assert a == b

    def test_ratio_band_excluded(self):
        for seed in range(10_000):
            poly, point = random_instance(seed, (3, 6))
            ratio = point.distance_to(poly.center) / poly.circumradius
            assert abs(ratio - 1.0) >= RATIO_EXCLUSION_HALF_WIDTH

    def test_degenerate_mode_puts_point_on_circle(self):
        poly, point = random_instance(55, (3, 6), degenerate_mode=True)
        assert point.distance_to(poly.center) == pytest.approx(
            poly.circumradius, rel=1e-12
        )

    def test_range_respected(self):
        seen = set()
        for seed in range(200):
            poly, _ = random_instance(seed, (5, 7))
            seen.add(poly.n)
        assert seen == {5, 6, 7}

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            random_instance(1, (2, 5))


class TestSearch:
    def test_unit_square_instance(self):
        p = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        point = Point2(1.0, 0.0)
        res = search_second_polygon(p, point)
        assert res.found
        assert res.residual < 1e-6
        assert res.polygon is not None
        assert res.polygon.circumradius == pytest.approx(1.0, abs=1e-6)
        assert point.distance_to(res.polygon.center) == pytest.approx(SQRT2, abs=1e-6)
        assert res.samples_evaluated <= 1_000_000

    def test_on_circumcircle_finds_nothing(self):
        p = RegularPolygonSpec(4, Point2(0.0, 0.0), SQRT2, math.pi / 4)
        res = search_second_polygon(p, Point2(SQRT2, 0.0))
        assert not res.found

    def test_three_five_seven_triangle(self):
        from polydual.pompeiu import construct_both_triangles

        tp = construct_both_triangles(3.0, 5.0, 7.0)
        tri = tp.larger
        cx = sum(v.x for v in tri) / 3.0
        cy = sum(v.y for v in tri) / 3.0
        center = Point2(cx, cy)
        p = RegularPolygonSpec(
            3,
            center,
            center.distance_to(tri[0]),
            math.atan2(tri[0].y - cy, tri[0].x - cx),
        )
        res = search_second_polygon(p, tp.point)
        assert res.found
        side = res.polygon.circumradius * math.sqrt(3.0)
        assert side == pytest.approx(math.sqrt(19.0), rel=1e-5)

    def test_agreement_and_swap_emergence_small_batch(self):
        worst = 0.0
        for seed in range(40):
            poly, point = random_instance(9000 + seed, (3, 8))
            res = search_second_polygon(poly, point)
            assert res.found, f"seed {9000 + seed} not found"
            r_in = poly.circumradius
            l_in = point.distance_to(poly.center)
            scale = max(r_in, l_in)
            err = max(
                abs(res.polygon.circumradius - l_in),
                abs(point.distance_to(res.polygon.center) - r_in),
            )
            worst = max(worst, err / scale)
        assert worst <= 1e-5

    def test_bit_for_bit_determinism(self):
        poly, point = random_instance(321, (3, 8))
        a = search_second_polygon(poly, point)
        b = search_second_polygon(poly, point)
        assert a == b

    def test_rigid_motion_invariance(self):
        # the distance multiset is invariant under rotation about the point and
        # under translation, so the answer's sizes must not move either
        shift = Point2(3.25, -1.5)
        for k in range(20):
            poly, point = random_instance(70_000 + k, (3, 8))
            ref = search_second_polygon(poly, point)
            scale = max(poly.circumradius, point.distance_to(poly.center))
            for angle in (0.3, 1.7, 4.0):
                c, s = math.cos(angle), math.sin(angle)
                dx, dy = poly.center.x - point.x, poly.center.y - point.y
                moved_point = Point2(point.x + shift.x, point.y + shift.y)
                moved = RegularPolygonSpec(
                    poly.n,
                    Point2(moved_point.x + c * dx - s * dy, moved_point.y + s * dx + c * dy),
                    poly.circumradius,
                    poly.phase + angle,
                )
                res = search_second_polygon(moved, moved_point)
                assert res.found == ref.found
                assert abs(res.polygon.circumradius - ref.polygon.circumradius) <= 1e-12 * scale
                assert abs(
                    moved_point.distance_to(res.polygon.center)
                    - point.distance_to(ref.polygon.center)
                ) <= 1e-12 * scale

    def test_search_cost_is_bounded(self):
        for k in range(20):
            poly, point = random_instance(70_000 + k, (3, 8))
            res = search_second_polygon(poly, point)
            assert res.samples_evaluated <= 20_000, f"seed {70_000 + k}"

    @pytest.mark.parametrize(
        "cfg", [OracleConfig(), OracleConfig(grid_resolution=8, refine_iterations=1)]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_circumcircle_search_is_bounded(self, cfg, seed):
        # no non-congruent answer exists, so every descent ends congruent or
        # at its iteration cap, and all seeds and the swap fallback run
        poly, point = random_instance(seed, (3, 12), degenerate_mode=True)
        res = search_second_polygon(poly, point, cfg)
        assert res.found is False
        grid = (cfg.grid_resolution // 2 + 1) * COARSE_SIZE_STEPS**2
        assert res.samples_evaluated - grid <= 2_000

    @pytest.mark.parametrize("k", [-560, 660])
    def test_pool_search_is_scale_free(self, k):
        for j in range(20):
            _assert_search_scales_exactly(*random_instance(70_000 + j, (3, 8)), k)

    @settings(max_examples=40)
    @given(st.integers(0, 19), st.integers(-1000, 1000))
    def test_search_is_scale_free_at_any_binary_scale(self, j, k):
        _assert_search_scales_exactly(*random_instance(70_000 + j, (3, 8)), k)

    def test_zero_scale_instance(self):
        p = RegularPolygonSpec(4, Point2(1.0, 2.0), 0.0, 0.0)
        res = search_second_polygon(p, Point2(1.0, 2.0))
        assert not res.found
        assert res.polygon is None


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_resolution=4)
        for refine in (-1, 0):  # a search runs at least one descent level
            with pytest.raises(ValueError):
                OracleConfig(refine_iterations=refine)


@pytest.mark.parametrize(
    "flag",
    [
        ["--grid", "4"],
        ["--refine", "0"],
        ["--n-min", "2"],
        ["--n-min", "9", "--n-max", "8"],
        ["--instances", "-1"],
    ],
)
def test_agreement_script_reports_bad_config_as_usage_error(flag):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_oracle_agreement.py"), "--instances", "1", *flag],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


class TestKernels:
    """The fast kernels give the same floats as their plain full-sort forms."""

    @pytest.mark.parametrize("n", range(3, 65))
    @pytest.mark.parametrize("r_lo", [0.0, 0.7])
    def test_grid_scores_match_a_per_cell_sort(self, n, r_lo):
        rng = np.random.default_rng(600 + n)
        target = np.sort(rng.uniform(0.1, 3.0, n))
        psis = np.linspace(0.0, TWO_PI / n, 16, endpoint=False)
        ells = np.linspace(0.0, 2.0, 12)  # the first row is ell = 0
        radii = np.linspace(r_lo, 3.5, 12)
        offsets = TWO_PI * np.arange(n) / n
        ll = ells[None, :, None, None]
        rr = radii[None, None, :, None]
        cosang = np.cos(psis[:, None] + offsets)[:, None, None, :]
        d2 = ll * ll + rr * rr + 2.0 * ll * rr * cosang
        np.maximum(d2, 0.0, out=d2)
        diff = np.sort(np.sqrt(d2), axis=-1) - target
        want = np.zeros(diff.shape[:-1])
        for k in range(n):  # the vertices added left to right
            want += diff[..., k] * diff[..., k]
        assert np.array_equal(_grid_scores(psis, ells, radii, offsets, target), want)

    def test_grid_scores_are_mirror_symmetric(self):
        # reflecting a candidate in the line through the point and its center
        # maps phase psi to 2*pi/n - psi and keeps every distance
        rng = np.random.default_rng(603)
        for n in range(3, 65):
            target = np.sort(rng.uniform(0.1, 3.0, n))
            psis = rng.uniform(0.0, TWO_PI / n, 8)
            ells = np.r_[0.0, rng.uniform(0.0, 2.0, 6)]  # _grid_scores needs ells[0] == 0
            radii = rng.uniform(0.0, 3.5, 6)
            offsets = TWO_PI * np.arange(n) / n
            got = _grid_scores(psis, ells, radii, offsets, target)
            mirrored = _grid_scores(TWO_PI / n - psis, ells, radii, offsets, target)
            assert np.allclose(mirrored, got, rtol=1e-12, atol=0.0), n

    def test_seed_pick_matches_a_full_sort(self):
        rng = np.random.default_rng(604)
        steps = COARSE_SIZE_STEPS
        for trial in range(1_000):
            shape = (int(rng.integers(5, 34)), steps, steps)
            cells = np.indices(shape).reshape(3, -1).T
            if trial % 3 == 2:
                # interior cells 3 apart, so no two share a neighbour
                cells_ok = np.all((cells % 3 == 1) & (cells < np.array(shape) - 1), axis=1)
                pool = cells[cells_ok]
            else:
                pool = cells
            centers = pool[rng.choice(len(pool), DESCENT_SEEDS + 2, replace=False)]
            gap2 = ((cells[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
            if trial % 3 == 0:  # unstructured
                obj = rng.uniform(size=shape)
            elif trial % 3 == 1:  # smooth basins of random depth
                obj = (gap2 + rng.uniform(0.0, 20.0, len(centers))).min(axis=1).reshape(shape)
            else:  # all 26 neighbours of a basin come before the next basin
                depth = np.where(gap2 <= 3, 3.5 * np.arange(len(centers)) + gap2, 1e3)
                obj = depth.min(axis=1).reshape(shape)
            obj = obj + rng.uniform(0.0, 1e-3, shape)
            assert list(_pick_seeds(obj)) == _full_sort_pick(obj), trial

    def test_seed_pick_yields_the_best_cell_before_any_partition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("partitioned the grid")

        monkeypatch.setattr(np, "argpartition", refuse)
        rng = np.random.default_rng(605)
        for trial in range(300):
            shape = (int(rng.integers(5, 34)), COARSE_SIZE_STEPS, COARSE_SIZE_STEPS)
            if trial % 2:
                obj = rng.integers(0, 3, shape).astype(float)  # many tied best cells
            else:
                obj = rng.uniform(size=shape)
            seeds = _pick_seeds(obj)
            assert next(seeds) == _full_sort_pick(obj)[0], trial
            with pytest.raises(AssertionError, match="partitioned"):
                next(seeds)  # only a second seed needs the partition

    def test_residuals_match_sorted_hypot_differences(self):
        rng = np.random.default_rng(601)
        for _ in range(10_000):
            n = int(rng.integers(3, 13))
            dirs = _dirs(n)
            target = sorted(rng.uniform(0.0, 5.0, n).tolist())
            psi = float(rng.uniform(0.0, TWO_PI / n))
            ell, radius = (float(v) for v in rng.uniform(0.0, 3.0, 2))
            want = [u - v for u, v in zip(sorted(_distances(dirs, psi, ell, radius)), target)]
            got, _ = _residuals(dirs, target, psi, ell, radius)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(602)
        candidates = []
        for _ in range(2_000):
            n = int(rng.integers(3, 13))
            ell, radius = (float(v) for v in rng.uniform(0.1, 3.0, 2))
            candidates.append((n, float(rng.uniform(0.0, TWO_PI / n)), ell, radius))
        # at psi = 0 the vertices k and n - k lie at the same distance
        candidates += [(n, 0.0, ell, radius) for n in range(3, 13)
                       for ell, radius in ((0.4, 1.3), (2.2, 0.7), (1.0, 1.5))]
        h = 1e-6
        for n, psi, ell, radius in candidates:
            dirs = _dirs(n)
            base = _distances(dirs, psi, ell, radius)
            order = sorted(range(n), key=base.__getitem__)
            _, jac = _residuals(dirs, sorted(base), psi, ell, radius)
            for j in range(3):
                lo, hi = [psi, ell, radius], [psi, ell, radius]
                lo[j] -= h
                hi[j] += h
                plus, minus = _distances(dirs, *hi), _distances(dirs, *lo)
                # row k follows the vertex that sits at rank k
                for row, i in zip(jac, order):
                    fd = (plus[i] - minus[i]) / (2.0 * h)
                    assert abs(row[j] - fd) <= 1e-6 * max(abs(fd), 1.0), (n, psi, ell, radius, j)


def _assert_search_scales_exactly(poly, point, k):
    """The search on the instance scaled by 2**k finds 2**k times the sizes."""
    def scaled(q):
        return Point2(math.ldexp(q.x, k), math.ldexp(q.y, k))

    ref = search_second_polygon(poly, point)
    moved_point = scaled(point)
    res = search_second_polygon(
        RegularPolygonSpec(poly.n, scaled(poly.center), math.ldexp(poly.circumradius, k), poly.phase),
        moved_point,
    )
    assert ref.found and res.found, k
    assert res.samples_evaluated == ref.samples_evaluated
    assert res.polygon.circumradius == math.ldexp(ref.polygon.circumradius, k)
    assert moved_point.distance_to(res.polygon.center) == math.ldexp(
        point.distance_to(ref.polygon.center), k
    )


def _full_sort_pick(obj):
    """The seed pick over a full sort of the grid, for reference."""
    picked = []
    for idx in np.argsort(obj, axis=None, kind="stable").tolist():
        cell = np.unravel_index(idx, obj.shape)
        if all(max(abs(a - b) for a, b in zip(cell, other)) > 1 for other in picked):
            picked.append(cell)
            if len(picked) == DESCENT_SEEDS:
                break
    return [tuple(map(int, cell)) for cell in picked]


def _dirs(n):
    return [(math.cos(TWO_PI * k / n), math.sin(TWO_PI * k / n)) for k in range(n)]


def _distances(dirs, psi, ell, radius):
    """Each vertex's distance from the point, in vertex order."""
    c, s = math.cos(psi), math.sin(psi)
    return [math.hypot(ell + radius * (c * ck - s * sk), radius * (s * ck + c * sk))
            for ck, sk in dirs]
