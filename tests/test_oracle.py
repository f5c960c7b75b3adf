import math

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
    _phase_tables,
    _pick_seeds,
    _residuals,
    _sorted_cosines,
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
        assert np.array_equal(_grid_scores(_sorted_cosines(psis, offsets), ells, radii, target), want)

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
            got = _grid_scores(_sorted_cosines(psis, offsets), ells, radii, target)
            mirrored = _grid_scores(_sorted_cosines(TWO_PI / n - psis, offsets), ells, radii, target)
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


class TestPhaseTables:
    def test_cached_tables_are_read_only(self):
        psis, cosang, dirs = _phase_tables(5, 64)
        with pytest.raises(ValueError):
            cosang[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            cosang += 1.0
        assert type(psis) is tuple and type(dirs) is tuple

    def test_cache_is_bounded(self):
        assert 0 < _phase_tables.cache_info().maxsize < 1_000

    @pytest.mark.parametrize(
        "cfg", [OracleConfig(), OracleConfig(grid_resolution=8, refine_iterations=1)]
    )
    def test_cold_cache_gives_the_warm_result(self, cfg):
        for n in range(3, 65):
            poly, point = random_instance(40_000 + n, (n, n))
            _phase_tables.cache_clear()
            cold = search_second_polygon(poly, point, cfg)
            assert _phase_tables.cache_info().misses == 1
            warm = search_second_polygon(poly, point, cfg)
            assert _phase_tables.cache_info().hits == 1
            assert _result_hex(warm) == _result_hex(cold), n


#: How the ``PINNED_RESULTS`` instances are drawn: kind -> (n_range, degenerate_mode).
PINNED_INSTANCES = {"pool": ((3, 8), False), "tail": ((13, 64), False), "circle": ((3, 12), True)}


def test_search_results_are_pinned():
    for kind, seed, grid, found, samples, residual, polygon in PINNED_RESULTS:
        n_range, degenerate = PINNED_INSTANCES[kind]
        poly, point = random_instance(seed, n_range, degenerate_mode=degenerate)
        cfg = OracleConfig() if grid == 64 else OracleConfig(grid_resolution=8, refine_iterations=1)
        res = search_second_polygon(poly, point, cfg)
        assert _result_hex(res) == (found, samples, residual, polygon), (kind, seed, grid)
        assert res.polygon is None or res.polygon.n == poly.n


def _result_hex(res):
    """An ``OracleResult`` with every float as ``float.hex()``, in ``PINNED_RESULTS`` order."""
    polygon = res.polygon
    if polygon is not None:
        polygon = tuple(
            v.hex() for v in (polygon.center.x, polygon.center.y, polygon.circumradius, polygon.phase)
        )
    return res.found, res.samples_evaluated, res.residual.hex(), polygon


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


#: Search results recorded before the grid's phase tables were cached, so any
#: float the set-up moves shows: the 20 pool instances, 10 with n 13-64 and 5 on
#: the circumcircle, at grid 64 and at ``OracleConfig(8, 1)``.  Each row is
#: (kind, seed, grid, found, samples_evaluated, residual, (center.x, center.y,
#: circumradius, phase) or None), every float as ``float.hex()``.
PINNED_RESULTS = [
    ("pool", 70000, 64, True, 4760, "0x1.a56d000000000p-36",
     ("0x1.1f10bfcb3d00ap+1", "-0x1.6c56beab5651cp-1", "0x1.c26f346696fadp+0", "0x1.7e08a33bbfd65p-3")),
    ("pool", 70001, 64, True, 4761, "0x1.4bab000000000p-38",
     ("0x1.0ce0bbc8e36e2p+0", "-0x1.2dd4f676d9823p-3", "0x1.73b63053e6080p-1", "0x1.b9f969a52ab65p-3")),
    ("pool", 70002, 64, True, 4756, "0x1.c843000000000p-35",
     ("0x1.f1545103311e0p+1", "0x1.8f9960e09bd7cp+0", "0x1.a5b2854bd8687p+0", "0x1.509b8b038183ap-2")),
    ("pool", 70003, 64, True, 4756, "0x1.4509400000000p-33",
     ("0x1.4ae51ed87e2f2p-2", "-0x1.8a5b3768f62ffp-6", "0x1.8ad21590790d6p-6", "0x1.b00183ee99d5dp-4")),
    ("pool", 70004, 64, True, 4756, "0x1.d7e5200000000p-35",
     ("0x1.b123e3ff1a2b4p-3", "-0x1.dca9960259fc5p-3", "0x1.0631979821fedp-2", "0x1.418b24da3008dp-1")),
    ("pool", 70005, 64, True, 4764, "0x1.8a67800000000p-38",
     ("0x1.f5f8266f3bb72p+0", "-0x1.0af32ad1fcb03p+0", "0x1.4472ce3ec81dbp+0", "0x1.d3ff76f03140ap-4")),
    ("pool", 70006, 64, True, 4756, "0x1.9e90000000000p-41",
     ("0x1.3d03407f87b8dp+0", "-0x1.42dc3ae875660p-2", "0x1.c58133ed5342cp-1", "0x1.353c6f6893d36p-2")),
    ("pool", 70007, 64, True, 4761, "0x1.aafc000000000p-35",
     ("0x1.16a1ca300d5eep+2", "-0x1.0c99afb09a3b5p+1", "0x1.b67cd9b31fcfep+1", "0x1.6917321974e48p-1")),
    ("pool", 70008, 64, True, 4756, "0x1.3e42800000000p-34",
     ("0x1.069d368208204p+2", "-0x1.6c9ce83c78b54p-3", "0x1.80b20bab8095ep-2", "0x1.40d532f44d209p-2")),
    ("pool", 70009, 64, True, 4757, "0x1.9800000000000p-46",
     ("-0x1.15aaa4dc9eef4p+0", "-0x1.8748460fdbe95p+1", "0x1.1498ef4e0d729p+3", "0x1.229887b2c14f9p-3")),
    ("pool", 70010, 64, True, 4756, "0x1.26e3300000000p-32",
     ("0x1.cf3d30317f6a0p+2", "-0x1.7d074deb164afp+1", "0x1.2c50767c8137ep+2", "0x1.d595653de74b2p-4")),
    ("pool", 70011, 64, True, 4756, "0x1.c611180000000p-37",
     ("0x1.43ee249f63e68p-6", "-0x1.0c8e4c330eec7p-3", "0x1.af01440c16fa9p-3", "0x1.0b34aca0af88ep+0")),
    ("pool", 70012, 64, True, 4756, "0x1.9c35000000000p-32",
     ("-0x1.e76697ade458cp+1", "0x1.6082670ad9db5p+2", "0x1.38704a75dd715p+3", "0x1.024229429755ep+0")),
    ("pool", 70013, 64, True, 4756, "0x1.35ac000000000p-34",
     ("0x1.84035df213c08p+1", "0x1.194d715c9d1e5p+3", "0x1.214c3013828cep+3", "0x1.332670e6f087bp-1")),
    ("pool", 70014, 64, True, 4760, "0x1.d25b940000000p-34",
     ("0x1.553e94c136c91p-2", "0x1.ed4946e669492p-3", "0x1.ef329e45e784ap-3", "0x1.4fd43b48a23cap-3")),
    ("pool", 70015, 64, True, 4757, "0x1.06ea000000000p-41",
     ("0x1.bf998a2574a48p-5", "0x1.ac4deb3c79eb1p-3", "0x1.0b910f3d8c667p-2", "0x1.cdfad4319b305p-5")),
    ("pool", 70016, 64, True, 4761, "0x1.3e66000000000p-33",
     ("-0x1.54a1b3e8929aap+1", "0x1.b0f8fc9b88e23p+3", "0x1.05716c07139b4p+4", "0x1.130fface174a5p-2")),
    ("pool", 70017, 64, True, 4756, "0x1.8b90000000000p-42",
     ("0x1.c92df8acb76c1p-3", "0x1.f2781364d14f5p-4", "0x1.7cfe63325917ep-3", "0x1.4551a8fce2d25p-2")),
    ("pool", 70018, 64, True, 4760, "0x1.4800000000000p-41",
     ("0x1.4b5b2ad8fe6d2p+1", "0x1.9518ceb66fd16p+0", "0x1.fc1fe3e2f84b0p+0", "0x1.206c595fe6d48p-1")),
    ("pool", 70019, 64, True, 4756, "0x1.35d8000000000p-36",
     ("0x1.b56f3faa51be6p-2", "0x1.5a857041cfd4fp+0", "0x1.6130ea1ec0a29p+0", "0x1.9d61246fa7097p-2")),
    ("tail", 5000, 64, True, 4760, "0x1.f000000000000p-43",
     ("0x1.0f83536706730p+0", "0x1.1cc7886f64de2p+0", "0x1.3d4d6bafb3b2dp+0", "0x1.eb630d1c2b8d6p-5")),
    ("tail", 5001, 64, True, 4756, "0x1.c900000000000p-42",
     ("0x1.c90c293fbf0adp+1", "-0x1.5d493af576be5p-1", "0x1.5fc1ede3bcf68p-1", "0x1.346cfc933f9ddp-7")),
    ("tail", 5002, 64, True, 4760, "0x1.16bdcc0000000p-30",
     ("0x1.525de79e393efp+1", "0x1.46c18b28e36f7p+1", "0x1.553cbc1a6a24cp+1", "0x1.21dd2290baae3p-7")),
    ("tail", 5003, 64, True, 4761, "0x1.f1f0000000000p-43",
     ("-0x1.e935d5366b25cp-5", "0x1.0bace30b8ee2ep-3", "0x1.18f835fcda244p-2", "0x1.9de684d01cf13p-4")),
    ("tail", 5004, 64, True, 4761, "0x1.7a80000000000p-43",
     ("0x1.4775abd6d19b3p+0", "0x1.5a4e34afc15b5p-3", "0x1.ae5af258eecf7p-2", "0x1.18431938a91c1p-5")),
    ("tail", 5005, 64, True, 4760, "0x1.47b2300000000p-33",
     ("0x1.e7ace123ad3cap+0", "-0x1.f0474f80963bdp-2", "0x1.c96435e65c849p-1", "0x1.922f66c2bbf91p-8")),
    ("tail", 5006, 64, True, 4760, "0x1.ad0e000000000p-39",
     ("-0x1.6e4f07755ecd0p-2", "0x1.b56ab975871f1p-3", "0x1.298baa7aa55bap+0", "0x1.3dd1ed212e704p-4")),
    ("tail", 5007, 64, True, 4756, "0x1.3200000000000p-48",
     ("0x1.10ac207f31c7ap-3", "0x1.861633ac7ca2bp-7", "0x1.1db811dc0774ap-5", "0x1.c0a22b75c2d15p-6")),
    ("tail", 5008, 64, True, 4760, "0x1.00e8000000000p-40",
     ("0x1.96b068b52a080p-1", "0x1.22feb12bf148cp-8", "0x1.18fe9ece45b76p-1", "0x1.403dfdd8128ebp-5")),
    ("tail", 5009, 64, True, 4761, "0x1.c500000000000p-41",
     ("-0x1.e195b730cab30p-1", "0x1.57f9d7812231bp+1", "0x1.0918624133007p+2", "0x1.15a7aa6c43ca9p-6")),
    ("circle", 0, 64, False, 4963, "inf",
     None),
    ("circle", 1, 64, False, 4967, "inf",
     None),
    ("circle", 2, 64, False, 4965, "inf",
     None),
    ("circle", 3, 64, False, 4969, "inf",
     None),
    ("circle", 4, 64, False, 4963, "inf",
     None),
    ("pool", 70000, 8, True, 729, "0x1.1398000000000p-34",
     ("0x1.1f10bfcb36a0ep+1", "-0x1.6c56beab5651cp-1", "0x1.c26f34669b651p+0", "0x1.7e08a33712ae2p-3")),
    ("pool", 70001, 8, True, 728, "0x1.ce2a800000000p-36",
     ("0x1.0ce0bbc8de1fcp+0", "-0x1.2dd4f676d9823p-3", "0x1.73b63053eb4b6p-1", "0x1.b9f969a7bd0b7p-3")),
    ("pool", 70002, 8, True, 724, "0x1.c843000000000p-35",
     ("0x1.f1545103311e0p+1", "0x1.8f9960e09bd7cp+0", "0x1.a5b2854bd8687p+0", "0x1.509b8b038183ap-2")),
    ("pool", 70003, 8, True, 725, "0x1.0ae0000000000p-43",
     ("0x1.4ae51ed87e004p-2", "-0x1.8a5b3768f62ffp-6", "0x1.8ad21590af388p-6", "0x1.b001859475f52p-4")),
    ("pool", 70004, 8, True, 724, "0x1.98bf400000000p-37",
     ("0x1.b123e40000de1p-3", "-0x1.dca9960259fc5p-3", "0x1.06319797c91a3p-2", "0x1.418b24dbafd77p-1")),
    ("pool", 70005, 8, True, 732, "0x1.2b45400000000p-35",
     ("0x1.f5f8266ee6447p+0", "-0x1.0af32ad1fcb03p+0", "0x1.4472ce3f1d912p+0", "0x1.d3ff76f02eceap-4")),
    ("pool", 70006, 8, True, 724, "0x1.7918000000000p-40",
     ("0x1.3d03407f87a60p+0", "-0x1.42dc3ae875660p-2", "0x1.c58133ed534fep-1", "0x1.353c6f68a623ap-2")),
    ("pool", 70007, 8, True, 728, "0x1.2513c00000000p-31",
     ("0x1.16a1ca3053f2ep+2", "-0x1.0c99afb09a3b5p+1", "0x1.b67cd9b254e80p+1", "0x1.6917321ad69f9p-1")),
    ("pool", 70008, 8, True, 724, "0x1.e9c8000000000p-33",
     ("0x1.069d36820823fp+2", "-0x1.6c9ce83c78b54p-3", "0x1.80b20bab7c96cp-2", "0x1.40d5330220c88p-2")),
    ("pool", 70009, 8, True, 730, "0x1.f424000000000p-38",
     ("-0x1.15aaa4dca3ed4p+0", "-0x1.8748460fdbe95p+1", "0x1.1498ef4e0e177p+3", "0x1.229887b2c034bp-3")),
    ("pool", 70010, 8, True, 724, "0x1.94b9c00000000p-32",
     ("0x1.cf3d30316dd1ap+2", "-0x1.7d074deb164afp+1", "0x1.2c50767c93b13p+2", "0x1.d595653d106b5p-4")),
    ("pool", 70011, 8, True, 724, "0x1.c611180000000p-37",
     ("0x1.43ee249f63e68p-6", "-0x1.0c8e4c330eec7p-3", "0x1.af01440c16fa9p-3", "0x1.0b34aca0af88ep+0")),
    ("pool", 70012, 8, True, 724, "0x1.d19d800000000p-32",
     ("-0x1.e76697ae18ec8p+1", "0x1.6082670ad9db5p+2", "0x1.38704a75e3908p+3", "0x1.02422943b7255p+0")),
    ("pool", 70013, 8, True, 724, "0x1.11da000000000p-35",
     ("0x1.84035df21aa0ap+1", "0x1.194d715c9d1e5p+3", "0x1.214c30138178dp+3", "0x1.332670e708a6ap-1")),
    ("pool", 70014, 8, True, 730, "0x1.4400000000000p-49",
     ("0x1.553e94bfbb0a0p-2", "0x1.ed4946e669492p-3", "0x1.ef329e48ea23cp-3", "0x1.4fd43b474a18fp-3")),
    ("pool", 70015, 8, True, 725, "0x1.e602000000000p-41",
     ("0x1.bf998a2564f08p-5", "0x1.ac4deb3c79eb1p-3", "0x1.0b910f3d8e51ap-2", "0x1.aeb24678a048dp-1")),
    ("pool", 70016, 8, True, 729, "0x1.3e66000000000p-33",
     ("-0x1.54a1b3e8929aap+1", "0x1.b0f8fc9b88e23p+3", "0x1.05716c07139b4p+4", "0x1.130fface174a5p-2")),
    ("pool", 70017, 8, True, 724, "0x1.133e000000000p-38",
     ("0x1.c92df8acba9e7p-3", "0x1.f2781364d14f5p-4", "0x1.7cfe633253021p-3", "0x1.4551a8fd378cfp-2")),
    ("pool", 70018, 8, True, 729, "0x1.5328000000000p-39",
     ("0x1.4b5b2ad8ff286p+1", "0x1.9518ceb66fd16p+0", "0x1.fc1fe3e2f6ee2p+0", "0x1.206c595fea89dp-1")),
    ("pool", 70019, 8, True, 724, "0x1.509c140000000p-30",
     ("0x1.b56f3f8a81768p-2", "0x1.5a857041cfd4fp+0", "0x1.6130ea233282fp+0", "0x1.9d612489220eep-2")),
    ("tail", 5000, 8, True, 729, "0x1.17a8000000000p-39",
     ("0x1.0f83536706402p+0", "0x1.1cc7886f64de2p+0", "0x1.3d4d6bafb3c59p+0", "0x1.eb630d1ca6c33p-5")),
    ("tail", 5001, 8, True, 724, "0x1.99a4000000000p-36",
     ("0x1.c90c293fbfc4dp+1", "-0x1.5d493af576be5p-1", "0x1.5fc1ede3b46dbp-1", "0x1.346cfc823b4d3p-7")),
    ("tail", 5002, 8, True, 728, "0x1.2af1580000000p-30",
     ("0x1.525de79e4def9p+1", "0x1.46c18b28e36f7p+1", "0x1.553cbc1a58fb8p+1", "0x1.21dd228b73b04p-7")),
    ("tail", 5003, 8, True, 728, "0x1.0dd8000000000p-41",
     ("-0x1.e935d5366e470p-5", "0x1.0bace30b8ee2ep-3", "0x1.18f835fcda73fp-2", "0x1.9de684d001c4ap-4")),
    ("tail", 5004, 8, True, 728, "0x1.5074000000000p-39",
     ("0x1.4775abd6d1c4dp+0", "0x1.5a4e34afc15b5p-3", "0x1.ae5af258ed9e6p-2", "0x1.18431937f59d0p-5")),
    ("tail", 5005, 8, True, 728, "0x1.0efd060000000p-31",
     ("0x1.e7ace12472a30p+0", "-0x1.f0474f80963bdp-2", "0x1.c96435e5036edp-1", "0x1.baca14612416cp-4")),
    ("tail", 5006, 8, True, 728, "0x1.a85b000000000p-38",
     ("-0x1.6e4f077564dbep-2", "0x1.b56ab975871f1p-3", "0x1.298baa7aa6b96p+0", "0x1.3dd1ed21563cap-4")),
    ("tail", 5007, 8, True, 724, "0x1.4ae0000000000p-44",
     ("0x1.10ac207f31ccdp-3", "0x1.861633ac7ca2bp-7", "0x1.1db811dc07338p-5", "0x1.c0a22b753c35bp-6")),
    ("tail", 5008, 8, True, 729, "0x1.45f0000000000p-39",
     ("0x1.96b068b52881ep-1", "0x1.22feb12bf148cp-8", "0x1.18fe9ece464f7p-1", "0x1.403dfdd75db54p-5")),
    ("tail", 5009, 8, True, 729, "0x1.5490000000000p-39",
     ("-0x1.e195b730cb19cp-1", "0x1.57f9d7812231bp+1", "0x1.091862413307bp+2", "0x1.15a7aa6c0d9afp-6")),
    ("circle", 0, 8, False, 951, "inf",
     None),
    ("circle", 1, 8, False, 951, "inf",
     None),
    ("circle", 2, 8, False, 941, "inf",
     None),
    ("circle", 3, 8, False, 953, "inf",
     None),
    ("circle", 4, 8, False, 941, "inf",
     None),
]
