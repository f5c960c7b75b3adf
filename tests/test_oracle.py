import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _result_hex
from polydual import oracle
from polydual.dual import polygons, solve
from polydual.geometry import TWO_PI, DistanceSpec, Point2, RegularPolygonSpec, distances_from
from polydual.oracle import (
    AGREE_TOL,
    COARSE_SIZE_STEPS,
    CONGRUENT_EXCLUSION_REL,
    MAX_GRID_RESOLUTION,
    RATIO_EXCLUSION_HALF_WIDTH,
    OracleConfig,
    _best_cell,
    _evaluate,
    _normal_equations,
    _phase_tables,
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
        # 12037 is the first seed whose first ratio draw lands in the band, so it is drawn again
        for seed in [*range(10_000), 12_037]:
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
        # the descent lands on the input and its swapped twin is the input too,
        # so no polygon is reported
        assert res.polygon is None and res.residual == math.inf

    def test_three_five_seven_triangle(self):
        # the distance triple's larger triangle, of side 8, about the origin
        p = polygons(solve(DistanceSpec((3.0, 5.0, 7.0))), 3)[0]
        res = search_second_polygon(p, Point2(0.0, 0.0))
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

    @pytest.mark.parametrize("draw_ratio", [
        lambda rng: 10.0 ** rng.uniform(-6.0, -4.0),  # the point next to the center
        lambda rng: rng.uniform(30.0, 300.0),  # the point far outside
    ], ids=["l/r=1e-6..1e-4", "l/r=30..300"])
    def test_classes_criterion_7_does_not_draw(self, draw_ratio):
        # the grid seeds the descent from the size box's far corners only, so check
        # ratios, vertex counts, scales and centers no acceptance set reaches
        rng = random.Random(31)
        for k in range(200):
            n = rng.randint(65, 256)
            radius = 10.0 ** rng.uniform(-3.0, 3.0)
            dist = draw_ratio(rng) * radius
            center = Point2(rng.uniform(-2.0, 2.0) * radius, rng.uniform(-2.0, 2.0) * radius)
            poly = RegularPolygonSpec(n, center, radius, rng.uniform(0.0, TWO_PI))
            az = rng.uniform(0.0, TWO_PI)
            point = Point2(center.x + dist * math.cos(az), center.y + dist * math.sin(az))
            res = search_second_polygon(poly, point)
            assert res.found, (k, poly, point)
            err = max(
                abs(res.polygon.circumradius - dist),
                abs(point.distance_to(res.polygon.center) - radius),
            )
            assert err <= AGREE_TOL * max(radius, dist), (k, poly, point)

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
            assert res.samples_evaluated <= _max_samples(OracleConfig()), f"seed {70_000 + k}"

    @pytest.mark.parametrize(
        "cfg", [OracleConfig(), OracleConfig(grid_resolution=8, refine_iterations=1)]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_circumcircle_search_is_bounded(self, cfg, seed):
        # no non-congruent answer exists, so the descent lands on the input
        # and its swapped twin is the input too
        poly, point = random_instance(seed, (3, 12), degenerate_mode=True)
        res = search_second_polygon(poly, point, cfg)
        assert res.found is False
        assert res.samples_evaluated <= _max_samples(cfg)

    @pytest.mark.parametrize("seeds, n_range, degenerate", [
        (range(70_000, 70_020), (3, 8), False),  # the benchmark pool
        (range(60_000, 60_200), (3, 8), True),  # criterion 7's points on the circumcircle
        (range(60_000, 60_200), (13, 64), True),
    ], ids=["pool", "circle-n3-8", "circle-n13-64"])
    def test_one_descent(self, monkeypatch, seeds, n_range, degenerate):
        # the best grid cell seeds the only descent; a landing on the input is
        # answered by its swapped twin, which scores the same
        landings = []

        def counted(*args):
            result = descent(*args)
            landings.append(result[0])
            return result

        descent = oracle._lm_descent
        monkeypatch.setattr(oracle, "_lm_descent", counted)
        swaps = 0
        for seed in seeds:
            poly, point = random_instance(seed, n_range, degenerate_mode=degenerate)
            exp = math.frexp(max(distances_from(point, poly).values))[1]
            r_in = math.ldexp(poly.circumradius, -exp)
            l_in = math.ldexp(point.distance_to(poly.center), -exp)
            near = CONGRUENT_EXCLUSION_REL * max(r_in, l_in)
            for cfg in (OracleConfig(), OracleConfig(16, 1)):
                landings.clear()
                res = search_second_polygon(poly, point, cfg)
                assert res.found is not degenerate
                assert len(landings) == 1, (seed, cfg, len(landings))
                psi, ell, radius = landings[0]
                on_input = max(abs(radius - r_in), abs(ell - l_in)) <= near
                swaps += on_input
                if degenerate:
                    assert on_input and res.polygon is None
                    continue
                if on_input:
                    ell, radius = radius, ell
                assert res.polygon.center == Point2(point.x + math.ldexp(ell, exp), point.y)
                assert res.polygon.circumradius == math.ldexp(radius, exp)
                assert res.polygon.phase == psi
        assert swaps > 0

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
        # the phase tables grow with the resolution, so it has a ceiling too
        assert OracleConfig(grid_resolution=MAX_GRID_RESOLUTION).grid_resolution == 1024
        with pytest.raises(ValueError, match="<= 1024"):
            OracleConfig(grid_resolution=MAX_GRID_RESOLUTION + 1)
        for refine in (-1, 0):  # a search runs at least one descent level
            with pytest.raises(ValueError):
                OracleConfig(refine_iterations=refine)


class TestKernels:
    """The grid's presorted kernel and the descent's evaluation give what their plain forms give."""

    @pytest.mark.parametrize("n", range(3, 65))
    @pytest.mark.parametrize("r_lo", [0.0, 0.7, 3.5])  # 3.5: every radius equal, so cells tie
    def test_grid_scores_match_a_per_cell_sort(self, n, r_lo):
        rng = random.Random(600 + n)
        target = sorted(rng.uniform(0.1, 3.0) for _ in range(n))
        psis, cosines, _ = _phase_tables(n, 16)
        radii = _linspace(r_lo, 3.5, 12)
        for ell in (0.1, 0.6, 1.3, 2.0):
            want = {}
            for p, psi in enumerate(psis):
                unsorted = [math.cos(psi + TWO_PI * k / n) for k in range(n)]
                for i, r in enumerate(radii):
                    d = []
                    for c in unsorted:
                        d2 = c * (2.0 * ell * r) + (ell * ell + r * r)
                        d.append(math.sqrt(max(d2, 0.0)))
                    f = 0.0
                    for u, t in zip(sorted(d), target):  # the vertices added left to right
                        f += (u - t) * (u - t)
                    want[p, i] = f
            # the scan's pick is the first minimum, lowest cell first among ties
            best = min((f, cell) for cell, f in want.items())
            assert _best_cell(cosines, ell, radii, target) == best[1], ell
            if r_lo == radii[-1]:
                assert sum(f == best[0] for f in want.values()) >= len(radii)

    def test_evaluation_is_mirror_symmetric(self):
        # reflecting a candidate in the line through the point and its center
        # maps phase psi to 2*pi/n - psi and keeps every distance, so the grid
        # need only scan half a period
        rng = random.Random(603)
        for n in range(3, 65):
            dirs = _dirs(n)
            target = sorted(rng.uniform(0.1, 3.0) for _ in range(n))
            for _ in range(8):
                psi = rng.uniform(0.0, TWO_PI / n)
                ell, radius = rng.uniform(0.0, 2.0), rng.uniform(0.0, 3.5)
                f = _evaluate(dirs, target, psi, ell, radius)[0]
                g = _evaluate(dirs, target, TWO_PI / n - psi, ell, radius)[0]
                assert g == pytest.approx(f, rel=1e-12, abs=0.0), (n, psi, ell, radius)

    def test_residuals_match_sorted_hypot_differences(self):
        rng = random.Random(601)
        for _ in range(10_000):
            n = rng.randint(3, 12)
            dirs = _dirs(n)
            target = sorted(rng.uniform(0.0, 5.0) for _ in range(n))
            psi = rng.uniform(0.0, TWO_PI / n)
            ell, radius = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
            ds = _distances(dirs, psi, ell, radius)
            f, verts = _evaluate(dirs, target, psi, ell, radius)
            assert [v[0] for v in verts] == sorted(ds)
            want = 0.0
            for u, t in zip(sorted(ds), target):  # the residuals' squares added left to right
                want += (u - t) * (u - t)
            assert f.hex() == want.hex()

    def test_jacobian_matches_central_differences(self):
        rng = random.Random(602)
        candidates = []
        for _ in range(2_000):
            n = rng.randint(3, 12)
            ell, radius = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            candidates.append((n, rng.uniform(0.0, TWO_PI / n), ell, radius))
        # at psi = 0 the vertices k and n - k lie at the same distance
        candidates += [(n, 0.0, ell, radius) for n in range(3, 13)
                       for ell, radius in ((0.4, 1.3), (2.2, 0.7), (1.0, 1.5))]
        h = 1e-6
        for n, psi, ell, radius in candidates:
            dirs = _dirs(n)
            base = _distances(dirs, psi, ell, radius)
            order = sorted(range(n), key=base.__getitem__)
            target = [base[i] - rng.uniform(-0.5, 0.5) for i in order]
            scale = rng.uniform(0.5, 1.0)
            # row k follows the vertex that sits at rank k, its phase column divided by scale
            rows = [[0.0] * 3 for _ in range(n)]
            for j in range(3):
                lo, hi = [psi, ell, radius], [psi, ell, radius]
                lo[j] -= h
                hi[j] += h
                plus, minus = _distances(dirs, *hi), _distances(dirs, *lo)
                for row, i in zip(rows, order):
                    row[j] = (plus[i] - minus[i]) / (2.0 * h) / (scale if j == 0 else 1.0)
            e = [base[i] - t for i, t in zip(order, target)]
            want = [sum(row[a] * row[b] for row in rows) for a, b in _UPPER]
            want += [sum(row[a] * ek for row, ek in zip(rows, e)) for a in range(3)]
            got = _normal_equations(_evaluate(dirs, target, psi, ell, radius)[1],
                                    target, ell, radius, scale)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-6 * max(abs(w), 1.0), (n, psi, ell, radius)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_evaluation_is_the_row_by_row_accumulation(self, n):
        # the reference builds every residual and Jacobian row of a candidate,
        # then sums them row by row; the kernel must give the same floats
        rng = random.Random(605 + n)
        _, _, dirs = _phase_tables(n, 8)
        # exact mirror directions: at psi = 0 the vertices k and n - k then tie
        # exactly, and index order decides which of them takes the lower rank
        mirror = dirs[:n // 2 + 1] + tuple((c, -s) for c, s in reversed(dirs[1:(n + 1) // 2]))
        ties = 0
        for dirs_used in (dirs, mirror):
            for k in range(40):
                psi = 0.0 if k % 4 == 0 else rng.uniform(0.0, TWO_PI / n)
                ell, radius = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
                if k % 8 == 1:
                    ell = 0.0  # centered on the point
                elif k % 8 == 5:
                    ell = radius = 0.0  # every distance 0, so every Jacobian row 0
                target = sorted(rng.uniform(0.0, 2.0) for _ in range(n))
                scale = target[-1]
                f, verts = _evaluate(dirs_used, target, psi, ell, radius)
                ties += psi == 0.0 and radius > 0.0 and len({v[0] for v in verts}) < n
                want_f, want_sums = _row_by_row(dirs_used, target, psi, ell, radius, scale)
                assert f.hex() == want_f.hex()
                got = _normal_equations(verts, target, ell, radius, scale)
                assert [v.hex() for v in got] == [v.hex() for v in want_sums], (psi, ell, radius)
        assert len(set(mirror)) == n and ties

    def test_a_rejected_trial_leaves_the_descent_where_it_was(self, monkeypatch):
        # from this start inside the size box of random_instance(70003, (3, 8)),
        # the descent proposes a trial that does not lower the objective
        poly, point = random_instance(70003, (3, 8))
        distances = sorted(distances_from(point, poly).values)
        exp = math.frexp(distances[-1])[1]
        target = [math.ldexp(v, -exp) for v in distances]
        ell_hi = math.fsum(target) / poly.n * (1.0 + 1e-9)
        r_bounds = (max(0.0, target[-1] - ell_hi), target[0] + ell_hi)
        evaluated, stepped_from = [], []
        evaluate, normal_equations = oracle._evaluate, oracle._normal_equations

        def logged_evaluate(dirs, target, *x):
            f, verts = evaluate(dirs, target, *x)
            evaluated.append((x, f))
            return f, verts

        def logged_normal_equations(verts, target, ell, radius, scale):
            stepped_from.append((ell, radius))
            return normal_equations(verts, target, ell, radius, scale)

        monkeypatch.setattr(oracle, "_evaluate", logged_evaluate)
        monkeypatch.setattr(oracle, "_normal_equations", logged_normal_equations)
        x, f, evals = oracle._lm_descent(
            _phase_tables(poly.n, 8)[2], target, (1.8008, 0.4319, 0.4458), (0.0, ell_hi),
            r_bounds, (1e-13 * target[-1]) ** 2, 60,
        )
        # replay the rule: a trial is taken only when it lowers the objective
        here, best = evaluated[0]
        accepted, rejected = [here], 0
        for trial, ft in evaluated[1:]:
            if ft < best:
                here, best = trial, ft
                accepted.append(here)
            else:
                rejected += 1
        assert rejected and evals == len(evaluated)
        assert (x, f) == (here, best) and f == min(ft for _, ft in evaluated)
        # each step starts from the start or a taken trial, never from a rejected one
        assert stepped_from == [(ell, radius) for _, ell, radius in accepted[:len(stepped_from)]]


class TestPhaseTables:
    def test_cached_tables_are_read_only(self):
        psis, cosines, dirs = _phase_tables(5, 64)
        for table in (psis, cosines, cosines[0], dirs, dirs[0]):
            assert type(table) is tuple
        with pytest.raises(TypeError):
            cosines[0][0] = 2.0  # type: ignore[index]
        assert cosines == _cosine_table(5, psis)

    def test_cache_is_bounded(self):
        assert 0 < _phase_tables.cache_info().maxsize < 1_000

    @pytest.mark.parametrize(
        "cfg", [OracleConfig(), OracleConfig(grid_resolution=64, refine_iterations=1)]
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


#: ``random_instance`` draws, every float as ``float.hex()``: (seed, n_range,
#: degenerate_mode, n, circumradius, phase, point.x, point.y).  The radius is
#: ``math.exp`` of a uniform draw and the point comes from ``math.cos`` and
#: ``math.sin``, so a libm that rounds those differently shows here first.
PINNED_INSTANCES = [
    (0, (3, 12), False, 9, "0x1.a3dfb15993ee5p+1", "0x1.a07766c4120e8p+0",
     "-0x1.0837531fee0adp+2", "-0x1.2bfae1ffd8223p-2"),
    (1234, (3, 12), False, 10, "0x1.5ec6e307bb877p-3", "0x1.7b04061c0a409p+2",
     "0x1.0b8095ef62ee1p-6", "-0x1.65563f2ded6c6p-5"),
    (70000, (3, 8), False, 7, "0x1.4a1e38e80131ap+2", "0x1.094b48b099476p+2",
     "-0x1.9f732f41733cfp+0", "-0x1.53c52c61acf3ep+2"),
    (70095, (3, 8), False, 7, "0x1.be83c15729473p+0", "0x1.f7ccd135a78eap-3",
     "0x1.9ddc97287c23dp+0", "0x1.4961bd700f385p-3"),
    (5000, (13, 64), False, 27, "0x1.142e58d9259a9p-1", "0x1.64857c403ea54p-1",
     "-0x1.0afbd9fd0db9dp-1", "0x1.7f89f4cd396afp-2"),
    (7, (3, 12), True, 8, "0x1.f765a7461e786p+2", "0x1.3d893083de7cfp+1",
     "0x1.e067f94059081p+2", "0x1.2cca129af6b7ap+1"),
]


def test_random_instances_are_pinned():
    for seed, n_range, degenerate, *want in PINNED_INSTANCES:
        poly, point = random_instance(seed, n_range, degenerate_mode=degenerate)
        assert poly.center == (0.0, 0.0)
        got = [poly.n, *(v.hex() for v in (poly.circumradius, poly.phase, point.x, point.y))]
        assert got == want, seed


#: Searches pinned as ``_result_hex``: (seed, n_range, degenerate_mode, config
#: or None for the default, found, samples_evaluated, residual, polygon).  The
#: 20 benchmark pool instances, n 13-64 and n 65-512 draws, six points on the
#: circumcircle (the descent lands on the input there and its swapped twin
#: is the input too, so nothing is reported) and four pool instances at a
#: finer grid.  Any change to the grid, the seed or the descent that moves
#: one float shows here.
PINNED_SEARCHES = [
    (70000, (3, 8), False, None, True, 17, "0x1.8140000000000p-41",
     ("0x1.c482da2f4807cp+1", "-0x1.53c52c61acf3ep+2",
      "0x1.634a524e39254p+2", "0x1.6d253b9e7ea03p-3")),
    (70001, (3, 8), False, None, True, 15, "0x1.4900000000000p-44",
     ("0x1.f81c2f4ccffbap-1", "-0x1.ddbc17e6c7c3cp-1",
      "0x1.1231f107e9601p+0", "0x1.0e180ec8346ebp-1")),
    (70002, (3, 8), False, None, True, 18, "0x1.0000000000000p-51",
     ("0x1.46121e621bf80p-3", "-0x1.92d2c08be3490p-1",
      "0x1.62005c55a15ffp+0", "0x1.1dd3ed0739955p-5")),
    (70003, (3, 8), False, None, True, 16, "0x1.0000000000000p-54",
     ("0x1.3dfa18b3927b4p-3", "-0x1.b12ed1d8e8bdcp-3",
      "0x1.b5712a12672d8p-3", "0x1.f0b3304cde2f2p-1")),
    (70004, (3, 8), False, None, True, 16, "0x1.0000000000000p-49",
     ("0x1.2d88517cc2281p+3", "-0x1.4881f3dc79869p-4",
      "0x1.9c909c8a01e76p-2", "0x1.7a18b76d69b9ap-2")),
    (70005, (3, 8), False, None, True, 16, "0x1.0000000000000p-49",
     ("-0x1.576c90794e1e4p+0", "-0x1.c47aed6b0e609p-2",
      "0x1.9d7a700c130bap+2", "0x1.4b3d187bfc374p-2")),
    (70006, (3, 8), False, None, True, 15, "0x1.0000000000000p-51",
     ("0x1.cf12f3697fd0bp+1", "0x1.6be580f31516dp-1",
      "0x1.1b5e9fc307278p+0", "0x1.1d82c99fdbd0fp-2")),
    (70007, (3, 8), False, None, True, 15, "0x1.e300000000000p-42",
     ("0x1.73c83f2cd03aep+0", "0x1.a7f8e585e8191p+2",
      "0x1.ba5e5481deb17p+2", "0x1.7e3640fc4d777p-3")),
    (70008, (3, 8), False, None, True, 15, "0x1.0000000000000p-54",
     ("0x1.2e0f1c1061dcep-2", "0x1.6f278901f18bdp-6",
      "0x1.a643ea1023c45p-5", "0x1.ba3738b8b244fp-2")),
    (70009, (3, 8), False, None, True, 15, "0x1.8000000000000p-49",
     ("0x1.60edd97fabcc6p+0", "-0x1.1a3374e73dc82p+1",
      "0x1.1be3052618fb6p+1", "0x1.8d212a60ddbcap+0")),
    (70010, (3, 8), False, None, True, 15, "0x1.5d00000000000p-41",
     ("-0x1.a243b544a6d60p-2", "-0x1.c90a258a42b62p+1",
      "0x1.44fd3ecb9ad71p+2", "0x1.76cc6f51da34dp-2")),
    (70011, (3, 8), False, None, True, 15, "0x1.0000000000000p-48",
     ("0x1.0377e955b66dap+2", "0x1.502930779afb1p+2",
      "0x1.64301871df187p+2", "0x1.5211111bcc2fcp-3")),
    (70012, (3, 8), False, None, True, 16, "0x1.0000000000000p-53",
     ("0x1.44ceb99f798c5p-1", "0x1.396aeafbee762p-6",
      "0x1.c268db6713271p-3", "0x1.52afd1eb7e9eap-1")),
    (70013, (3, 8), False, None, True, 16, "0x1.0000000000000p-48",
     ("0x1.d798228fdbb80p+2", "0x1.0b0752217efbep+0",
      "0x1.5735a19f229a8p+0", "0x1.c149814d87776p-1")),
    (70014, (3, 8), False, None, True, 15, "0x1.0000000000000p-48",
     ("0x1.690b5b08c972ep+3", "0x1.b814a59a1bb2ap+3",
      "0x1.df238dedc9430p+3", "0x1.43344a271f3c0p-6")),
    (70015, (3, 8), False, None, True, 15, "0x1.d000000000000p-50",
     ("0x1.08708e7a0bf02p-2", "0x1.da217a43e2cc6p-3",
      "0x1.1a568d81951ddp-2", "0x1.94c319d249980p-1")),
    (70016, (3, 8), False, None, True, 15, "0x1.0000000000000p-51",
     ("-0x1.85f75758c1448p-3", "0x1.de267f10e1074p+1",
      "0x1.0293b76552ccep+2", "0x1.09277c2570973p-2")),
    (70017, (3, 8), False, None, True, 16, "0x1.a000000000000p-48",
     ("0x1.3af9d3fa84a3ep-2", "0x1.98876a6d6c4acp-3",
      "0x1.a6c23c2e69b53p-3", "0x1.be8f7bfaf1cbdp-3")),
    (70018, (3, 8), False, None, True, 15, "0x1.0000000000000p-51",
     ("-0x1.648e478d6bca9p-1", "0x1.8a1f9ddd869acp+0",
      "0x1.1ff6bf89f6ca5p+1", "0x1.f978c9d38b997p-2")),
    (70019, (3, 8), False, None, True, 15, "0x1.9320000000000p-41",
     ("0x1.5b21f23aa5f0bp+2", "-0x1.39ebeb5f2d7abp+2",
      "0x1.435dbb8e9a361p+2", "0x1.09988d0726a0bp-3")),
    (5000, (13, 64), False, None, True, 16, "0x1.8000000000000p-52",
     ("0x1.264fdb82fc180p-6", "0x1.7f89f4cd396afp-2",
      "0x1.48b7f119bf5dcp-1", "0x1.3b90bc430da08p-4")),
    (5001, (13, 64), False, None, True, 16, "0x1.0000000000000p-51",
     ("-0x1.42830f8595ed0p-4", "-0x1.398f83c71d042p-3",
      "0x1.f76fbc53c5832p-2", "0x1.4568191217dd4p-5")),
    (5002, (13, 64), False, None, True, 15, "0x1.8000000000000p-47",
     ("0x1.6ab3d6864904ap+3", "-0x1.8be92018b014bp+4",
      "0x1.8cf84b9450fc4p+4", "0x1.1f353c52da1d3p-6")),
    (5003, (13, 64), False, None, True, 16, "0x1.0000000000000p-48",
     ("-0x1.1908a3fcf56e0p-2", "-0x1.e52db0ba5ae37p+0",
      "0x1.09abdae45d1ebp+2", "0x1.37b9cc14e55c2p-3")),
    (5004, (13, 64), False, None, True, 20, "0x1.5000000000000p-47",
     ("-0x1.a4fb403e7ae00p-6", "0x1.bda711fffe033p-2",
      "0x1.8ea318fb893ecp+2", "0x1.5344aed8198e6p-5")),
    (5005, (13, 64), False, None, True, 15, "0x1.6000000000000p-52",
     ("0x1.bcfd4cb6d2476p-3", "0x1.398eccf8f5ad6p-3",
      "0x1.3cae347783b26p-3", "0x1.cb32a6bd320d3p-4")),
    (5006, (13, 64), False, None, True, 15, "0x1.0000000000000p-47",
     ("0x1.bd31ba16c148bp+4", "0x1.45828a2c57cc9p+3",
      "0x1.486208295aea9p+4", "0x1.88bac7e640c38p-4")),
    (5007, (13, 64), False, None, True, 15, "0x1.0000000000000p-51",
     ("-0x1.e6640c9ae3f93p-1", "-0x1.ad54da62719e4p-4",
      "0x1.715a96e696ce7p+0", "0x1.7477433487481p-4")),
    (5008, (13, 64), False, None, True, 15, "0x1.0000000000000p-49",
     ("0x1.dba4c12a57eaap+1", "-0x1.1ab35d64aa5b6p+1",
      "0x1.94c6a081357f3p+1", "0x1.ac39cf7acda47p-4")),
    (5009, (13, 64), False, None, True, 15, "0x1.8000000000000p-48",
     ("0x1.deaf9b0c0692fp-3", "0x1.ec669d35d0142p-3",
      "0x1.3b43d1bb30601p-2", "0x1.ca7a0e3110025p-6")),
    (9000, (65, 512), False, None, True, 14, "0x1.7800000000000p-47",
     ("0x1.ab00078f5acfep+0", "-0x1.7b4b63e11d10ep-1",
      "0x1.68a8f371444d5p+0", "0x1.6dbbcf99db003p-9")),
    (9001, (65, 512), False, None, True, 14, "0x1.4000000000000p-48",
     ("0x1.be913e0c15a6fp-2", "-0x1.30ad0f14d9a7cp-4",
      "0x1.50607fe276329p-4", "0x1.6b215c74444eep-6")),
    (9002, (65, 512), False, None, True, 15, "0x1.4000000000000p-49",
     ("0x1.97ad89e1dc49cp+0", "-0x1.d85e12ec6600ap+1",
      "0x1.dac5ea88de918p+1", "0x1.c6f2d01bcd30ap-7")),
    (0, (3, 12), True, None, False, 32, "inf", None),
    (1, (3, 12), True, None, False, 32, "inf", None),
    (2, (3, 12), True, None, False, 31, "inf", None),
    (3, (3, 12), True, None, False, 32, "inf", None),
    (4, (3, 12), True, None, False, 32, "inf", None),
    (5, (3, 12), True, None, False, 31, "inf", None),
    (70000, (3, 8), False, (16, 1), True, 25, "0x1.8140000000000p-41",
     ("0x1.c482da2f4807cp+1", "-0x1.53c52c61acf3ep+2",
      "0x1.634a524e39254p+2", "0x1.6d253b9e7ea03p-3")),
    (70001, (3, 8), False, (16, 1), True, 23, "0x1.e000000000000p-49",
     ("0x1.f81c2f4cd003cp-1", "-0x1.ddbc17e6c7c3cp-1",
      "0x1.1231f107e95e3p+0", "0x1.0e180ec834bb8p-1")),
    (70002, (3, 8), False, (16, 1), True, 26, "0x1.0000000000000p-51",
     ("0x1.46121e621bf88p-3", "-0x1.92d2c08be3490p-1",
      "0x1.62005c55a15fep+0", "0x1.1dd3ed0739959p-5")),
    (70003, (3, 8), False, (16, 1), True, 24, "0x1.0000000000000p-54",
     ("0x1.3dfa18b3927b4p-3", "-0x1.b12ed1d8e8bdcp-3",
      "0x1.b5712a12672d8p-3", "0x1.f0b3304cde2f2p-1")),
]


@pytest.mark.parametrize(
    "row", PINNED_SEARCHES, ids=lambda row: f"{row[0]}-{row[1][0]}-{row[2]}-{row[3]}"
)
def test_searches_are_pinned(row):
    seed, n_range, degenerate, cfg, *want = row
    poly, point = random_instance(seed, n_range, degenerate_mode=degenerate)
    res = search_second_polygon(poly, point, OracleConfig() if cfg is None else OracleConfig(*cfg))
    assert list(_result_hex(res)) == want


#: sha256 over the ``_result_hex`` rows, one ``repr((seed, *row))`` line each, of
#: the three sets ``polydual verify`` runs in CI at the defaults: (first seed,
#: instances, n_range, digest), so a change to the search that moves one float
#: fails.
PINNED_DIGESTS = [
    (70000, 500, (3, 8), "4eafca5a54f02570ca2b0c8158507d521685b39d8b42ee6a68cd82ea88e3ce22"),
    (5000, 300, (13, 64), "6b5ca96151122543244607d19b5005d5442460631f5f55a958bb740fa14142f6"),
    (9000, 100, (65, 512), "2d21f95484c1566b1efd2540179c955bca3f0280bca2427b4fdbfd70530094a5"),
]


@pytest.mark.parametrize("seed, instances, n_range, digest", PINNED_DIGESTS,
                         ids=[f"{row[0]}-n{row[2][0]}-{row[2][1]}" for row in PINNED_DIGESTS])
def test_search_sets_are_pinned(seed, instances, n_range, digest):
    h = hashlib.sha256()
    for s in range(seed, seed + instances):
        res = search_second_polygon(*random_instance(s, n_range))
        h.update(repr((s, *_result_hex(res))).encode() + b"\n")
    assert h.hexdigest() == digest


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


def _max_samples(cfg):
    """The grid's cells, then one descent's first evaluation and one per iteration."""
    return (cfg.grid_resolution // 2 + 1) * COARSE_SIZE_STEPS + 1 + 20 * cfg.refine_iterations


def _linspace(lo, hi, steps):
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _cosine_table(n, psis):
    """cos(psi + 2*pi*k/n) over the vertices k, sorted, for each phase."""
    return tuple(tuple(sorted(math.cos(psi + TWO_PI * k / n) for k in range(n))) for psi in psis)


def _dirs(n):
    return [(math.cos(TWO_PI * k / n), math.sin(TWO_PI * k / n)) for k in range(n)]


def _distances(dirs, psi, ell, radius):
    """Each vertex's distance from the point, in vertex order."""
    c, s = math.cos(psi), math.sin(psi)
    return [math.hypot(ell + radius * (c * ck - s * sk), radius * (s * ck + c * sk))
            for ck, sk in dirs]


#: The upper triangle of J^T J in the order the normal equations list it.
_UPPER = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _row_by_row(dirs, target, psi, ell, radius, scale):
    """The objective and the nine normal-equation sums, each row built and stored first."""
    c = math.cos(psi)
    s = math.sin(psi)
    phis = [(c * ck - s * sk, s * ck + c * sk) for ck, sk in dirs]
    ds = [math.hypot(ell + radius * cos_phi, radius * sin_phi) for cos_phi, sin_phi in phis]
    order = sorted(range(len(ds)), key=ds.__getitem__)
    rows = []
    for i in order:
        cos_phi, sin_phi = phis[i]
        d = ds[i]
        inv = 1.0 / d if d > 0.0 else 0.0
        rows.append((
            -ell * radius * sin_phi * inv,
            (ell + radius * cos_phi) * inv,
            (radius + ell * cos_phi) * inv,
        ))
    e = [ds[i] - t for i, t in zip(order, target)]
    f = 0.0
    for ek in e:
        f += ek * ek
    a00 = a01 = a02 = a11 = a12 = a22 = g0 = g1 = g2 = 0.0
    for (j0, j1, j2), ek in zip(rows, e):
        j0 /= scale
        a00 += j0 * j0
        a01 += j0 * j1
        a02 += j0 * j2
        a11 += j1 * j1
        a12 += j1 * j2
        a22 += j2 * j2
        g0 += j0 * ek
        g1 += j1 * ek
        g2 += j2 * ek
    return f, (a00, a01, a02, a11, a12, a22, g0, g1, g2)
