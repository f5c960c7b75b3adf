"""Closed-form-free search for a second polygon with matching distances.

This is the trust anchor for the algebraic solver: candidates are scored
purely by the gap between sorted distance lists, scanned on a coarse grid
and polished by deterministic pattern descent, with the input's own
parameter pair excluded from the answers.  Nothing here consumes the
solver or the reconstruction code; only the geometric primitives are
used.

A rotation of a candidate polygon about the query point leaves its
distances unchanged, so the search runs in the quotient by those
rotations: a candidate is parameterized by its center distance, its
circumradius and its phase relative to the direction of its center, and
the center is placed on the horizontal through the point.  The distance
multiset repeats every 2*pi/n in that phase, so the phase covers one
period; the sorted-distance objective is also exactly symmetric under
swapping radius and center distance, which is why every descent seed is
paired with its swapped twin (this exploits a symmetry of the candidate
parameterization, not of the expected answer).  Only these isometries
about the point are used, none of the solver's algebra.

The grid needs no per-cell sort: a vertex's squared distance
ell^2 + r^2 + 2*ell*r*cos(angle) is non-decreasing in the cosine because
ell, r >= 0, and every rounded step after it (the product, the sum, the
clamp at 0, the square root) is monotone too.  So the n cosines are
sorted once per phase, and every cell's distances come out sorted: the
same floats a per-cell sort gives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .geometry import TWO_PI, Point2, RegularPolygonSpec, distances_from

#: Half-width of the excluded band of center-distance/radius ratios
#: around 1 in random instances (total width 1e-3).
RATIO_EXCLUSION_HALF_WIDTH = 5e-4

#: Relative size of the ball around the input parameters treated as
#: congruent and excluded from answers.  Must stay below the random
#: instances' ratio exclusion band so the genuine second polygon is
#: never excluded by accident.
CONGRUENT_EXCLUSION_REL = 2e-4

#: Coarse samples per size dimension at every grid phase.
COARSE_SIZE_STEPS = 12

#: Number of grid cells seeding the descent stage.
DESCENT_SEEDS = 8

#: A candidate is a find when its worst sorted-distance gap is below
#: this fraction of the largest target distance.
FIND_TOL = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """Search controls.

    ``grid_resolution`` is the number of phase samples per period 2*pi/n
    in the grid stage, each scored against a fixed coarse grid of center
    distances and radii.  ``refine_iterations``, at least 1, is the number
    of descent levels per seed, each from a tenfold smaller step; the seed
    loop stops at the first non-congruent descent that reaches the
    stopping objective.  Whether the result is a find is judged against
    the fixed ``FIND_TOL``.
    """

    grid_resolution: int = 64
    refine_iterations: int = 3

    def __post_init__(self) -> None:
        if self.grid_resolution < 8:
            raise ValueError("grid_resolution must be >= 8")
        if self.refine_iterations < 1:
            raise ValueError("refine_iterations must be >= 1")


@dataclass(frozen=True)
class OracleResult:
    found: bool
    polygon: Optional[RegularPolygonSpec]
    residual: float
    samples_evaluated: int


def random_instance(
    seed: int,
    n_range: tuple[int, int] = (3, 12),
    *,
    degenerate_mode: bool = False,
) -> tuple[RegularPolygonSpec, Point2]:
    """Deterministic random polygon/point configuration.

    The vertex count is uniform over the range, the circumradius
    log-uniform in [0.1, 10], the point's center-distance/radius ratio
    uniform in [0, 3] minus a narrow band around 1 (so the point never
    accidentally sits on the circumcircle), and the phase and point
    azimuth uniform.  ``degenerate_mode`` pins the ratio to exactly 1
    instead.
    """
    lo, hi = n_range
    if not 3 <= lo <= hi:
        raise ValueError(f"invalid vertex-count range {n_range}")
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi + 1))
    radius = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    if degenerate_mode:
        ratio = 1.0
    else:
        ratio = float(rng.uniform(0.0, 3.0))
        while abs(ratio - 1.0) < RATIO_EXCLUSION_HALF_WIDTH:
            ratio = float(rng.uniform(0.0, 3.0))
    phase = float(rng.uniform(0.0, TWO_PI))
    point_azimuth = float(rng.uniform(0.0, TWO_PI))
    dist = ratio * radius
    polygon = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, phase)
    point = Point2(dist * math.cos(point_azimuth), dist * math.sin(point_azimuth))
    return polygon, point


def _objective(
    dirs: list[tuple[float, float]],
    target: list[float],
    psi: float,
    ell: float,
    radius: float,
) -> float:
    c = math.cos(psi)
    s = math.sin(psi)
    ds = [math.hypot(ell + radius * (c * ck - s * sk), radius * (s * ck + c * sk)) for ck, sk in dirs]
    ds.sort()
    e = list(map(operator.sub, ds, target))
    return sum(map(operator.mul, e, e))


def _grid_scores(
    psis: np.ndarray,
    ells: np.ndarray,
    radii: np.ndarray,
    vertex_offsets: np.ndarray,
    target_arr: np.ndarray,
) -> np.ndarray:
    """Sorted-distance objective of every (psi, ell, radius) cell, shape (psi, ell, radius).

    Vertex k of a candidate sits at ell + r*exp(i*(psi + vertex_offsets[k]))
    seen from the point; the cosines are sorted once per phase (see the
    module docstring), so each cell's distances need no sort of their own.
    """
    cosang = np.sort(np.cos(psis[:, None] + vertex_offsets), axis=-1)
    ll = ells[None, :, None, None]
    rr = radii[None, None, :, None]
    d = 2.0 * ll * rr * cosang[:, None, None, :]
    d += ll * ll + rr * rr
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    d -= target_arr
    return np.einsum("plrk,plrk->plr", d, d)


def _pattern_descent(
    dirs: list[tuple[float, float]],
    target: list[float],
    start: tuple[float, float, float],
    steps: tuple[float, float, float],
    bounds_ell: tuple[float, float],
    bounds_r: tuple[float, float],
    stop_step: float,
    stop_objective: float,
    budget: int = 20000,
) -> tuple[tuple[float, float, float], float, int]:
    """Compass search over (psi, ell, radius); the phase wraps, sizes clip.

    Besides the three axis probe pairs, each sweep tries the two diagonal
    moves that trade center distance against radius; near-equal parameter
    pairs form a narrow curved valley in exactly that direction and
    axis-only search stalls there.
    """
    x = start
    f = _objective(dirs, target, *x)
    evals = 1
    step_psi, step_ell, step_r = steps
    psi_period = TWO_PI / len(dirs)
    while f > stop_objective and max(step_ell, step_r) > stop_step and evals < budget:
        h = min(step_ell, step_r)
        moves = (
            (step_psi, 0.0, 0.0),
            (-step_psi, 0.0, 0.0),
            (0.0, step_ell, 0.0),
            (0.0, -step_ell, 0.0),
            (0.0, 0.0, step_r),
            (0.0, 0.0, -step_r),
            (0.0, h, -h),
            (0.0, -h, h),
        )
        for d_psi, d_ell, d_r in moves:
            trial = (
                (x[0] + d_psi) % psi_period,
                min(max(x[1] + d_ell, bounds_ell[0]), bounds_ell[1]),
                min(max(x[2] + d_r, bounds_r[0]), bounds_r[1]),
            )
            ft = _objective(dirs, target, *trial)
            evals += 1
            if ft < f:
                x, f = trial, ft
                break
        else:
            step_psi, step_ell, step_r = 0.5 * step_psi, 0.5 * step_ell, 0.5 * step_r
    return x, f, evals


def search_second_polygon(
    p: RegularPolygonSpec,
    point: Point2,
    cfg: OracleConfig = OracleConfig(),
) -> OracleResult:
    """Best non-congruent polygon matching the distance multiset.

    The search runs in the rotation quotient: every candidate has its
    center at ``point + (ell, 0)`` and its phase ``psi`` in one period
    [0, 2*pi/n), which reaches every distance multiset a regular n-gon can
    produce.  The returned polygon is therefore placed on the horizontal
    through the point; any rotation of it about the point is an equally
    good answer.

    Grid stage: one vectorized pass scores ``grid_resolution`` phases
    against a coarse grid of center distances and radii; the size bounds
    come from plain geometry (the center is the vertex centroid, so its
    distance from the point is at most the mean target distance).
    Descent stage: the best separated cells, plus their
    radius/center-distance swapped twins, seed compass searches in turn;
    results inside the congruent exclusion ball around the input
    parameters are discarded, and the seed loop stops at the first
    non-congruent descent that reaches the stopping objective.
    """
    n = p.n
    target_arr = np.sort(np.asarray(distances_from(point, p).values, dtype=float))
    scale = float(target_arr[-1])
    if scale <= 0.0:
        return OracleResult(False, None, math.inf, 0)
    target = [float(v) for v in target_arr]
    r_in = p.circumradius
    l_in = point.distance_to(p.center)
    param_scale = max(r_in, l_in)
    mean_d = float(target_arr.mean())
    min_d = float(target_arr[0])

    ell_hi = mean_d * (1.0 + 1e-9)
    r_lo = max(0.0, scale - ell_hi)
    # realizable inputs always give r_lo <= r_hi; keep the grid sane otherwise
    r_hi = max(min_d + ell_hi, r_lo)

    res = cfg.grid_resolution
    psi_period = TWO_PI / n
    psis = np.linspace(0.0, psi_period, res, endpoint=False)
    ells = np.linspace(0.0, ell_hi, COARSE_SIZE_STEPS)
    radii = np.linspace(r_lo, r_hi, COARSE_SIZE_STEPS)
    vertex_offsets = TWO_PI * np.arange(n) / n
    dirs = [(math.cos(a), math.sin(a)) for a in vertex_offsets.tolist()]

    obj = _grid_scores(psis, ells, radii, vertex_offsets, target_arr)
    samples = obj.size

    # greedy pick of well-separated cells so the seeds cover distinct basins
    picked: list[tuple[int, int, int]] = []
    for idx in map(int, np.argsort(obj, axis=None)):
        pi_, cell = divmod(idx, COARSE_SIZE_STEPS * COARSE_SIZE_STEPS)
        li_, ri_ = divmod(cell, COARSE_SIZE_STEPS)
        for pj, lj, rj in picked:
            d_psi = min(abs(pi_ - pj), res - abs(pi_ - pj))
            if d_psi <= 1 and abs(li_ - lj) <= 1 and abs(ri_ - rj) <= 1:
                break
        else:
            picked.append((pi_, li_, ri_))
            if len(picked) >= DESCENT_SEEDS:
                break

    psi_step = psi_period / res
    ell_step = ell_hi / (COARSE_SIZE_STEPS - 1)
    r_step = (r_hi - r_lo) / (COARSE_SIZE_STEPS - 1) or ell_step
    stop_step = 1e-13 * max(scale, 1e-30)
    stop_objective = (1e-9 * scale) ** 2

    def swapped(x: tuple[float, float, float]) -> tuple[float, float, float]:
        # same objective value by the radius/center-distance symmetry
        return (x[0], min(max(x[2], 0.0), ell_hi), min(max(x[1], r_lo), r_hi))

    seeds = []
    for pi_, li_, ri_ in picked:
        base = (float(psis[pi_]), float(ells[li_]), float(radii[ri_]))
        seeds += [base, swapped(base)]

    exclusion_radius = CONGRUENT_EXCLUSION_REL * max(param_scale, 1e-30)

    def is_congruent(x: tuple[float, float, float]) -> bool:
        return max(abs(x[2] - r_in), abs(x[1] - l_in)) <= exclusion_radius

    best_excluded: tuple[float, Optional[tuple[float, float, float]]] = (math.inf, None)
    best_kept: tuple[float, Optional[tuple[float, float, float]]] = (math.inf, None)
    for seed_x in seeds:
        x = seed_x
        for level in range(cfg.refine_iterations):
            shrink = 10.0**level
            x, f, ev = _pattern_descent(
                dirs,
                target,
                x,
                (psi_step / shrink, ell_step / shrink, r_step / shrink),
                (0.0, ell_hi),
                (r_lo, r_hi),
                stop_step,
                stop_objective,
            )
            samples += ev
            if f <= stop_objective:
                break
        if is_congruent(x):
            if f < best_excluded[0]:
                best_excluded = (f, x)
        elif f < best_kept[0]:
            best_kept = (f, x)
            if f <= stop_objective:
                break

    if best_excluded[1] is not None and best_excluded[0] < best_kept[0]:
        # swap the best congruent result; by the objective's exact symmetry
        # the swapped point scores identically and sits in the other basin,
        # so a fine-stepped descent refines the non-congruent twin
        xe = best_excluded[1]
        h = max(0.25 * abs(xe[1] - xe[2]), 10.0 * stop_step)
        x, f, ev = _pattern_descent(
            dirs,
            target,
            swapped(xe),
            (psi_step / 100.0, h, h),
            (0.0, ell_hi),
            (r_lo, r_hi),
            stop_step,
            stop_objective,
        )
        samples += ev
        if not is_congruent(x) and f < best_kept[0]:
            best_kept = (f, x)

    if best_kept[1] is None:
        return OracleResult(False, None, math.inf, samples)
    psi, ell, radius = best_kept[1]
    candidate = RegularPolygonSpec(n, Point2(point.x + ell, point.y), radius, psi)
    found_d = sorted(distances_from(point, candidate).values)
    residual = max(abs(u - v) for u, v in zip(found_d, target))
    return OracleResult(residual <= FIND_TOL * scale, candidate, residual, samples)


def agreement(
    seed: int,
    instances: int,
    n_range: tuple[int, int],
    cfg: OracleConfig,
    threshold: float = 1e-5,
) -> dict[str, Any]:
    """Search ``random_instance(seed + i)`` for each i and score the finds.

    A find agrees when its circumradius and center distance match the
    input's center distance and circumradius (the swapped pair) within
    ``threshold`` relative to the larger of the two; the swap is never
    imposed on the search.  Returns the JSON-ready report: per-instance
    rows plus the found and agreed counts and the worst parameter error.
    """
    if instances < 0:
        raise ValueError(f"instances must be >= 0, got {instances}")
    results = []
    agreed = 0
    found = 0
    worst = 0.0
    for i in range(instances):
        poly, point = random_instance(seed + i, n_range)
        res = search_second_polygon(poly, point, cfg)
        r_in = poly.circumradius
        l_in = point.distance_to(poly.center)
        entry: dict[str, Any] = {
            "seed": seed + i,
            "n": poly.n,
            "found": res.found,
            "residual": res.residual,
        }
        if res.found and res.polygon is not None:
            found += 1
            err = max(
                abs(res.polygon.circumradius - l_in),
                abs(point.distance_to(res.polygon.center) - r_in),
            ) / max(r_in, l_in)
            entry["param_error"] = err
            worst = max(worst, err)
            if err <= threshold:
                agreed += 1
        results.append(entry)
    return {
        "instances": instances,
        "found": found,
        "agreed": agreed,
        "max_param_error": worst,
        "results": results,
    }
