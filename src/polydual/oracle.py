"""Closed-form-free search for a second polygon with matching distances.

This is the trust anchor for the algebraic solver: candidates are scored
purely by the gap between sorted distance lists, scanned on a coarse grid
and polished by a Levenberg-Marquardt descent on the sorted-distance
residuals, with the input's own parameter pair excluded from the answers.
Nothing here consumes the solver or the reconstruction code; only the
geometric primitives are used, ``geometry.verify_permutation`` among
them for the answer's final residual, and the descent's Jacobian is the
calculus of ``hypot``, not the paper's algebra.

A rotation of a candidate polygon about the query point leaves its
distances unchanged, so the search runs in the quotient by those
rotations: a candidate is parameterized by its center distance, its
circumradius and its phase relative to the direction of its center, and
the center is placed on the horizontal through the point.  The distance
multiset repeats every 2*pi/n in that phase.  Reflecting a candidate in
the line through the point and its center keeps every distance too and
maps phase psi to -psi, so the grid scans the rotation-and-mirror
quotient: phases from 0 to half a period, pi/n.  The descent still moves
over the whole period.  The sorted-distance objective is also exactly
symmetric under swapping radius and center distance, so when the one
descent lands on the input itself, its landing with the two sizes swapped
scores the same and is the answer (this exploits a symmetry of the
candidate parameterization, not of the expected answer).  Only these
isometries about the point are used, none of the solver's algebra.

The search runs on the distances times the power of two that brings the
largest into [0.5, 1), so the squares it takes stay in range at any input
scale; the scaling is exact while the values are normal doubles, so the
answer is the same floats a search at the input's own scale would give.

The grid needs no per-cell sort: a vertex's squared distance
ell^2 + r^2 + 2*ell*r*cos(angle) is non-decreasing in the cosine because
ell, r >= 0, and every rounded step after it (the product, the sum, the
clamp at 0, the square root) is monotone too.  So the n cosines are
sorted once per phase, and every cell's distances come out sorted: the
same floats a per-cell sort gives.  Every cell sits at the size box's
largest center distance, and the radius axis holds only the box's bounds,
so a default search scores 5 phases times 2 radii: 10 cells.  The best is
replaced only by a strictly smaller objective, so the pick is the first
minimum in lexicographic cell order.

The descent evaluates a candidate in one pass, its vertices sorted stably
by distance so that ties keep index order, and builds the normal equations
only where it steps from; every sum has the operations and rank order of a
full Jacobian at each candidate, so the floats are the same.

The phases, the sorted cosines and the vertex directions depend only on
``(n, grid_resolution)``, so they are built once per pair, kept in a
bounded cache and shared as tuples, which no search can write: a search
is safe to call from several threads.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple
from operator import itemgetter
from typing import Any, NamedTuple, Optional

from .errors import SchemaError
from .geometry import (
    MAX_VERTICES, TWO_PI, Point2, RegularPolygonSpec, distances_from, verify_permutation,
)

#: Half-width of the excluded band of center-distance/radius ratios
#: around 1 in random instances (total width 1e-3).
RATIO_EXCLUSION_HALF_WIDTH = 5e-4

#: Relative size of the ball around the input parameters treated as
#: congruent and excluded from answers.  Must stay below the random
#: instances' ratio exclusion band so the genuine second polygon is
#: never excluded by accident.
CONGRUENT_EXCLUSION_REL = 2e-4

#: Radii scored at every grid phase: the size box's two bounds (the
#: benchmark's tracer counts grid cells with it).
COARSE_SIZE_STEPS = 2

#: The finest ``OracleConfig.grid_resolution``; its phase tables precede any search.
MAX_GRID_RESOLUTION = 1024

#: A candidate is a find when its worst sorted-distance gap is below
#: this fraction of the largest target distance.
FIND_TOL = 1e-6

#: The relative parameter error within which ``agreement`` counts a find as agreeing.
AGREE_TOL = 1e-5


class OracleConfig(namedtuple("OracleConfig", "grid_resolution refine_iterations")):
    """Search controls.

    ``grid_resolution``, 8 to ``MAX_GRID_RESOLUTION``, is the grid stage's
    phase spacing: phases k * (2*pi/n) / grid_resolution.  Only k = 0 ..
    grid_resolution // 2 are scored, since the rest are mirror images of
    those; each against ``COARSE_SIZE_STEPS`` radii, the bounds of the size
    box, at its largest center distance.
    ``refine_iterations``, at least 1, caps the descent at
    ``20 * refine_iterations`` Levenberg-Marquardt iterations.  Whether
    the result is a find is judged against the fixed ``FIND_TOL``.
    """

    __slots__ = ()

    def __new__(cls, grid_resolution: int = 8, refine_iterations: int = 3) -> "OracleConfig":
        if grid_resolution < 8:
            raise SchemaError("grid_resolution must be >= 8")
        if grid_resolution > MAX_GRID_RESOLUTION:
            raise SchemaError(f"grid_resolution must be <= {MAX_GRID_RESOLUTION}")
        if refine_iterations < 1:
            raise SchemaError("refine_iterations must be >= 1")
        return tuple.__new__(cls, (grid_resolution, refine_iterations))


class OracleResult(NamedTuple):
    """A search's answer; ``found=False, polygon=None, residual=inf`` when none is kept.

    That is the result when the descent lands in the congruent exclusion
    ball and its swapped twin lies in it too, as on the circumcircle,
    where no other polygon exists.
    """

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
    instead.  The draws come from ``random.Random(seed)``; the radius is
    ``math.exp`` of a uniform draw, so it rests on the platform's libm.
    """
    lo, hi = n_range
    if not 3 <= lo <= hi <= MAX_VERTICES:
        raise SchemaError(f"invalid vertex-count range {n_range}")
    rng = random.Random(seed)
    n = rng.randint(lo, hi)
    radius = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    if degenerate_mode:
        ratio = 1.0
    else:
        ratio = rng.uniform(0.0, 3.0)
        while abs(ratio - 1.0) < RATIO_EXCLUSION_HALF_WIDTH:
            ratio = rng.uniform(0.0, 3.0)
    phase = rng.uniform(0.0, TWO_PI)
    point_azimuth = rng.uniform(0.0, TWO_PI)
    dist = ratio * radius
    polygon = RegularPolygonSpec(n, Point2(0.0, 0.0), radius, phase)
    point = Point2(dist * math.cos(point_azimuth), dist * math.sin(point_azimuth))
    return polygon, point


def _evaluate(
    dirs: tuple[tuple[float, float], ...], target: list[float], psi: float, ell: float,
    radius: float,
) -> tuple[float, list[tuple[float, float, float]]]:
    """The sum of squared sorted-distance residuals, and the vertices in rank order.

    Vertex k, at angle phi about the center, is (D, cos(phi), sin(phi)) with
    D = hypot(ell + r*cos(phi), r*sin(phi)); ties keep their ``dirs`` order.
    """
    c, s = math.cos(psi), math.sin(psi)
    verts = []
    for ck, sk in dirs:
        cos_phi = c * ck - s * sk
        sin_phi = s * ck + c * sk
        verts.append((math.hypot(ell + radius * cos_phi, radius * sin_phi), cos_phi, sin_phi))
    verts.sort(key=itemgetter(0))
    f = 0.0
    for (d, _, _), t in zip(verts, target):
        f += (d - t) * (d - t)
    return f, verts


def _normal_equations(
    verts: list[tuple[float, float, float]], target: list[float], ell: float, radius: float,
    scale: float,
) -> tuple[float, ...]:
    """J^T J (a00, a01, a02, a11, a12, a22) and J^T e (g0, g1, g2), added in rank order.

    Row k is (dD/dpsi / scale, dD/dell, dD/dr) at ``verts[k]``: dD/dpsi =
    -ell*r*sin(phi)/D, dD/dell = (ell + r*cos(phi))/D, dD/dr = (r + ell*cos(phi))/D.
    """
    a00 = a01 = a02 = a11 = a12 = a22 = g0 = g1 = g2 = 0.0
    for (d, cos_phi, sin_phi), t in zip(verts, target):
        ek = d - t
        inv = 1.0 / d if d > 0.0 else 0.0
        j0 = -ell * radius * sin_phi * inv / scale
        j1 = (ell + radius * cos_phi) * inv
        j2 = (radius + ell * cos_phi) * inv
        a00, a01, a02 = a00 + j0 * j0, a01 + j0 * j1, a02 + j0 * j2
        a11, a12, a22 = a11 + j1 * j1, a12 + j1 * j2, a22 + j2 * j2
        g0, g1, g2 = g0 + j0 * ek, g1 + j1 * ek, g2 + j2 * ek
    return a00, a01, a02, a11, a12, a22, g0, g1, g2


@functools.lru_cache(maxsize=64)
def _phase_tables(
    n: int, grid_resolution: int
) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...], tuple[tuple[float, float], ...]]:
    """The grid's phases, each phase's sorted vertex cosines and the vertex directions.

    The phases are k * (2*pi/n) / ``grid_resolution`` for k = 0 ..
    ``grid_resolution // 2``; the cosines are cos(phase + 2*pi*j/n) over
    the vertices j, sorted; the directions are (cos, sin) of 2*pi*j/n.
    """
    step = TWO_PI / n / grid_resolution
    psis = tuple(k * step for k in range(grid_resolution // 2 + 1))
    offsets = [TWO_PI * j / n for j in range(n)]
    cosines = tuple(tuple(sorted(math.cos(psi + a) for a in offsets)) for psi in psis)
    dirs = tuple((math.cos(a), math.sin(a)) for a in offsets)
    return psis, cosines, dirs


def _best_cell(
    cosines: tuple[tuple[float, ...], ...], ell: float, radii: tuple[float, ...],
    target: list[float],
) -> tuple[int, int]:
    """The (phase, radius) indices of the least-objective grid cell at center distance ``ell``.

    Vertex k of a candidate sits at ell + r*exp(i*(psi + 2*pi*k/n)) seen
    from the point; ``cosines`` holds those cosines sorted once per phase
    (see the module docstring), so each cell's distances need no sort of
    their own.  Each objective adds the vertices' squared gaps left to
    right; the cells are scanned in lexicographic (phase, radius) order,
    and the best is replaced only by a strictly smaller objective, so among
    tied cells the lowest one wins.
    """
    sqrt = math.sqrt
    sizes = [(i, 2.0 * ell * r, ell * ell + r * r) for i, r in enumerate(radii)]
    best = math.inf
    cell = (0, 0)
    for p, cos_sorted in enumerate(cosines):
        terms = tuple(zip(cos_sorted, target))
        for i, two_lr, base in sizes:
            f = 0.0
            for c, t in terms:
                d2 = c * two_lr + base
                e = (sqrt(d2) if d2 > 0.0 else 0.0) - t
                f += e * e
            if f < best:
                best = f
                cell = (p, i)
    return cell


def _lm_descent(
    dirs: tuple[tuple[float, float], ...], target: list[float], start: tuple[float, float, float],
    bounds_ell: tuple[float, float], bounds_r: tuple[float, float], stop_objective: float,
    max_iterations: int,
) -> tuple[tuple[float, float, float], float, int]:
    """Levenberg-Marquardt over (psi, ell, radius); the phase wraps, sizes clip.

    Every find is a zero-residual least-squares problem, where the damped
    Gauss-Newton step converges quadratically.  The phase enters the
    normal equations as the arc length ``scale * psi``, so all three
    Jacobian columns are dimensionless and one damping ``lam`` suits them
    all.  A step that lowers the objective is taken and ``lam`` falls
    tenfold; otherwise ``lam`` grows tenfold.  The normal equations are
    built once per point a step starts from, however often ``lam`` changes.
    """
    x = start
    f, verts = _evaluate(dirs, target, *x)
    evals = 1
    scale = target[-1]
    psi_period = TWO_PI / len(dirs)
    lam = 1e-3
    sums = None
    for _ in range(max_iterations):
        if f <= stop_objective:
            break
        if sums is None:
            sums = _normal_equations(verts, target, x[1], x[2], scale)
        a00, a01, a02, a11, a12, a22, g0, g1, g2 = sums
        a00 += lam
        a11 += lam
        a22 += lam
        # Cramer's rule on the symmetric positive definite damped system
        c00 = a11 * a22 - a12 * a12
        c01 = a02 * a12 - a01 * a22
        c02 = a01 * a12 - a02 * a11
        det = a00 * c00 + a01 * c01 + a02 * c02
        if not det > 0.0:  # only if lam has underflowed on a singular system
            lam *= 10.0
            continue
        c11 = a00 * a22 - a02 * a02
        c12 = a01 * a02 - a00 * a12
        c22 = a00 * a11 - a01 * a01
        trial = (
            (x[0] - (c00 * g0 + c01 * g1 + c02 * g2) / (det * scale)) % psi_period,
            min(max(x[1] - (c01 * g0 + c11 * g1 + c12 * g2) / det, bounds_ell[0]), bounds_ell[1]),
            min(max(x[2] - (c02 * g0 + c12 * g1 + c22 * g2) / det, bounds_r[0]), bounds_r[1]),
        )
        ft, vt = _evaluate(dirs, target, *trial)
        evals += 1
        if ft < f:
            x, f, verts, sums = trial, ft, vt, None
            lam *= 0.1
        else:
            lam *= 10.0
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
    through the point; any rotation of it about the point, and its mirror
    image in that horizontal, is an equally good answer.

    Grid stage: one pass scores the phases of the first half period, 0
    to pi/n in steps of (2*pi/n) / ``grid_resolution``, against the
    bounds of the radius at the largest center distance; the other half
    holds the mirror images of these candidates.  The size bounds come
    from plain geometry (the center is the vertex centroid, so its
    distance from the point is at most the mean target distance).
    Descent stage: the best cell seeds one Levenberg-Marquardt descent.
    If it lands inside the congruent exclusion ball around the input
    parameters, it found the input itself, and the answer is the landing
    with radius and center distance swapped, which scores the same; the
    input is read only by that ball test.  Both stages run on sizes
    scaled by a power of two (see the module docstring), mapped back for
    the answer.  When the swapped landing lies in the ball too, the
    result is ``found=False, polygon=None, residual=inf``: a miss, never
    a polygon that is not there.  Otherwise the answer is a find when its
    distances match the input's within ``FIND_TOL``.
    """
    n = p.n
    d_in = distances_from(point, p)
    distances = sorted(d_in.values)
    if distances[-1] <= 0.0:
        return OracleResult(False, None, math.inf, 0)
    exp = math.frexp(distances[-1])[1]
    target = [math.ldexp(v, -exp) for v in distances]
    scale = target[-1]
    r_in = math.ldexp(p.circumradius, -exp)
    l_in = math.ldexp(point.distance_to(p.center), -exp)
    mean_d = math.fsum(target) / n

    ell_hi = mean_d * (1.0 + 1e-9)
    r_lo = max(0.0, scale - ell_hi)
    # realizable inputs always give r_lo <= target[0] + ell_hi; keep the grid sane otherwise
    r_bounds = (r_lo, max(target[0] + ell_hi, r_lo))

    psis, cosines, dirs = _phase_tables(n, cfg.grid_resolution)
    psi_i, r_i = _best_cell(cosines, ell_hi, r_bounds, target)
    samples = len(psis) * len(r_bounds)

    # a descent that stops here has its sizes to about 1e-13 of the largest
    # distance, so inputs a rigid motion apart give sizes 1e-12 apart
    stop_objective = (1e-13 * scale) ** 2
    x, _, evals = _lm_descent(
        dirs, target, (psis[psi_i], ell_hi, r_bounds[r_i]), (0.0, ell_hi), r_bounds,
        stop_objective, 20 * cfg.refine_iterations,
    )
    samples += evals

    exclusion_radius = CONGRUENT_EXCLUSION_REL * max(r_in, l_in)

    def is_congruent(x: tuple[float, float, float]) -> bool:
        return max(abs(x[2] - r_in), abs(x[1] - l_in)) <= exclusion_radius

    if is_congruent(x):
        # the descent found the input itself; its swapped twin scores the same
        x = (x[0], x[2], x[1])
        if is_congruent(x):
            return OracleResult(False, None, math.inf, samples)
    psi, ell, radius = x
    candidate = RegularPolygonSpec(
        n, Point2(point.x + math.ldexp(ell, exp), point.y), math.ldexp(radius, exp), psi
    )
    residual = verify_permutation(d_in, distances_from(point, candidate)).residual
    return OracleResult(residual <= FIND_TOL * distances[-1], candidate, residual, samples)


def agreement(
    seed: int,
    instances: int,
    n_range: tuple[int, int],
    cfg: OracleConfig,
) -> dict[str, Any]:
    """Search ``random_instance(seed + i)`` for each i and score the finds.

    A find agrees when its circumradius and center distance match the
    input's center distance and circumradius (the swapped pair) within
    ``AGREE_TOL`` relative to the larger of the two; the swap is never
    imposed on the search.  Returns the JSON-ready report: per-instance
    rows plus the found and agreed counts and the worst parameter error.
    """
    if instances < 0:
        raise SchemaError(f"instances must be >= 0, got {instances}")
    if not 3 <= n_range[0] <= n_range[1] <= MAX_VERTICES:  # checked even when no instance is drawn
        raise SchemaError(f"invalid vertex-count range {n_range}")
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
            if err <= AGREE_TOL:
                agreed += 1
        results.append(entry)
    return {
        "instances": instances,
        "found": found,
        "agreed": agreed,
        "max_param_error": worst,
        "results": results,
    }
