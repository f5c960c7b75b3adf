"""Coordinates for the companion polygon sharing a distance multiset.

Given a polygon, a point M and one anchored vertex distance, the
companion is pinned down up to mirror once its center is chosen: the
center may sit anywhere on the circle about M of radius equal to the
original circumradius, the companion's own radius equals the original
center distance, and the anchored vertex must land on the circle about M
through the anchor distance.  Intersecting that auxiliary circle with the
companion circumcircle gives the two mirror-image companions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dual import Degeneracy, classify
from .errors import DegenerateError, NoIntersectionError, RangeError
from .geometry import (
    ABS_FLOOR,
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    azimuth,
    distances_from,
    normalize_angle,
)

#: Absolute slack allowed on the law-of-cosines value before raising.
COS_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class PermutationMatch:
    ok: bool
    permutation: tuple[int, ...]
    residual: float


@dataclass(frozen=True)
class DualPolygonPair:
    primary_polygon: RegularPolygonSpec
    point: Point2
    b_polygon: RegularPolygonSpec
    c_polygon: RegularPolygonSpec
    center_direction: float
    match_residual: float


def solve_phase(
    point: Point2,
    center: Point2,
    n: int,
    circumradius: float,
    center_distance: float,
    anchor_distance: float,
) -> tuple[float, float]:
    """Two first-vertex angles placing a vertex at ``anchor_distance`` from ``point``.

    Inverts the law of cosines on the triangle (center, point, vertex):
    the vertex sits at azimuth(center -> point) +/- alpha as seen from the
    center, and the two signs give the mirror pair.  The cosine is clamped
    within COS_CLAMP_TOL of [-1, 1] to absorb boundary tangency.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if circumradius <= 0.0 or center_distance <= 0.0:
        raise ValueError("circumradius and center_distance must be positive")
    e = -math.frexp(max(circumradius, center_distance))[1]  # exact: keeps the squares in range
    r, l, a = (math.ldexp(v, e) for v in (circumradius, center_distance, anchor_distance))
    cos_arg = (r * r + l * l - a * a) / (2.0 * r * l)
    if cos_arg > 1.0 + COS_CLAMP_TOL or cos_arg < -1.0 - COS_CLAMP_TOL:
        raise RangeError(
            "anchor distance unreachable on the target circle",
            cos_value=cos_arg,
            circumradius=circumradius,
            center_distance=center_distance,
            anchor_distance=anchor_distance,
        )
    alpha = math.acos(min(1.0, max(-1.0, cos_arg)))
    base = azimuth(center, point)
    return normalize_angle(base + alpha), normalize_angle(base - alpha)


def construct_dual(
    p: RegularPolygonSpec,
    point: Point2,
    center_direction: float = 0.0,
    tol: float = 1e-9,
    *,
    anchor_index: int = 0,
) -> DualPolygonPair:
    """Place the companion polygon for one choice of center direction.

    The companion center goes at the original circumradius from ``point``
    along ``center_direction`` (a genuinely free choice: every direction
    yields a valid companion).  Vertex 0 of each returned polygon is the
    anchored vertex, at the same distance from ``point`` as vertex
    ``anchor_index`` of the original; the b/c polygons are the two mirror
    solutions, counterclockwise offset first.
    """
    if not 0 <= anchor_index < p.n:
        raise ValueError(f"anchor_index must be in [0, {p.n}), got {anchor_index}")
    d = distances_from(point, p)
    radius_in = p.circumradius
    dist_in = point.distance_to(p.center)
    degeneracy = classify(radius_in, dist_in)
    if degeneracy is not Degeneracy.NONE:
        raise DegenerateError(
            "no non-congruent companion polygon exists for this configuration",
            degeneracy=degeneracy.value,
        )
    center = Point2(
        point.x + radius_in * math.cos(center_direction),
        point.y + radius_in * math.sin(center_direction),
    )
    anchor = d.values[anchor_index]
    try:
        phase_plus, phase_minus = solve_phase(
            point, center, p.n, dist_in, radius_in, anchor
        )
    except RangeError as exc:
        raise NoIntersectionError(
            "auxiliary circle misses the companion circumcircle",
            anchor_distance=anchor,
            companion_radius=dist_in,
            companion_center_distance=radius_in,
            cos_value=exc.context.get("cos_value"),
        ) from exc
    b_polygon = RegularPolygonSpec(p.n, center, dist_in, phase_plus)
    c_polygon = RegularPolygonSpec(p.n, center, dist_in, phase_minus)
    residual = max(
        verify_permutation(d, distances_from(point, b_polygon), tol).residual,
        verify_permutation(d, distances_from(point, c_polygon), tol).residual,
    )
    return DualPolygonPair(
        primary_polygon=p,
        point=point,
        b_polygon=b_polygon,
        c_polygon=c_polygon,
        center_direction=normalize_angle(center_direction),
        match_residual=residual,
    )


def verify_permutation(
    d: DistanceSpec,
    x: DistanceSpec,
    tol: float = 1e-9,
    *,
    abs_floor: float = ABS_FLOOR,
) -> PermutationMatch:
    """Best index pairing of the two lists: pi with x[pi[i]] matching d[i].

    This is the package's one sorted-multiset comparison.  Matching in
    sorted order minimizes the largest pairwise gap, so the reported
    residual is the best achievable over all permutations; the
    permutation itself is returned even on failure.  Each matched pair
    passes within max(abs_floor, tol times the larger magnitude), so
    values near zero still compare sanely.  Mismatched lengths are a caller bug, not inequality.
    """
    if d.n != x.n:
        raise ValueError(f"distance lists differ in length: {d.n} != {x.n}")
    dv, xv = d.values, x.values
    order_d = sorted(range(d.n), key=dv.__getitem__)
    order_x = sorted(range(x.n), key=xv.__getitem__)
    gaps = [abs(dv[i] - xv[j]) for i, j in zip(order_d, order_x)]
    residual = max(gaps)
    # every gap within the absolute floor passes, so the per-pair test
    # runs only when some gap exceeds it
    ok = residual <= abs_floor or all(
        g <= max(abs_floor, tol * max(abs(dv[i]), abs(xv[j])))
        for g, i, j in zip(gaps, order_d, order_x)
    )
    perm = [0] * d.n
    for i, j in zip(order_d, order_x):
        perm[i] = j
    return PermutationMatch(ok, tuple(perm), residual)
