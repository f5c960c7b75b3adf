"""For two same-n non-congruent regular polygons with a shared vertex,
locate the points seeing equal distance multisets to both vertex sets.

Any such point must sit at the first polygon's circumradius from the
second polygon's center and vice versa, so the candidates are the
intersections of two circles with swapped radii; the shared vertex
guarantees (by the triangle inequality through it) that those circles
meet.  They are tangent, giving a single point, exactly when the shared
vertex is collinear with both centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CongruentError, ConcentricError, NoIntersectionError, SharedVertexError
from .geometry import (
    ABS_FLOOR,
    Point2,
    RegularPolygonSpec,
    azimuth,
    distances_to,
    normalize_angle,
    vertex_coords,
)
from .reconstruct import PermutationMatch, verify_permutation
import math

#: Vertex coincidence tolerance, times the larger circumradius.
SHARED_VERTEX_EPS = 1e-9


@dataclass(frozen=True)
class TwoPointsSolution:
    m1: Point2
    m2: Optional[Point2]
    matches: tuple[PermutationMatch, ...]
    collinear_degenerate: bool


def circle_circle_intersect(
    c1: Point2, r1: float, c2: Point2, r2: float, tol: float = 1e-9
) -> list[Point2]:
    """Intersection points of two circles: zero, one (tangency) or two.

    Tangency is detected within tol*(r1+r2) of either the external or the
    internal critical distance.  Two-point results are ordered by angle
    about c1.  Coincident circles have no isolated intersection and are
    rejected.
    """
    if r1 < 0.0 or r2 < 0.0:
        raise ValueError("radii must be >= 0")
    d = c1.distance_to(c2)
    rsum = r1 + r2
    rdiff = abs(r1 - r2)
    scale = max(rsum, ABS_FLOOR)
    if d <= tol * scale and rdiff <= tol * scale:
        raise ConcentricError(
            "circles coincide; intersection is not isolated",
            center_gap=d,
            radius_gap=rdiff,
        )
    band = tol * rsum
    tangent = abs(d - rsum) <= band or abs(d - rdiff) <= band
    if not tangent and (d > rsum or d < rdiff):
        return []
    ux, uy = (c2.x - c1.x) / d, (c2.y - c1.y) / d
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    bx, by = c1.x + a * ux, c1.y + a * uy
    if tangent:
        return [Point2(bx, by)]
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    p1 = Point2(bx + h * uy, by - h * ux)
    p2 = Point2(bx - h * uy, by + h * ux)
    return sorted((p1, p2), key=lambda q: normalize_angle(azimuth(c1, q)))


def two_points(
    pa: RegularPolygonSpec, pb: RegularPolygonSpec, tol: float = 1e-9
) -> TwoPointsSolution:
    """Both equal-multiset points for a shared-vertex polygon pair.

    The first returned point is the intersection on the positive side of
    the oriented line from pa's center to pb's center; the second is
    absent exactly in the collinear (tangent) case.  Each returned point
    carries the explicit distance-index permutation matching the two
    vertex lists.
    """
    if pa.n != pb.n:
        raise ValueError(f"vertex counts differ: {pa.n} != {pb.n}")
    r_a, r_b = pa.circumradius, pb.circumradius
    scale = max(r_a, r_b)
    if abs(r_a - r_b) <= tol * scale:
        raise CongruentError(
            "polygons are congruent; the construction needs distinct sizes",
            circumradius_a=r_a,
            circumradius_b=r_b,
        )
    vtol = SHARED_VERTEX_EPS * scale
    coords_a, coords_b = vertex_coords(pa), vertex_coords(pb)
    if not any(
        math.hypot(xa - xb, ya - yb) <= vtol for xa, ya in coords_a for xb, yb in coords_b
    ):
        raise SharedVertexError("the polygons do not share a vertex", tolerance=vtol)
    gap = pa.center.distance_to(pb.center)
    if not (abs(r_a - r_b) - tol * scale <= gap <= r_a + r_b + tol * scale):
        raise NoIntersectionError(
            "center gap incompatible with the swapped radii",
            center_gap=gap,
            circumradius_a=r_a,
            circumradius_b=r_b,
        )
    points = circle_circle_intersect(pb.center, r_a, pa.center, r_b, tol)
    if not points:
        raise NoIntersectionError(
            "swapped-radius circles unexpectedly miss", center_gap=gap
        )
    if len(points) == 2:
        ox, oy = pb.center.x - pa.center.x, pb.center.y - pa.center.y

        def side(q: Point2) -> float:
            return ox * (q.y - pa.center.y) - oy * (q.x - pa.center.x)

        points = sorted(points, key=side, reverse=True)
    matches = tuple(
        verify_permutation(distances_to(q, coords_a), distances_to(q, coords_b), tol)
        for q in points
    )
    m2 = points[1] if len(points) == 2 else None
    return TwoPointsSolution(points[0], m2, matches, m2 is None)
