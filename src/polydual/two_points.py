"""For two same-n non-congruent regular polygons with a shared vertex,
locate the points seeing equal distance multisets to both vertex sets.

Any such point must sit at the first polygon's circumradius from the
second polygon's center and vice versa.  The two isometries that swap
the centers, the half-turn about their midpoint and the reflection in
their perpendicular bisector, carry the shared vertex V (at r_a from C_a
and r_b from C_b) to exactly such points, so the two answers are the
images of V.  They coincide exactly when V is collinear with both
centers.  ``command`` answers the CLI's ``two-points``.
"""

from __future__ import annotations

import math
import sys
from typing import Any, NamedTuple, Optional

from .errors import CongruentError, SchemaError, SharedVertexError
from .geometry import TWO_PI, PermutationMatch, Point2, RegularPolygonSpec, distances_to
from .geometry import parse_polygon, verify_permutation, vertex_coords


class TwoPointsSolution(NamedTuple):
    m1: Point2
    m2: Optional[Point2]
    matches: tuple[PermutationMatch, ...]


def two_points(
    pa: RegularPolygonSpec, pb: RegularPolygonSpec, tol: float = 1e-9
) -> TwoPointsSolution:
    """Both equal-multiset points for a shared-vertex polygon pair.

    V is a vertex of pa within tol (at least 64 ulps) times the larger
    circumradius of a vertex of pb.  Each vertex of pa is compared with
    one vertex of pb only: the one nearest in angle about pb's center,
    which is also the nearest.  The first returned point is the image on
    the positive side of the oriented line from pa's center to pb's
    center (the reflection keeps V's side, the half-turn flips it); the
    second is absent exactly when V lies within the same tolerance of
    that line, where the half-turn image is the one answer.  Each
    returned point carries the explicit distance-index permutation
    matching the two vertex lists.
    """
    if pa.n != pb.n:
        raise SchemaError(f"vertex counts differ: {pa.n} != {pb.n}")
    r_a, r_b = pa.circumradius, pb.circumradius
    # computed vertices carry a few ulps of rounding, so a vertex shared in
    # exact arithmetic is found even at tol 0 (the slack of dual.solve)
    vtol = max(tol, 64.0 * sys.float_info.epsilon) * max(r_a, r_b)
    ca, cb = pa.center, pb.center
    coords_a, coords_b = vertex_coords(pa), vertex_coords(pb)
    shared = None
    for va in coords_a:
        k = round((math.atan2(va[1] - cb.y, va[0] - cb.x) - pb.phase) * pb.n / TWO_PI) % pb.n
        if math.hypot(va[0] - coords_b[k][0], va[1] - coords_b[k][1]) <= vtol:
            shared = va
            break
    if shared is None:
        raise SharedVertexError("the polygons do not share a vertex", tolerance=vtol)
    # a shared vertex and a common center force |r_a - r_b| <= vtol
    if abs(r_a - r_b) <= vtol or ca == cb:
        raise CongruentError(
            "polygons are congruent; the construction needs distinct sizes",
            circumradius_a=r_a,
            circumradius_b=r_b,
        )
    vx, vy = shared
    # s = (C_a - V) + (C_b - V); the half-turn sends V to V + s, the
    # reflection to V plus the part of s along the center line
    sx, sy = (ca.x - vx) + (cb.x - vx), (ca.y - vy) + (cb.y - vy)
    gap = math.hypot(cb.x - ca.x, cb.y - ca.y)
    ux, uy = (cb.x - ca.x) / gap, (cb.y - ca.y) / gap
    along = sx * ux + sy * uy
    half_turn = Point2(vx + sx, vy + sy)
    reflection = Point2(vx + along * ux, vy + along * uy)
    side = ux * (vy - ca.y) - uy * (vx - ca.x)  # signed distance of V from the line
    if abs(side) <= vtol:
        points: tuple[Point2, ...] = (half_turn,)
    else:
        points = (reflection, half_turn) if side > 0.0 else (half_turn, reflection)
    matches = tuple(
        verify_permutation(distances_to(q, coords_a), distances_to(q, coords_b), tol)
        for q in points
    )
    return TwoPointsSolution(points[0], points[1] if len(points) == 2 else None, matches)


def polygon_pair(payload: dict[str, Any]) -> tuple[RegularPolygonSpec, RegularPolygonSpec]:
    """The payload's ``polygon_a`` and ``polygon_b``."""
    return (
        parse_polygon(payload.get("polygon_a"), "polygon_a"),
        parse_polygon(payload.get("polygon_b"), "polygon_b"),
    )


def command(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """``two-points``: both points of the payload's polygon pair, with their matches."""
    sol = two_points(*polygon_pair(payload), tol)
    return {
        "m1": sol.m1._asdict(),
        "m2": None if sol.m2 is None else sol.m2._asdict(),
        "collinear_degenerate": sol.m2 is None,
        "matches": [{**m._asdict(), "permutation": list(m.permutation)} for m in sol.matches],
    }
