"""Coordinates for the companion polygon sharing a distance multiset.

Given a polygon with center C and circumradius r and a point M at
distance l from C, the companion swaps the two lengths: its center C'
may sit anywhere on the circle about M of radius r, and its own radius
is l.  Its phase is the original's turned by the angle from ray MC to ray
MC', so vertex k makes the same angle with C'M as vertex k of the
original makes with CM.  The triangles C, M, vertex k and C', M,
companion vertex k then have two sides l and r in swapped roles about
equal angles, so their third sides, the distances from M, agree for
every k at once.  The companion's mirror in the line MC' is the other
solution.  ``dual.polygons`` places a fitted pair by the same rule.
``command`` answers the CLI's ``reconstruct``.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .errors import Degeneracy, DegenerateError, SchemaError
from .geometry import (
    Point2, RegularPolygonSpec, azimuth, distances_from, normalize_angle, parse_angle,
    parse_point, parse_polygon, verify_permutation, vertex_bound, vertex_coords,
)


class DualPolygonPair(NamedTuple):
    """Vertex k of ``b_polygon`` and vertex -k of its mirror ``c_polygon`` are
    each as far from ``point`` as vertex k of ``primary_polygon``."""

    primary_polygon: RegularPolygonSpec
    point: Point2
    b_polygon: RegularPolygonSpec
    c_polygon: RegularPolygonSpec
    center_direction: float


def construct_dual(
    p: RegularPolygonSpec, point: Point2, center_direction: float = 0.0
) -> DualPolygonPair:
    """Place the companion polygon for one choice of center direction.

    The companion center goes at the original circumradius from ``point``
    along ``center_direction`` (a genuinely free choice: every direction
    yields a valid companion), and its radius is the original center
    distance.  The phase turns by the angle at ``point`` from the original
    center to the companion center, read off the computed center: a large
    ``center_direction`` added to the phase would round away the turn.
    ``c_polygon`` is the mirror in the line through ``point`` and the
    companion center.  Nothing here compares distances:
    ``geometry.verify_permutation`` checks the result.

    The sizes r and l are given, not fitted, so only ``at_center``, min(r,
    l) == 0, and ``on_circumcircle``, |r - l| <= 4 ulp(max(r, l)), are
    refused: l = hypot of the coordinate differences rounds by up to 3 ulps.
    """
    # a polygon whose vertex coordinates overflow is a SchemaError, raised
    # before any degeneracy is judged; only a bound that overflows needs
    # the vertices built to tell
    if not math.isfinite(vertex_bound(p)):
        vertex_coords(p)
    radius_in = p.circumradius
    dist_in = point.distance_to(p.center)
    if not math.isfinite(dist_in):
        raise SchemaError(f"the point's distance to the center must be finite, got {dist_in}")
    on_circle = abs(radius_in - dist_in) <= 4.0 * math.ulp(max(radius_in, dist_in))
    if on_circle or min(radius_in, dist_in) == 0.0:
        raise DegenerateError(
            "no non-congruent companion polygon exists for this configuration",
            degeneracy=(Degeneracy.ON_CIRCUMCIRCLE if on_circle else Degeneracy.AT_CENTER).value,
        )
    center = Point2(
        point.x + radius_in * math.cos(center_direction),
        point.y + radius_in * math.sin(center_direction),
    )
    axis = azimuth(point, center)
    phase = p.phase + (axis - azimuth(point, p.center))
    b_polygon = RegularPolygonSpec(p.n, center, dist_in, phase)
    c_polygon = RegularPolygonSpec(p.n, center, dist_in, 2.0 * axis - phase)
    return DualPolygonPair(
        primary_polygon=p,
        point=point,
        b_polygon=b_polygon,
        c_polygon=c_polygon,
        center_direction=normalize_angle(center_direction),
    )


def _polygon_json(p: RegularPolygonSpec) -> dict[str, Any]:
    """A polygon as its payload object, whose ``circumradius`` is keyed ``r``."""
    return {"n": p.n, "center": p.center._asdict(), "r": p.circumradius, "phase": p.phase}


def dual_pair(payload: dict[str, Any]) -> DualPolygonPair:
    """``construct_dual`` of the payload's polygon, point and direction."""
    return construct_dual(
        parse_polygon(payload.get("polygon"), "polygon"),
        parse_point(payload.get("point"), "point"),
        parse_angle(payload.get("direction", 0.0), "direction"),
    )


def command(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """``reconstruct``: the companion and its mirror, checked by their distances."""
    pair = dual_pair(payload)
    point = pair.point
    d_in = distances_from(point, pair.primary_polygon)
    d_b = distances_from(point, pair.b_polygon)
    match = verify_permutation(d_in, d_b, max(tol, 1e-10))
    mirror = verify_permutation(d_in, distances_from(point, pair.c_polygon))
    return {
        "b_polygon": _polygon_json(pair.b_polygon),
        "c_polygon": _polygon_json(pair.c_polygon),
        "center_direction": pair.center_direction,
        "distances": list(d_in.values),
        "companion_distances": list(d_b.values),
        "match_residual": max(match.residual, mirror.residual),
        "permutation": {
            "ok": match.ok,
            "indices": list(match.permutation),
            "residual": match.residual,
        },
    }
