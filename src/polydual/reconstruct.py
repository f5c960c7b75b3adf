"""Coordinates for the companion polygon sharing a distance multiset.

Given a polygon with center C and circumradius r, a point M at distance
l from C and one anchored vertex, the companion is pinned down up to
mirror once its center is chosen: the center C' may sit anywhere on the
circle about M of radius r, the companion's own radius is l, and the
anchored vertex must land on the auxiliary circle about M through the
anchor distance.  It lands there by the vertex-angle identity: the
triangles C, M, anchor and C', M, companion vertex have two sides l and r
in swapped roles, so when the angle at C' between M and the vertex equals
the angle at C between M and the anchor, they are congruent and the third
sides agree.  The two sides of C'M on which that angle can open give the
two mirror-image companions, with no law of cosines to invert.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import Degeneracy, DegenerateError, SchemaError
from .geometry import (
    TWO_PI, Point2, RegularPolygonSpec, azimuth, normalize_angle, vertex_bound, vertex_coords,
)

# the benchmark's closed-form workload (perfbench/closed_form.py) calls the
# comparison by this module's name
from .geometry import verify_permutation  # noqa: F401


class DualPolygonPair(NamedTuple):
    primary_polygon: RegularPolygonSpec
    point: Point2
    b_polygon: RegularPolygonSpec
    c_polygon: RegularPolygonSpec
    center_direction: float


def construct_dual(
    p: RegularPolygonSpec,
    point: Point2,
    center_direction: float = 0.0,
    *,
    anchor_index: int = 0,
) -> DualPolygonPair:
    """Place the companion polygon for one choice of center direction.

    The companion center goes at the original circumradius from ``point``
    along ``center_direction`` (a genuinely free choice: every direction
    yields a valid companion).  Vertex 0 of each returned polygon is the
    anchored vertex, at the same distance from ``point`` as vertex
    ``anchor_index`` of the original: with alpha the angle at the original
    center between ``point`` and that vertex, the companion phases are
    azimuth(companion center -> point) +/- alpha, taken from angles alone.
    The b/c polygons are the two mirror solutions, counterclockwise offset
    first; alpha = 0 or pi gives one companion twice.  Nothing here
    compares distances: ``geometry.verify_permutation`` checks the result.

    The sizes r and l are given, not fitted, so only ``at_center``, min(r,
    l) == 0, and ``on_circumcircle``, |r - l| <= 4 ulp(max(r, l)), are
    refused: l = hypot of the coordinate differences rounds by up to 3 ulps.
    """
    if not 0 <= anchor_index < p.n:
        raise SchemaError(f"anchor_index must be in [0, {p.n}), got {anchor_index}")
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
    anchor_angle = p.phase + TWO_PI / p.n * anchor_index
    alpha = abs(math.remainder(azimuth(point, p.center) - anchor_angle - math.pi, TWO_PI))
    base = azimuth(center, point)
    b_polygon = RegularPolygonSpec(p.n, center, dist_in, base + alpha)
    c_polygon = RegularPolygonSpec(p.n, center, dist_in, base - alpha)
    return DualPolygonPair(
        primary_polygon=p,
        point=point,
        b_polygon=b_polygon,
        c_polygon=c_polygon,
        center_direction=normalize_angle(center_direction),
    )

