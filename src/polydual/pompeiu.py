"""Equilateral-triangle specialization: closed forms and rotation constructions.

The three distances from any point to the vertices of an equilateral
triangle themselves satisfy the triangle inequality (Pompeiu's theorem),
degenerating exactly when the point lies on the circumcircle (Van
Schooten).  ``dual.solve`` applies that test, and both equilateral
triangles realizing the distances come from its fit as for any n, made
once by ``pompeiu_from_distances`` and carried on the ``PompeiuTriangle``
it returns.  The area of the distance triangle is reported beside the
fit, and (16/3)*area^2 equals the fit's discriminant.  60-degree
rotations construct both triangles explicitly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dual import Degeneracy, DualSolution, solve
from .errors import DegenerateError
from .geometry import DistanceSpec, Point2, RegularPolygonSpec, azimuth, rotate_about

SQRT3 = math.sqrt(3.0)


class PompeiuTriangle(NamedTuple):
    """The triangle whose sides are the three vertex distances, and their fit."""

    d1: float
    d2: float
    d3: float
    area: float
    degenerate: bool
    solution: DualSolution


class EquilateralDual(NamedTuple):
    """Closed-form parameter pairs plus the two triangle side lengths."""

    solution: DualSolution
    side_larger: float
    side_smaller: float


class TrianglePair(NamedTuple):
    """Both equilateral triangles realizing one distance triple.

    The first vertex of ``larger`` and of ``smaller`` is the shared one.
    """

    point: Point2
    larger: tuple[Point2, Point2, Point2]
    smaller: tuple[Point2, Point2, Point2]


def triangle_spec(tri: tuple[Point2, Point2, Point2]) -> RegularPolygonSpec:
    """The equilateral triangle through three vertices, ``tri[0]`` first."""
    cx = cy = 0.0
    for v in tri:  # left to right: the builtin sum compensates from Python 3.12
        cx += v.x
        cy += v.y
    center = Point2(cx / 3.0, cy / 3.0)
    radius = center.distance_to(tri[0])
    return RegularPolygonSpec(3, center, radius, azimuth(center, tri[0]) if radius > 0 else 0.0)


def pompeiu_from_distances(
    d1: float, d2: float, d3: float, tol: float = 1e-9
) -> PompeiuTriangle:
    """Build the distance triangle, with Kahan's ordering-stable Heron area.

    ``dual.solve`` judges the triple by the triangle inequality at ``tol``,
    raising its domain error beyond it, and its fit rides on the returned
    triangle as ``solution``.  The triple is degenerate exactly when the
    fit puts the point on the circumcircle (``dual.classify``), which
    forces the area to exactly zero.
    """
    solution = solve(DistanceSpec((d1, d2, d3)), tol)
    a, b, c = sorted((d1, d2, d3), reverse=True)
    degenerate = solution.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
    if degenerate:
        area = 0.0
    else:
        area = 0.25 * math.sqrt(
            max((a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)), 0.0)
        )
    return PompeiuTriangle(d1, d2, d3, area, degenerate, solution)


def solve_equilateral(t: PompeiuTriangle) -> EquilateralDual:
    """Both parameter pairs of the triple's fit, and the side lengths.

    The squared circumradii are (sum of squares +/- 4*sqrt(3)*area)/6, so
    the fit's discriminant equals (16/3)*area^2; the fit is used rather
    than the area because l^2 taken from the area cancels, losing digits
    in proportion to (r/l)^2 near the center.  The side lengths are
    sqrt(3) times the circumradii.
    """
    sol = t.solution
    return EquilateralDual(
        sol, SQRT3 * sol.larger.circumradius, SQRT3 * sol.smaller.circumradius
    )


def weitzenbock_margin(t: PompeiuTriangle) -> float:
    """Sum of squared sides minus 4*sqrt(3) times the area.

    Nonnegative for every triangle, zero exactly for an equilateral
    distance triple, and equal to six times the squared point-to-center
    distance of the larger triangle.
    """
    return (t.d1 * t.d1 + t.d2 * t.d2 + t.d3 * t.d3) - 4.0 * SQRT3 * t.area


def _rotation_image(p: Point2, pivot: Point2, src: Point2, dst: Point2) -> Point2:
    """Image of ``p`` under the rotation about ``pivot`` taking src to dst."""
    ang = azimuth(pivot, dst) - azimuth(pivot, src)
    return rotate_about(p, pivot, ang)


def construct_both_triangles(
    d1: float, d2: float, d3: float, tol: float = 1e-9
) -> TrianglePair:
    """``construct_triangles`` of the triple's ``pompeiu_from_distances``."""
    return construct_triangles(pompeiu_from_distances(d1, d2, d3, tol))


def construct_triangles(t: PompeiuTriangle) -> TrianglePair:
    """Both equilateral triangles realizing the triple, by rotation.

    Canonical placement: the point at the origin and the edge of length
    d2 supporting the auxiliary equilateral triangles along the positive
    x axis; the shared vertex (distance d1 from the point) goes in the
    upper half plane.  Each auxiliary apex becomes the second vertex of
    one output triangle and the third vertex is the image of the shared
    vertex under the rotation about that apex taking the support edge's
    far end onto the point.  A degenerate triple has no companion.
    """
    d1, d2, d3 = t.d1, t.d2, t.d3
    if t.degenerate:
        raise DegenerateError(
            "distance triangle is degenerate; the companion collapses",
            sides=(d1, d2, d3),
        )
    m = Point2(0.0, 0.0)
    support = Point2(d2, 0.0)
    # shared vertex: upper intersection of circles (m, d1) and (support, d3)
    x = (d1 * d1 - d3 * d3 + d2 * d2) / (2.0 * d2)
    shared = Point2(x, math.sqrt(max(d1 * d1 - x * x, 0.0)))
    apex_ccw = rotate_about(support, m, math.pi / 3.0)
    apex_cw = rotate_about(support, m, -math.pi / 3.0)
    tri_ccw = (shared, apex_ccw, _rotation_image(shared, apex_ccw, support, m))
    tri_cw = (shared, apex_cw, _rotation_image(shared, apex_cw, support, m))
    # shared is above the support edge, so the clockwise apex is always the farther one
    return TrianglePair(m, tri_cw, tri_ccw)
