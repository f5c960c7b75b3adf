"""Equilateral-triangle specialization: closed forms and the two triangles.

The three distances from any point to the vertices of an equilateral
triangle themselves satisfy the triangle inequality (Pompeiu's theorem),
degenerating exactly when the point lies on the circumcircle (Van
Schooten).  ``dual.solve`` applies that test, and both equilateral
triangles realizing the distances come from its fit as for any n, made
once by ``pompeiu_from_distances`` and carried on the ``PompeiuTriangle``
it returns.  The area of the distance triangle is reported beside the
fit, and (16/3)*area^2 equals the fit's discriminant.  The Weitzenböck
margin sum(d^2) - 4*sqrt(3)*area, 6*l^2 for the larger triangle's center
distance l, is reported too.  It is taken as a quotient of sums of
nonnegative terms, never by that subtraction, so it is never negative.
Off the circle it is within 4 eps relative of the exact margin of the
float triple however near the center the point is (2.4 eps at worst
against an 80-digit reference, for l/r from 1e-12 to 3).  The triangles
themselves are ``dual.polygons`` of the fit at n = 3: the point at the
origin, both centers on the positive x axis.  ``command`` answers the
CLI's ``pompeiu``.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from .dual import Degeneracy, DualSolution, polygons, solution_json, solve
from .errors import DegenerateError, SchemaError
from .geometry import DistanceSpec, Point2, RegularPolygonSpec, parse_distances, vertex_coords

SQRT3 = math.sqrt(3.0)


class PompeiuTriangle(NamedTuple):
    """The triangle whose sides are the three vertex distances, and their fit."""

    d1: float
    d2: float
    d3: float
    area: float
    weitzenbock_margin: float
    degenerate: bool
    solution: DualSolution


class EquilateralDual(NamedTuple):
    """Closed-form parameter pairs plus the two triangle side lengths."""

    solution: DualSolution
    side_larger: float
    side_smaller: float


class TrianglePair(NamedTuple):
    """Both equilateral triangles realizing one distance triple.

    The point is the origin.  Vertex k of ``larger`` and of ``smaller``
    are at the same distance from it, and vertex 0 is the farthest.
    """

    point: Point2
    larger: tuple[Point2, Point2, Point2]
    smaller: tuple[Point2, Point2, Point2]


def pompeiu_from_distances(
    d1: float, d2: float, d3: float, tol: float = 1e-9
) -> PompeiuTriangle:
    """Build the distance triangle, its Heron area and its Weitzenböck margin.

    ``dual.solve`` judges the triple by the triangle inequality at ``tol``,
    raising its domain error beyond it, and its fit rides on the returned
    triangle as ``solution``.  The triple is degenerate exactly when the
    fit puts the point on the circumcircle (``dual.classify``), which
    forces the area to exactly zero.  The area is Kahan's ordering-stable
    Heron formula.  The margin sum(d^2) - 4*sqrt(3)*area is taken as
    2*sum((a^2 - b^2)^2) / (sum(d^2) + 4*sqrt(3)*area), by the identity
    sum(d^2)^2 - 48*area^2 = 2*sum((a^2 - b^2)^2), with each a^2 - b^2 as
    (a - b)*(a + b): nothing cancels, so it is never negative and is
    exactly 0 for an equal triple.  Both are taken on the sides scaled by
    a power of two, so they read inf or 0 only outside the float range.
    """
    solution = solve(DistanceSpec((d1, d2, d3)), tol)
    a, b, c = sorted((d1, d2, d3), reverse=True)
    degenerate = solution.degeneracy is Degeneracy.ON_CIRCUMCIRCLE
    e = math.frexp(a)[1]  # scaling by 2^-e is exact and keeps every product in range
    a, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    area = 0.0 if degenerate else 0.25 * math.sqrt(
        max((a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)), 0.0)
    )
    ab, bc, ac = (a - b) * (a + b), (b - c) * (b + c), (a - c) * (a + c)
    total = a * a + b * b + c * c + 4.0 * SQRT3 * area
    margin = 2.0 * (ab * ab + bc * bc + ac * ac) / total if total else 0.0
    return PompeiuTriangle(
        d1, d2, d3, _unscale(area, 2 * e), _unscale(margin, 2 * e), degenerate, solution
    )


def _unscale(x: float, e: int) -> float:
    """x * 2^e, inf past the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


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


def triangles(t: PompeiuTriangle) -> tuple[RegularPolygonSpec, RegularPolygonSpec]:
    """``dual.polygons`` of the fit, larger first; a degenerate triple has no companion."""
    if t.degenerate:
        raise DegenerateError("distance triangle is degenerate; the companion collapses",
                              sides=tuple(sorted((t.d1, t.d2, t.d3), reverse=True)))
    return polygons(t.solution, 3)


def construct_both_triangles(
    d1: float, d2: float, d3: float, tol: float = 1e-9
) -> TrianglePair:
    """``construct_triangles`` of the triple's ``pompeiu_from_distances``."""
    return construct_triangles(pompeiu_from_distances(d1, d2, d3, tol))


def construct_triangles(t: PompeiuTriangle) -> TrianglePair:
    """The vertices of both ``triangles``, with the point at the origin."""
    larger, smaller = (tuple(Point2(*xy) for xy in vertex_coords(p)) for p in triangles(t))
    return TrianglePair(Point2(0.0, 0.0), larger, smaller)


def parse_triangle(payload: dict[str, Any]) -> tuple[float, ...]:
    """The payload's distances, which must be three."""
    d = parse_distances(payload)
    if d.n != 3:
        raise SchemaError("'pompeiu' needs exactly 3 distances")
    return d.values


def command(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """``pompeiu``: the triple's triangle and fit, and with ``construct`` its vertices."""
    tri = pompeiu_from_distances(*parse_triangle(payload), tol)
    dual = solve_equilateral(tri)
    out: dict[str, Any] = {
        "area": tri.area,
        "degenerate": tri.degenerate,
        "weitzenbock_margin": tri.weitzenbock_margin,
        "side_larger": dual.side_larger,
        "side_smaller": dual.side_smaller,
        "solution": solution_json(dual.solution),
    }
    if payload.get("construct"):
        tp = construct_triangles(tri)
        out["construction"] = {
            "point": tp.point._asdict(),
            "larger": [v._asdict() for v in tp.larger],
            "smaller": [v._asdict() for v in tp.smaller],
        }
    return out
