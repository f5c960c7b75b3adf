"""Deterministic SVG emission for solved configurations.

Scenes carry plain geometry (polygons, construction circles, point
markers, labels, and distance segments as spokes from a point to every
vertex of one polygon); the emitter fits the viewBox with a 10% margin
and flips the y axis so figures match mathematical orientation.
Identical scenes produce byte-identical documents.  Each
polygon's ``vertex_coords`` are built once and feed its outline, its
spokes and its labels; each vertex is formatted once for the outline and
the spokes alike.  ``command`` answers the CLI's ``render``.  At module
level this imports only errors and geometry; each scene of ``command``
imports the modules that solve it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, NamedTuple

from .errors import SchemaError
from .geometry import Point2, RegularPolygonSpec, vertex_coords

if TYPE_CHECKING:
    from .reconstruct import DualPolygonPair
    from .two_points import TwoPointsSolution

_STROKES = {
    "polygon": "#1f4e79",
    "construction-circle": "#888888",
    "distance-segment": "#b05923",
    "point-marker": "#a01010",
}


class Scene(NamedTuple):
    polygons: tuple[tuple[RegularPolygonSpec, str], ...] = ()  # (spec, label prefix)
    circles: tuple[tuple[Point2, float], ...] = ()
    markers: tuple[tuple[Point2, str], ...] = ()
    # (q, k): a distance segment from q to each vertex of polygons[k], in vertex order
    spokes: tuple[tuple[Point2, int], ...] = ()


def scene_from_dual_pair(pair: DualPolygonPair, include_mirror: bool = False) -> Scene:
    """Original polygon, companion(s), both circumcircles, auxiliary circle.

    The auxiliary circle about the point passes through vertex 0 of A, B
    and C, which are equally far from it.
    """
    p = pair.primary_polygon
    polys: list[tuple[RegularPolygonSpec, str]] = [(p, "A"), (pair.b_polygon, "B")]
    if include_mirror:
        polys.append((pair.c_polygon, "C"))
    b = pair.b_polygon  # its vertex 0 sits at angle phase + step*0 == phase
    aux = math.hypot(pair.point.x - (b.center.x + b.circumradius * math.cos(b.phase)),
                     pair.point.y - (b.center.y + b.circumradius * math.sin(b.phase)))
    circles = (
        (p.center, p.circumradius),
        (b.center, b.circumradius),
        (pair.point, aux),
    )
    return Scene(
        polygons=tuple(polys),
        circles=circles,
        markers=((pair.point, "M"),),
        spokes=((pair.point, 0),),
    )


def scene_from_two_points(
    pa: RegularPolygonSpec, pb: RegularPolygonSpec, sol: TwoPointsSolution
) -> Scene:
    """Both polygons, the two swapped-radius circles, the matched point(s)."""
    markers = [(sol.m1, "M1")]
    if sol.m2 is not None:
        markers.append((sol.m2, "M2"))
    circles = (
        (pb.center, pa.circumradius),
        (pa.center, pb.circumradius),
    )
    return Scene(
        polygons=((pa, "A"), (pb, "B")),
        circles=circles,
        markers=tuple(markers),
    )


def scene_from_triangles(larger: RegularPolygonSpec, smaller: RegularPolygonSpec) -> Scene:
    """Both triangles about the point at the origin, with a spoke to each vertex."""
    origin = Point2(0.0, 0.0)
    return Scene(
        polygons=((larger, "A"), (smaller, "B")),
        markers=((origin, "M"),),
        spokes=((origin, 0), (origin, 1)),
    )


def _scene_bounds(scene: Scene) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for p, _ in scene.polygons:
        xs += [p.center.x - p.circumradius, p.center.x + p.circumradius]
        ys += [p.center.y - p.circumradius, p.center.y + p.circumradius]
    for c, r in scene.circles:
        xs += [c.x - r, c.x + r]
        ys += [c.y - r, c.y + r]
    for q, _ in scene.markers:
        xs.append(q.x)
        ys.append(q.y)
    # a spoke adds only its point: each vertex coordinate rounds within its
    # polygon's box [c - r, c + r] above (|cos| <= 1, so r*cos rounds into
    # [-r, r], and rounded addition is monotone), and that box comes earlier
    # in the lists, so min and max return the same floats, signed zeros too
    for q, _ in scene.spokes:
        xs.append(q.x)
        ys.append(q.y)
    if not xs:
        return (-1.0, -1.0, 1.0, 1.0)
    return (min(xs), min(ys), max(xs), max(ys))


def render_svg(scene: Scene) -> str:
    """Emit the scene as an SVG 1.1 document (y axis up); SchemaError past the float range."""
    coords = [vertex_coords(p) for p, _ in scene.polygons]
    x0, y0, x1, y1 = _scene_bounds(scene)
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.1 * span
    vx, vy = x0 - margin, y0 - margin
    vw, vh = (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin
    # every number printed below is at most one of these in magnitude, and
    # rounding to 8 digits is monotone, so if these print finite, all do
    if not all(math.isfinite(float(f"{v:.8g}")) for v in (vx, vy, vx + vw, vy + vh, vw, vh)):
        raise SchemaError("the scene's extent is outside the float range")
    stroke = 0.005 * span
    marker_r = 0.012 * span
    offset = 1.2 * marker_r  # labels sit this far from their vertex or marker
    # the attributes every element of a kind shares are formatted once
    width = "%.8g" % stroke
    circle = (
        '<circle class="construction-circle" cx="%%.8g" cy="%%.8g" r="%%.8g" fill="none" '
        'stroke="%s" stroke-width="%s" stroke-dasharray="%.8g %.8g"/>'
        % (_STROKES["construction-circle"], width, 4 * stroke, 3 * stroke)
    )
    polygon = (
        '<polygon class="polygon" points="%%s" fill="none" stroke="%s" stroke-width="%.8g"/>'
        % (_STROKES["polygon"], 1.6 * stroke)
    )
    segment_end = 'stroke="%s" stroke-width="%s"/>' % (_STROKES["distance-segment"], width)
    marker = (
        '<circle class="point-marker" cx="%%.8g" cy="%%.8g" r="%.8g" fill="%s"/>'
        % (marker_r, _STROKES["point-marker"])
    )
    # a label's text is a prefix and a vertex number, or a marker's text and ""
    label = '<text class="label" x="%%.8g" y="%%.8g" font-size="%.8g">%%s%%s</text>' % (
        0.035 * span)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{vx:.8g} {-(vy + vh):.8g} {vw:.8g} {vh:.8g}">',
        '<g transform="scale(1,-1)">',
    ]
    lines += [circle % (c.x, c.y, radius) for c, radius in scene.circles]
    # each vertex is formatted once, for its outline and its spokes alike
    texts = [[("%.8g" % x, "%.8g" % y) for x, y in xys] for xys in coords]
    lines += [polygon % " ".join(map(",".join, xy_texts)) for xy_texts in texts]
    for q, k in scene.spokes:
        start = '<line class="distance-segment" x1="%.8g" y1="%.8g"' % (q.x, q.y)
        lines += [f'{start} x2="{x}" y2="{y}" {segment_end}' for x, y in texts[k]]
    lines += [marker % (q.x, q.y) for q, _ in scene.markers]
    lines.append("</g>")
    # labels live outside the flipped group so the glyphs stay upright
    for (_, prefix), xys in zip(scene.polygons, coords):
        lines += [
            label % (x + offset, -(y + offset), prefix, i)
            for i, (x, y) in enumerate(xys, start=1)
        ]
    lines += [label % (q.x + offset, -(q.y - offset), text, "") for q, text in scene.markers]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def command(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """``render``: the SVG of the payload's scene."""
    scene_kind = payload.get("scene")
    if scene_kind == "dual":
        from .reconstruct import dual_pair

        scene = scene_from_dual_pair(dual_pair(payload), include_mirror=bool(payload.get("mirror")))
    elif scene_kind == "two-points":
        from .two_points import polygon_pair, two_points

        pa, pb = polygon_pair(payload)
        scene = scene_from_two_points(pa, pb, two_points(pa, pb, tol))
    elif scene_kind == "pompeiu":
        from .pompeiu import parse_triangle, pompeiu_from_distances, triangles

        scene = scene_from_triangles(
            *triangles(pompeiu_from_distances(*parse_triangle(payload), tol))
        )
    else:
        raise SchemaError("'scene' must be one of dual, two-points, pompeiu")
    return {"svg": render_svg(scene)}
