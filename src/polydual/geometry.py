"""Planar primitives: points, regular polygons, vertex distances and the
one comparison of two distance lists as multisets.

All types are immutable tuple records and every function is pure, so
everything here can be shared freely across threads.  Vertices come from
one float kernel, :func:`vertex_coords`, as (x, y) floats.  The
``parse_*`` readers build the records from a command's payload values.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, NamedTuple

from .errors import SchemaError, parse_number

TWO_PI = 2.0 * math.pi

#: The most vertices a polygon may have: building a million takes seconds.
MAX_VERTICES = 10**6


def normalize_angle(angle: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = angle % TWO_PI
    # a tiny negative input can round up to exactly 2*pi
    return 0.0 if a >= TWO_PI else a


class Point2(namedtuple("Point2", "x y")):
    __slots__ = ()

    def __new__(cls, x: float, y: float) -> "Point2":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise SchemaError(f"coordinates must be finite, got ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def azimuth(origin: Point2, target: Point2) -> float:
    """Angle of the ray origin -> target, counterclockwise from the +x axis."""
    return math.atan2(target.y - origin.y, target.x - origin.x)


class RegularPolygonSpec(namedtuple("RegularPolygonSpec", "n center circumradius phase")):
    """A regular n-gon given by center, circumradius and first-vertex angle.

    ``circumradius == 0`` is allowed as an explicit degenerate carrier; all
    vertices then collapse onto the center.  The phase is normalized to
    [0, 2*pi) on construction.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, center: Point2, circumradius: float, phase: float = 0.0
    ) -> "RegularPolygonSpec":
        if not 3 <= n <= MAX_VERTICES:
            raise SchemaError(f"need at least 3 vertices and at most {MAX_VERTICES}, got n={n}")
        if not math.isfinite(circumradius) or circumradius < 0.0:
            raise SchemaError(f"circumradius must be finite and >= 0, got {circumradius}")
        if not math.isfinite(phase):
            raise SchemaError("phase must be finite")
        return tuple.__new__(cls, (n, center, circumradius, normalize_angle(phase)))


class DistanceSpec(namedtuple("DistanceSpec", "values")):
    """Ordered distances from one point to the n polygon vertices."""

    __slots__ = ()

    def __new__(cls, values: tuple[float, ...]) -> "DistanceSpec":
        vals = tuple(map(float, values))
        if len(vals) < 3:
            raise SchemaError(f"need at least 3 distances, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v) or v < 0.0:
                raise SchemaError(f"distances must be finite and >= 0, got {v}")
        return tuple.__new__(cls, (vals,))

    @property
    def n(self) -> int:
        return len(self.values)


def parse_angle(value: Any, name: str) -> float:
    """Radians, or degrees as text ending in ``deg``; a non-finite angle is a schema error."""
    if isinstance(value, str) and value.strip().endswith("deg"):
        angle = math.radians(parse_number(value.strip()[:-3], name))
    else:
        angle = parse_number(value, name)
    if not math.isfinite(angle):
        raise SchemaError(f"'{name}' must be a finite angle, got {value!r}")
    return angle


def parse_distances(payload: dict[str, Any]) -> DistanceSpec:
    raw = payload.get("distances")
    if not isinstance(raw, (list, tuple)):
        raise SchemaError("'distances' must be an array of numbers")
    return DistanceSpec(tuple(parse_number(v, f"distances[{i}]") for i, v in enumerate(raw)))


def parse_point(obj: Any, name: str) -> Point2:
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise SchemaError(f"'{name}' must be an object with 'x' and 'y'")
    return Point2(parse_number(obj["x"], f"{name}.x"), parse_number(obj["y"], f"{name}.y"))


def parse_polygon(obj: Any, name: str) -> RegularPolygonSpec:
    if not isinstance(obj, dict):
        raise SchemaError(f"'{name}' must be an object with n, center, r, phase")
    for key in ("n", "center", "r"):
        if key not in obj:
            raise SchemaError(f"'{name}' is missing '{key}'")
    return RegularPolygonSpec(
        parse_number(obj["n"], f"{name}.n", int),
        parse_point(obj["center"], f"{name}.center"),
        parse_number(obj["r"], f"{name}.r"),
        parse_angle(obj.get("phase", 0.0), f"{name}.phase"),
    )


class PermutationMatch(NamedTuple):
    ok: bool
    permutation: tuple[int, ...]
    residual: float


def verify_permutation(
    d: DistanceSpec, x: DistanceSpec, tol: float = 1e-9
) -> PermutationMatch:
    """Best index pairing of the two lists: pi with x[pi[i]] matching d[i].

    This is the package's one sorted-multiset comparison.  Matching in
    sorted order minimizes the largest pairwise gap, so the reported
    residual is the best achievable over all permutations; the
    permutation itself is returned even on failure.  The lists match within
    tol, at least 1e-10, times their largest value: computed distances carry
    rounding, between a polygon's list and its ``dual`` fit up to 3.2e-13 of
    it (n 3-4096), 5.1e-12 near the circle (n 3-2e4).  Unequal lengths are a caller bug.
    """
    if d.n != x.n:
        raise ValueError(f"distance lists differ in length: {d.n} != {x.n}")
    dv, xv = d.values, x.values
    order_d = sorted(range(d.n), key=dv.__getitem__)
    order_x = sorted(range(x.n), key=xv.__getitem__)
    perm = [0] * d.n
    residual = 0.0
    for i, j in zip(order_d, order_x):
        perm[i] = j
        residual = max(residual, abs(dv[i] - xv[j]))
    scale = max(dv[order_d[-1]], xv[order_x[-1]])
    return PermutationMatch(residual <= max(tol, 1e-10) * scale, tuple(perm), residual)


def vertex_bound(p: RegularPolygonSpec) -> float:
    """A bound on the magnitude of every vertex coordinate; when it is finite, so are they.

    |c + r*cos| never rounds above |c| + r, so this one sum per polygon
    stands in for the finiteness check of each ``Point2``.
    """
    return max(abs(p.center.x), abs(p.center.y)) + p.circumradius


def vertex_coords(p: RegularPolygonSpec) -> list[tuple[float, float]]:
    """Vertex i at angle phase + 2*pi*i/n, counterclockwise, as (x, y) floats.

    Finite by :func:`vertex_bound`, or checked vertex by vertex when that
    bound overflows.
    """
    cx, cy, r, phase = p.center.x, p.center.y, p.circumradius, p.phase
    step = TWO_PI / p.n
    coords = [
        (cx + r * math.cos(a), cy + r * math.sin(a))
        for i in range(p.n)
        for a in (phase + step * i,)  # each angle is computed once
    ]
    if not math.isfinite(vertex_bound(p)):
        for xy in coords:
            Point2(*xy)  # raises at the first vertex that overflowed
    return coords


def distances_to(point: Point2, coords: list[tuple[float, float]]) -> DistanceSpec:
    """Euclidean distances from ``point`` to each of ``coords``, in order.

    Computed by coordinate subtraction rather than the law of cosines; the
    direct form has no cancellation blow-up near the circumcircle.
    """
    px, py = point.x, point.y
    return DistanceSpec(tuple(math.hypot(px - x, py - y) for x, y in coords))


def distances_from(point: Point2, p: RegularPolygonSpec) -> DistanceSpec:
    """Distances from ``point`` to each vertex of ``p``, in vertex order."""
    return distances_to(point, vertex_coords(p))
