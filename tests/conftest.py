"""Shared helpers: seeded random configurations for the property suites, and exact oracle results."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, settings

from polydual.geometry import Point2, RegularPolygonSpec, vertex_coords

settings.register_profile(
    "geometry",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("geometry")

TWO_PI = 2.0 * math.pi


def random_configuration(
    rng: np.random.Generator,
    n: int | None = None,
    *,
    n_range: tuple[int, int] = (3, 12),
    ratio_range: tuple[float, float] = (0.0, 3.0),
    ratio_gap: float = 1e-3,
) -> tuple[RegularPolygonSpec, Point2]:
    """Polygon plus point, with the point kept off the circumcircle."""
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    radius = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    ratio = float(rng.uniform(*ratio_range))
    while abs(ratio - 1.0) < ratio_gap:
        ratio = float(rng.uniform(*ratio_range))
    phase = float(rng.uniform(0.0, TWO_PI))
    az = float(rng.uniform(0.0, TWO_PI))
    cx, cy = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
    poly = RegularPolygonSpec(n, Point2(cx, cy), radius, phase)
    dist = ratio * radius
    point = Point2(cx + dist * math.cos(az), cy + dist * math.sin(az))
    return poly, point


def shared_vertex_pair(
    rng: np.random.Generator,
    n: int | None = None,
    *,
    collinear: bool = False,
) -> tuple[RegularPolygonSpec, RegularPolygonSpec, Point2]:
    """Two non-congruent same-n polygons sharing one exact vertex."""
    if n is None:
        n = int(rng.integers(3, 13))
    r_a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    phase_a = float(rng.uniform(0.0, TWO_PI))
    pa = RegularPolygonSpec(n, Point2(0.0, 0.0), r_a, phase_a)
    i = int(rng.integers(0, n))
    v = Point2(*vertex_coords(pa)[i])
    ratio = float(rng.uniform(0.2, 2.5))
    while abs(ratio - 1.0) < 1e-3:
        ratio = float(rng.uniform(0.2, 2.5))
    r_b = ratio * r_a
    j = int(rng.integers(0, n))
    if collinear:
        base = math.atan2(v.y - pa.center.y, v.x - pa.center.x)
        psi = base if rng.uniform() < 0.5 else base + math.pi
    else:
        psi = float(rng.uniform(0.0, TWO_PI))
    center_b = Point2(v.x + r_b * math.cos(psi), v.y + r_b * math.sin(psi))
    phase_b = (psi + math.pi) - TWO_PI * j / n
    pb = RegularPolygonSpec(n, center_b, r_b, phase_b)
    return pa, pb, v


def rotate_about(p: Point2, center: Point2, angle: float) -> Point2:
    """``p`` turned about ``center`` by ``angle`` radians, counterclockwise."""
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = p.x - center.x, p.y - center.y
    return Point2(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


def _result_hex(res):
    """An ``OracleResult`` with every float as ``float.hex()``."""
    polygon = res.polygon
    if polygon is not None:
        polygon = tuple(
            v.hex() for v in (polygon.center.x, polygon.center.y, polygon.circumradius, polygon.phase)
        )
    return res.found, res.samples_evaluated, res.residual.hex(), polygon
