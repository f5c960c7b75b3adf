"""Recover the two size-parameter pairs behind a vertex-distance list.

For a point at distance l from the center of a regular n-gon of
circumradius r, d_k^2 = r^2 + l^2 + 2*r*l*cos(psi + 2*pi*k/n).  The mean
s2 = r^2 + l^2 and the modulus P = r*l of the first Fourier coefficient
of the squared distances fix {r, l}; its two assignments describe two
non-congruent regular polygons realizing the same distances, a larger one
whose circumcircle contains the point and a smaller one whose
circumcircle does not.  ``solve`` is the one place the pair is fitted and
realizability judged, for every n, ``polygons`` the one place both
polygons are placed, and ``classify`` the degeneracy rule for fitted
sizes: r = l puts the point on the circumcircle, l = 0 at the center.
``command`` answers the CLI's ``dual``, and ``solution_json`` prints a fit
for it and for ``pompeiu``.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Any, NamedTuple

from .errors import Degeneracy, RealizabilityError, TriangleInequalityError
from .geometry import TWO_PI, DistanceSpec, Point2, RegularPolygonSpec, parse_distances


class RadiusDistancePair(NamedTuple):
    """A polygon circumradius together with the point-to-center distance."""

    circumradius: float
    center_distance: float


class DualSolution(NamedTuple):
    mean_square: float
    discriminant: float
    larger: RadiusDistancePair
    smaller: RadiusDistancePair
    degeneracy: Degeneracy
    #: Largest misfit of the squared distances, relative to max(d)^2.
    residual: float
    #: psi in d_k^2 = r^2 + l^2 + 2*r*l*cos(psi + 2*pi*k/n), the largest distance at k = 0.
    phase: float


def classify(r: float, l: float) -> Degeneracy:
    """Where the point sits, from the ratio t = min(r, l)/max(r, l) alone.

    A class is declared when (1 - t)^2 or t is within 64*eps*(1 + t^2)
    of zero, about the rounding the fit itself leaves on them.
    """
    hi, lo = (r, l) if r >= l else (l, r)
    t = lo / hi if hi > 0.0 else 1.0
    slack = 64.0 * sys.float_info.epsilon * (1.0 + t * t)
    if (1.0 - t) * (1.0 - t) <= slack:
        return Degeneracy.ON_CIRCUMCIRCLE
    if t <= slack:
        return Degeneracy.AT_CENTER
    return Degeneracy.NONE


@functools.lru_cache(maxsize=256)
def _slot_tables(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """cos and sin of the slot angles 2*pi*s/n for s = 0, -1, +1, -2, +2, ..."""
    slots = [(j + 1) // 2 * (1 if j % 2 == 0 else -1) for j in range(n)]
    angles = [TWO_PI * s / n for s in slots]
    return tuple(math.cos(a) for a in angles), tuple(math.sin(a) for a in angles)


def solve(d: DistanceSpec, tol: float = 1e-9) -> DualSolution:
    """Both parameter pairs from a second-order phase fit of the squared distances.

    The distances are scaled by their maximum m, sorted in descending
    order and put at the cyclic slots 0, -1, +1, -2, +2, ...: a regular
    polygon's vertices get farther from the point in that order (up to
    mirror), so any permutation of the input gives the same answer.  With
    A = r + l = sqrt(s2 + 2P) and B = |r - l| = sqrt(s2 - 2P), the small
    root is 2P/(A + B), which needs no subtraction.  For n >= 4,
    (s2 + 2P)(s2 - 2P) within -tol*s2^2 of zero is clamped to the double
    root r = l on the circumcircle; below that no regular polygon realizes
    the distances.  For n = 3 Pompeiu's theorem decides instead: three
    distances are realizable exactly when they form a triangle, whose
    (16/3)*area^2 is the discriminant.  A largest distance a that exceeds
    the sum of the others by at most tol*a is clamped the same way, and
    beyond that is a ``TriangleInequalityError`` naming the sorted sides.
    Only scaled values are squared, and results scale back by products:
    they read inf or 0 only outside the float range.
    """
    values = sorted(d.values, reverse=True)
    if d.n == 3:
        gap = values[0] - (values[1] + values[2])
        if gap > tol * values[0]:
            raise TriangleInequalityError(
                "largest distance exceeds the sum of the others", sides=tuple(values), gap=gap
            )
    m = values[0] or 1.0  # all-zero distances: nothing to scale
    squares = [(v / m) * (v / m) for v in values]
    cos_t, sin_t = _slot_tables(d.n)
    s2 = math.fsum(squares) / d.n
    dev = [q - s2 for q in squares]
    # twice the first Fourier coefficient of the squares: 2P*cos(psi), -2P*sin(psi);
    # added left to right, since the builtin sum compensates from Python 3.12
    re = im = 0.0
    for q, c, s in zip(dev, cos_t, sin_t):
        re += q * c
        im += q * s
    re = 2.0 * re / d.n
    im = 2.0 * im / d.n
    two_p = math.hypot(re, im)
    disc = (s2 + two_p) * (s2 - two_p)
    if d.n > 3 and disc < -tol * (s2 * s2):
        raise RealizabilityError(
            "no regular polygon realizes these distances (the fitted squares dip below 0)",
            discriminant=disc * m * m * m * m,
            mean_square=s2 * m * m,
        )
    residual = max([abs(x - (re * c + im * s)) for x, c, s in zip(dev, cos_t, sin_t)])
    a = math.sqrt(s2 + two_p)
    b = math.sqrt(max(s2 - two_p, 0.0))
    r, l = 0.5 * (a + b), (two_p / (a + b) if a else 0.0)
    # B = 0 is the clamp, however far below zero the discriminant was
    degeneracy = classify(r, l) if b else Degeneracy.ON_CIRCUMCIRCLE
    if degeneracy is Degeneracy.ON_CIRCUMCIRCLE:
        # the double root: r = l up to rounding, so the noise in B is dropped
        b, r, l = 0.0, 0.5 * a, 0.5 * a
    r, l, ab = r * m, l * m, a * b * m * m
    pair = RadiusDistancePair(r, l)
    return DualSolution(s2 * m * m, ab * ab, pair, RadiusDistancePair(l, r), degeneracy,
                        residual, math.atan2(-im, re))


def polygons(sol: DualSolution, n: int) -> tuple[RegularPolygonSpec, RegularPolygonSpec]:
    """The fitted pair with the point at the origin: (l, 0) and radius r, (r, 0) and radius l.

    Both put vertex k at angle psi + 2*pi*k/n, so it lies at the fitted
    d_k from the origin, which swapping r and l leaves unchanged: vertex 0
    is the farthest in both.  r = l makes them congruent; l = 0 collapses the smaller.
    """
    r, l = sol.larger
    return (RegularPolygonSpec(n, Point2(l, 0.0), r, sol.phase),
            RegularPolygonSpec(n, Point2(r, 0.0), l, sol.phase))


#: Where the point sits relative to the larger polygon's circumcircle, by
#: ``Degeneracy`` value.
_POINT_CLASS = {
    "none": "inside_larger",
    "on_circumcircle": "on_circle",
    "at_center": "center_degenerate",
}


def solution_json(sol: DualSolution) -> dict[str, Any]:
    """A fit as ``dual`` and ``pompeiu`` print it."""
    return {
        "mean_square": sol.mean_square,
        "discriminant": sol.discriminant,
        "larger": sol.larger._asdict(),
        "smaller": sol.smaller._asdict(),
        "degeneracy": sol.degeneracy.value,
        "point_class": _POINT_CLASS[sol.degeneracy.value],
    }


def command(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """``dual``: the fit of the payload's distances, judged by its residual."""
    sol = solve(parse_distances(payload), tol)
    out = solution_json(sol)
    residual = sol.residual
    out["consistency"] = {"passed": residual <= max(tol, 1e-12), "residual": residual}
    return out
