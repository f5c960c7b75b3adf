"""Recover the two size-parameter pairs behind a vertex-distance list.

For a point at distance l from the center of a regular n-gon of
circumradius r, d_k^2 = r^2 + l^2 + 2*r*l*cos(psi + 2*pi*k/n).  The mean
s2 = r^2 + l^2 and the modulus P = r*l of the first Fourier coefficient
of the squared distances fix {r, l}; its two assignments describe two
non-congruent regular polygons realizing the same distances, a larger one
whose circumcircle contains the point and a smaller one whose
circumcircle does not.  ``solve`` is the one place the pair is fitted and
realizability and the degenerate classes judged, for every n: r = l puts
the point on the circumcircle, l = 0 at the center.  ``polygons`` is the
one place both polygons are placed.  ``command`` answers the CLI's
``dual``, judging the fit by the distances its polygon gives, and
``solution_json`` prints a fit for it and for ``pompeiu``.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Any, NamedTuple

from .errors import Degeneracy, RealizabilityError, SchemaError, TriangleInequalityError
from .geometry import (TWO_PI, DistanceSpec, Point2, RegularPolygonSpec, distances_from,
                       parse_distances, verify_permutation)


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
    #: psi in d_k^2 = r^2 + l^2 + 2*r*l*cos(psi + 2*pi*k/n), the largest distance at k = 0.
    phase: float


#: Relative rounding a fit may carry: each degeneracy band's width, and what tol = 0 allows.
_SLACK = 64.0 * sys.float_info.epsilon


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
    root is 2P/(A + B), which needs no subtraction.  Near the circle s2 - 2P
    cancels, so when the smallest distance u, at the slot angle theta
    nearest pi, gives B^2 = u^2 - 4P*cos^2(theta/2) within the rounding of
    s2 - 2P (64*sqrt(n)*eps*s2), as a polygon's list does, B^2 comes from u
    and a vertex next to the point keeps its distance.  B^2 at most
    64*eps*(u + 2P*(pi - |theta|)) is the double root r = l on the
    circumcircle; l/r within 64*eps*(1 + (l/r)^2) of zero puts the point at
    the center.  For n >= 4, (s2 + 2P)(s2 - 2P) below -(tol +
    64*sqrt(n)*eps)*s2^2 means no regular polygon realizes the distances.
    For n = 3 Pompeiu's theorem decides instead: three distances are
    realizable exactly when they form a triangle, whose (16/3)*area^2 is
    the discriminant, and a largest distance a above the sum of the others
    by more than (tol + 64*sqrt(3)*eps)*a is a ``TriangleInequalityError``
    naming the sorted sides.  Only scaled values are squared, and results
    scale back by products: they read inf or 0 only outside the float
    range.  ``command`` judges the fit.
    """
    values = sorted(d.values, reverse=True)
    rounding = _SLACK * math.sqrt(d.n)  # of s2 - 2P: measured <= 1.4*sqrt(n)*eps, n 3-1e5
    if d.n == 3:
        gap = values[0] - (values[1] + values[2])
        if gap > (tol + rounding) * values[0]:
            raise TriangleInequalityError(
                "largest distance exceeds the sum of the others", sides=tuple(values), gap=gap
            )
    m = values[0] or 1.0  # all-zero distances: nothing to scale
    squares = [(v / m) * (v / m) for v in values]
    cos_t, sin_t = _slot_tables(d.n)
    s2 = math.fsum(squares) / d.n
    # twice the first Fourier coefficient of the squares: 2P*cos(psi), -2P*sin(psi);
    # added left to right, since the builtin sum compensates from Python 3.12
    re = im = 0.0
    for q, c, s in zip(squares, cos_t, sin_t):
        q -= s2
        re += q * c
        im += q * s
    re, im = 2.0 * re / d.n, 2.0 * im / d.n
    two_p = math.hypot(re, im)
    disc = (s2 + two_p) * (s2 - two_p)
    if d.n > 3 and disc < -(tol + rounding) * (s2 * s2):
        raise RealizabilityError(
            "no regular polygon realizes these distances (the fitted squares dip below 0)",
            discriminant=disc * m * m * m * m,
            mean_square=s2 * m * m,
        )
    a, psi = math.sqrt(s2 + two_p), math.atan2(-im, re)
    b2, cut = s2 - two_p, 0.0
    if b2 <= 1e-9 * math.sqrt(d.n) * s2:  # where the rounding of s2 - 2P could show
        g = math.pi - abs(math.remainder(psi + math.atan2(sin_t[-1], cos_t[-1]), TWO_PI))
        u, h = values[-1] / m, math.sin(0.5 * g)
        fine = u * u - 2.0 * two_p * h * h
        b2 = fine if abs(fine - b2) <= rounding * s2 else b2
        cut = _SLACK * (u + two_p * g)
    if b2 <= cut:  # also every clamped discriminant
        b, r, l, degeneracy = 0.0, 0.5 * a, 0.5 * a, Degeneracy.ON_CIRCUMCIRCLE
    else:
        b = math.sqrt(b2)
        r, l = 0.5 * (a + b), two_p / (a + b)
        t = l / r  # l = 0 up to rounding puts the point at the center
        degeneracy = Degeneracy.AT_CENTER if t <= _SLACK * (1.0 + t * t) else Degeneracy.NONE
    r, l, ab = r * m, l * m, a * b * m * m
    pair = RadiusDistancePair(r, l)
    return DualSolution(s2 * m * m, ab * ab, pair, RadiusDistancePair(l, r), degeneracy, psi)


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
    """``dual``: the fit, and ``verify_permutation`` of the list against its larger polygon
    (so at most ``MAX_VERTICES`` distances); a polygon past the float range is a schema error."""
    d = parse_distances(payload)
    sol = solve(d, tol)
    larger = polygons(sol, d.n)[0]
    try:
        fitted = distances_from(Point2(0.0, 0.0), larger)
    except SchemaError:
        raise SchemaError("the fitted polygon's vertices leave the float range") from None
    match = verify_permutation(d, fitted, tol)
    return {**solution_json(sol), "consistency": {"passed": match.ok, "residual": match.residual}}
