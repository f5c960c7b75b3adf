"""Means of even powers of vertex distances and their closure identities.

For a point at distance ``l`` from the center of a regular n-gon with
circumradius ``r``, the mean of the 2m-th powers of the vertex distances
does not depend on where the vertices sit on the circumcircle as long as
m <= n-1: it equals the mean over the whole circumcircle.  A configuration
therefore carries n-1 rotation-invariant numbers, and once the first two
are known the rest are forced, which yields closure identities any
realizable distance list must satisfy.  The circle means obey the
three-term recurrence of the Legendre polynomials (Laplace's integral),
so the n-1 means that the first two force cost O(n), for any n.
``command`` answers the CLI's ``averages``.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import reduce
from operator import add
from typing import Any, NamedTuple

from .errors import SchemaError
from .geometry import DistanceSpec, parse_distances


class CyclicAverages(namedtuple("CyclicAverages", "n values")):
    """The n-1 even-power means; entry m-1 holds the mean of d_i^(2m)."""

    __slots__ = ()

    def __new__(cls, n: int, values: tuple[float, ...]) -> "CyclicAverages":
        vals = tuple(float(v) for v in values)
        if n < 3:
            raise SchemaError(f"need n >= 3, got {n}")
        if len(vals) != n - 1:
            raise SchemaError(f"expected {n - 1} entries, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v) or v < 0.0:
                raise SchemaError(f"entries must be finite and >= 0, got {v}")
        return tuple.__new__(cls, (n, vals))


class ConsistencyCheck(NamedTuple):
    order: int  # half-power index m; the check covers the mean of d^(2m)
    expected: float
    actual: float
    residual: float
    passed: bool


class ConsistencyReport(NamedTuple):
    checks: tuple[ConsistencyCheck, ...]
    moment_inequality_ok: bool
    passed: bool


def _power_means(s2: float, spread: float, count: int) -> list[float]:
    """Means of d^2, ..., d^(2*count) from s2 = mean(d^2) and spread = mean(d^4) - s2^2.

    With d^2 = s2 + b*cos(t) and b^2 = 2*spread, the circle mean M_m of
    d^(2m) follows Legendre's recurrence (m+1) M_(m+1) = (2m+1) s2 M_m -
    m (s2^2 - 2*spread) M_(m-1).  It is run on the increments
    E_m = M_m - s2*M_(m-1): (m+1) E_(m+1) = m (s2 E_m + 2*spread*M_(m-1)).
    For spread >= 0 every term is nonnegative, so nothing cancels and
    rounding grows linearly in m; the three-term form cancels when spread
    is small and loses digits as m^2.
    """
    means = [1.0, s2]
    step = 0.0
    for m in range(1, count):
        step = m * (s2 * step + 2.0 * spread * means[m - 1]) / (m + 1)
        means.append(s2 * means[m] + step)
    return means[1:]


def _mean(terms: list[float]) -> float:
    """Compensated mean; a sum past the float range is inf, as a term would be."""
    try:
        return math.fsum(terms) / len(terms)
    except OverflowError:
        return math.inf


def averages_from_distances(d: DistanceSpec) -> CyclicAverages:
    """Even-power means straight from the definition.

    Per-term powers are built by repeated multiplication of the squared
    distances, sorted ascending once, so every power stays in that order.
    The means of orders 1 and 2 are summed with compensation, since
    ``check_consistency`` derives every expected mean from those two.
    The higher orders are added left to right, since ``math.fsum`` slows
    as the terms span more binary exponents; the terms are nonnegative,
    so such a sum is within (n-1)*eps relative, a bound that ascending
    order tightens best (Higham 2002, section 4.2).  The means therefore
    depend on the multiset of distances only, not on their order.
    """
    squares = current = sorted(v * v for v in d.values)
    vals = [_mean(squares)]
    for m in range(2, d.n):
        current = [c * q for c, q in zip(current, squares)]
        vals.append(_mean(current) if m == 2 else reduce(add, current) / d.n)
    return CyclicAverages(d.n, tuple(vals))


def check_consistency(avgs: CyclicAverages, tol: float = 1e-8) -> ConsistencyReport:
    """Verify the closure identities the higher means must satisfy.

    For each m in 3..n-1 the mean of d^(2m) is recomputed from the first
    two means and compared against the stored entry, relative to the
    larger of the two, at max(tol, 2*m^2*eps): spread = s4 - s2^2 carries
    about 3*eps*s2^2 of rounding, and s2^2 * dM_m/d(spread) <= C(m, 2) * M_m
    term by term in the circle mean's binomial expansion, so the check's
    own error is up to 3*eps*C(m, 2) < 1.5*m^2*eps relative, plus O(m*eps)
    from the powers and the recurrence.  These conditions are necessary
    for realizability; a failing check is a result, not an error.
    """
    s2 = avgs.values[0]
    s4 = avgs.values[1]
    spread = s4 - s2 * s2
    means = _power_means(s2, spread, avgs.n - 1)
    checks = []
    for m in range(3, avgs.n):
        expected = means[m - 1]
        actual = avgs.values[m - 1]
        residual = abs(actual - expected)
        floor = max(tol, 2.0 * m * m * sys.float_info.epsilon)
        passed = residual <= floor * max(abs(expected), abs(actual))
        checks.append(ConsistencyCheck(m, expected, actual, residual, passed))
    moment_ok = spread >= -tol * (s2 * s2)
    return ConsistencyReport(
        tuple(checks), moment_ok, moment_ok and all(c.passed for c in checks)
    )


def command(payload: dict[str, Any], tol: float) -> dict[str, Any]:
    """``averages``: the means of the payload's distances and their closure checks."""
    avgs = averages_from_distances(parse_distances(payload))
    report = check_consistency(avgs, max(tol, 1e-12))
    return {
        "n": avgs.n,
        "values": list(avgs.values),
        "consistency": {
            "passed": report.passed,
            "moment_inequality_ok": report.moment_inequality_ok,
            "checks": [c._asdict() for c in report.checks],
        },
    }
