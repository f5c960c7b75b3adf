"""Means of even powers of vertex distances and their closure identities.

For a point at distance ``l`` from the center of a regular n-gon with
circumradius ``r``, the mean of the 2m-th powers of the vertex distances
does not depend on where the vertices sit on the circumcircle as long as
m <= n-1: it is a polynomial in r and l alone.  A configuration therefore
carries n-1 rotation-invariant numbers, and once the first two are known
the rest are forced, which yields closure identities any realizable
distance list must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import DistanceSpec

#: Largest vertex count accepted by default; power sums of order 2(n-1)
#: on doubles degrade past this.
DEFAULT_MAX_N = 64


@dataclass(frozen=True)
class CyclicAverages:
    """The n-1 even-power means; entry m-1 holds the mean of d_i^(2m)."""

    n: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if len(vals) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} entries, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"entries must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class ConsistencyCheck:
    order: int  # half-power index m; the check covers the mean of d^(2m)
    expected: float
    actual: float
    residual: float
    passed: bool


@dataclass(frozen=True)
class ConsistencyReport:
    checks: tuple[ConsistencyCheck, ...]
    moment_inequality_ok: bool
    passed: bool


def _power_mean(m: int, s2: float, spread: float) -> float:
    """Mean of d^(2m) from the mean square s2 and spread = mean(d^4) - s2^2.

    Evaluates s2^m + sum_k C(m,2k)*C(2k,k)/2^k * spread^k * s2^(m-2k)
    with exact integer binomials and compensated summation; the series
    is exact for m <= n-1.
    """
    terms = [s2**m]
    for k in range(1, m // 2 + 1):
        terms.append(
            math.comb(m, 2 * k)
            * math.comb(2 * k, k)
            / 2.0**k
            * spread**k
            * s2 ** (m - 2 * k)
        )
    return math.fsum(terms)


def check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise ValueError(f"n={n} exceeds the supported cap {max_n}; raise max_n to override")


def averages_from_distances(d: DistanceSpec, *, max_n: int = DEFAULT_MAX_N) -> CyclicAverages:
    """Even-power means straight from the definition.

    Per-term powers are built by repeated multiplication of the squared
    distances and each mean is accumulated with compensated summation;
    orders up to 2(n-1) on mixed magnitudes lose digits otherwise.
    """
    check_cap(d.n, max_n)
    squares = [v * v for v in d.values]
    current = list(squares)
    vals = []
    for _ in range(1, d.n):
        vals.append(math.fsum(current) / d.n)
        current = [c * q for c, q in zip(current, squares)]
    return CyclicAverages(d.n, tuple(vals))


def averages_from_parameters(
    n: int,
    circumradius: float,
    center_distance: float,
    *,
    max_n: int = DEFAULT_MAX_N,
) -> CyclicAverages:
    """Even-power means from the two size parameters alone.

    The mean square is r^2 + l^2 and the spread is 2 r^2 l^2, so entry
    m-1 is the power-mean series of those two numbers.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if circumradius < 0.0 or center_distance < 0.0:
        raise ValueError("circumradius and center_distance must be >= 0")
    check_cap(n, max_n)
    r2 = circumradius * circumradius
    l2 = center_distance * center_distance
    spread = 2.0 * r2 * l2
    return CyclicAverages(n, tuple(_power_mean(m, r2 + l2, spread) for m in range(1, n)))


def check_consistency(avgs: CyclicAverages, tol: float = 1e-8) -> ConsistencyReport:
    """Verify the closure identities the higher means must satisfy.

    For each m in 3..n-1 the mean of d^(2m) is recomputed from the first
    two means and compared against the stored entry; residuals are judged
    relative to the larger of the two values.  These conditions are
    necessary for realizability; a failing check is a result, not an
    error.
    """
    s2 = avgs.values[0]
    s4 = avgs.values[1]
    spread = s4 - s2 * s2
    checks = []
    for m in range(3, avgs.n):
        expected = _power_mean(m, s2, spread)
        actual = avgs.values[m - 1]
        residual = abs(actual - expected)
        passed = residual <= tol * max(abs(expected), abs(actual))
        checks.append(ConsistencyCheck(m, expected, actual, residual, passed))
    moment_ok = spread >= -tol * (s2 * s2)
    return ConsistencyReport(
        tuple(checks), moment_ok, moment_ok and all(c.passed for c in checks)
    )
