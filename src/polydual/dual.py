"""Recover the two size-parameter pairs behind a vertex-distance list.

The first two even-power means pin down r^2 + l^2 and 2 r^2 l^2, so r^2
and l^2 are the two roots of a single quadratic.  The two ways of
assigning those roots describe two non-congruent regular polygons
realizing the same distances: a larger one whose circumcircle contains
the point and a smaller one whose circumcircle does not.  A double root
means the point sits on the circumcircle and both assignments coincide.
``solve_moments`` is the one place that quadratic is solved, clamped and
classified; ``pompeiu`` feeds it the n=3 discriminant from the area.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import RealizabilityError
from .geometry import DistanceSpec

#: Scale-free threshold for degeneracy classification.
DEGENERACY_EPS = 1e-10


class Degeneracy(enum.Enum):
    NONE = "none"
    ON_CIRCUMCIRCLE = "on_circumcircle"
    AT_CENTER = "at_center"


@dataclass(frozen=True)
class RadiusDistancePair:
    """A polygon circumradius together with the point-to-center distance."""

    circumradius: float
    center_distance: float


@dataclass(frozen=True)
class DualSolution:
    mean_square: float
    mean_fourth: float
    discriminant: float
    larger: RadiusDistancePair
    smaller: RadiusDistancePair
    degeneracy: Degeneracy


def solve(d: DistanceSpec, tol: float = 1e-9) -> DualSolution:
    """Both parameter pairs from the distances, through ``solve_moments``."""
    squares = [v * v for v in d.values]
    s2 = math.fsum(squares) / d.n
    s4 = math.fsum(q * q for q in squares) / d.n
    return solve_moments(s2, s4, 3.0 * (s2 * s2) - 2.0 * s4, tol)


def solve_moments(s2: float, s4: float, disc: float, tol: float = 1e-9) -> DualSolution:
    """Both parameter pairs from the mean square, mean fourth and discriminant.

    The discriminant 3*s2^2 - 2*s4 is passed in so that an n=3 caller can
    use its closed form, (16/3)*area^2.  The quadratic is solved in the
    cancellation-safe form: the square root of the discriminant is taken
    once, the larger root by addition, and the smaller root as
    mean_square minus the larger.  A discriminant within
    -tol*mean_square^2 of zero is clamped (measured geometry can land
    infinitesimally negative); beyond that the distances are not
    realizable by any regular polygon.
    """
    scale = s2 * s2
    if disc < -tol * scale:
        raise RealizabilityError(
            "no regular polygon realizes these distances "
            "(3*mean_square^2 - 2*mean_fourth is negative)",
            discriminant=disc,
            mean_square=s2,
            mean_fourth=s4,
        )
    if s4 < scale * (1.0 - tol):
        raise RealizabilityError(
            "no regular polygon realizes these distances "
            "(mean_fourth below mean_square^2)",
            mean_square=s2,
            mean_fourth=s4,
        )
    disc = max(disc, 0.0)
    if disc <= DEGENERACY_EPS * scale:
        # point on the circumcircle: the double root makes all four values
        # equal, so the residual float noise in the discriminant is dropped
        disc = 0.0
        degeneracy = Degeneracy.ON_CIRCUMCIRCLE
    else:
        degeneracy = None  # decided below once the roots exist
    root = math.sqrt(disc)
    r1sq = 0.5 * (s2 + root)
    l1sq = max(s2 - r1sq, 0.0)
    r1 = math.sqrt(r1sq)
    l1 = math.sqrt(l1sq)
    if degeneracy is None:
        degeneracy = (
            Degeneracy.AT_CENTER if l1sq <= DEGENERACY_EPS * s2 else Degeneracy.NONE
        )
    return DualSolution(
        mean_square=s2,
        mean_fourth=s4,
        discriminant=disc,
        larger=RadiusDistancePair(r1, l1),
        smaller=RadiusDistancePair(l1, r1),
        degeneracy=degeneracy,
    )
