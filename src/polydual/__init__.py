"""Both regular n-gons realizing a given list of point-to-vertex distances.

The package solves the inverse distance problem for regular polygons:
from the n distances between a point and the vertices of a regular n-gon
it recovers both non-congruent polygons carrying those distances,
reconstructs explicit coordinates, specializes to closed forms for
equilateral triangles, finds the two equal-multiset points of a
shared-vertex polygon pair, and cross-checks everything against a
closed-form-free numerical search.
"""

from .cyclic import (
    CyclicAverages,
    averages_from_distances,
    averages_from_parameters,
    check_consistency,
)
from .dual import (
    Degeneracy,
    DualSolution,
    RadiusDistancePair,
    solve,
)
from .errors import (
    ConcentricError,
    CongruentError,
    DegenerateError,
    DomainError,
    NoIntersectionError,
    RangeError,
    RealizabilityError,
    SchemaError,
    SharedVertexError,
    TriangleInequalityError,
)
from .geometry import (
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    distances_from,
    vertices,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    agreement,
    random_instance,
    search_second_polygon,
)
from .pompeiu import (
    EquilateralDual,
    PompeiuTriangle,
    TrianglePair,
    construct_both_triangles,
    construct_second_from_first,
    pompeiu_from_distances,
    solve_equilateral,
    weitzenbock_margin,
)
from .reconstruct import (
    DualPolygonPair,
    PermutationMatch,
    construct_dual,
    solve_phase,
    verify_permutation,
)
from .two_points import TwoPointsSolution, circle_circle_intersect, two_points

__version__ = "0.1.0"

__all__ = [
    "CyclicAverages",
    "ConcentricError",
    "CongruentError",
    "Degeneracy",
    "DegenerateError",
    "DistanceSpec",
    "DomainError",
    "DualPolygonPair",
    "DualSolution",
    "EquilateralDual",
    "NoIntersectionError",
    "OracleConfig",
    "OracleResult",
    "PermutationMatch",
    "Point2",
    "PompeiuTriangle",
    "RadiusDistancePair",
    "RangeError",
    "RealizabilityError",
    "RegularPolygonSpec",
    "SchemaError",
    "SharedVertexError",
    "TrianglePair",
    "TriangleInequalityError",
    "TwoPointsSolution",
    "agreement",
    "averages_from_distances",
    "averages_from_parameters",
    "check_consistency",
    "circle_circle_intersect",
    "construct_both_triangles",
    "construct_dual",
    "construct_second_from_first",
    "distances_from",
    "pompeiu_from_distances",
    "random_instance",
    "search_second_polygon",
    "solve",
    "solve_equilateral",
    "solve_phase",
    "two_points",
    "verify_permutation",
    "vertices",
    "weitzenbock_margin",
]
