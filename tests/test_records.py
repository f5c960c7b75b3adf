"""The result and input records: immutable tuples that validate on construction."""

import math
import sys

import pytest

from polydual.cli import JobRequest
from polydual.cyclic import CyclicAverages, averages_from_distances, check_consistency
from polydual.dual import RadiusDistancePair, solve
from polydual.errors import SchemaError
from polydual.geometry import (
    TWO_PI,
    DistanceSpec,
    Point2,
    RegularPolygonSpec,
    normalize_angle,
    verify_permutation,
)
from polydual.oracle import OracleConfig, search_second_polygon
from polydual.pompeiu import construct_both_triangles, pompeiu_from_distances, solve_equilateral
from polydual.reconstruct import construct_dual
from polydual.svg import scene_from_dual_pair
from polydual.two_points import two_points

NAN, INF = math.nan, math.inf
ORIGIN = Point2(0.0, 0.0)


def _records():
    square = RegularPolygonSpec(4, ORIGIN, math.sqrt(2.0), math.pi / 4)
    d = DistanceSpec((1.0, math.sqrt(5.0), math.sqrt(5.0), 1.0))
    avgs = averages_from_distances(d)
    pair = construct_dual(square, Point2(1.0, 0.0))
    tri = pompeiu_from_distances(3.0, 5.0, 7.0)
    return [
        Point2(1.0, 2.0),
        square,
        d,
        avgs,
        check_consistency(avgs),
        check_consistency(avgs).checks[0],
        solve(d),
        solve(d).larger,
        verify_permutation(d, d),
        pair,
        tri,
        solve_equilateral(tri),
        construct_both_triangles(3.0, 5.0, 7.0),
        two_points(square, RegularPolygonSpec(4, Point2(2.0, 1.0), 1.0, math.pi)),
        scene_from_dual_pair(pair),
        JobRequest("dual", {}),
        OracleConfig(),
        search_second_polygon(square, Point2(1.0, 0.0), OracleConfig(16, 1)),
    ]


def test_every_record_class_is_covered():
    defined = {
        cls
        for name, mod in sys.modules.items()
        if name.startswith("polydual.")
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == name
    }
    assert defined == {type(r) for r in _records()}
    assert len(defined) == 18


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_reject_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Point2(NAN, 0.0), "coordinates must be finite"),
        (lambda: Point2(0.0, INF), "coordinates must be finite"),
        (lambda: RegularPolygonSpec(2, ORIGIN, 1.0), "need at least 3 vertices"),
        (lambda: RegularPolygonSpec(3, ORIGIN, -1.0), "circumradius must be finite and >= 0"),
        (lambda: RegularPolygonSpec(3, ORIGIN, INF), "circumradius must be finite and >= 0"),
        (lambda: RegularPolygonSpec(3, ORIGIN, NAN), "circumradius must be finite and >= 0"),
        (lambda: RegularPolygonSpec(3, ORIGIN, 1.0, NAN), "phase must be finite"),
        (lambda: RegularPolygonSpec(3, ORIGIN, 1.0, -INF), "phase must be finite"),
        (lambda: DistanceSpec((1.0, 2.0)), "need at least 3 distances"),
        (lambda: DistanceSpec((1.0, 2.0, NAN)), "distances must be finite and >= 0"),
        (lambda: DistanceSpec((1.0, INF, 2.0)), "distances must be finite and >= 0"),
        (lambda: DistanceSpec((-1.0, 1.0, 2.0)), "distances must be finite and >= 0"),
        (lambda: CyclicAverages(2, (1.0,)), "need n >= 3"),
        (lambda: CyclicAverages(4, (1.0, 2.0)), "expected 3 entries, got 2"),
        (lambda: CyclicAverages(3, (1.0, NAN)), "entries must be finite and >= 0"),
        (lambda: CyclicAverages(3, (INF, 1.0)), "entries must be finite and >= 0"),
        (lambda: CyclicAverages(3, (1.0, -1.0)), "entries must be finite and >= 0"),
        (lambda: OracleConfig(grid_resolution=7), "grid_resolution must be >= 8"),
        (lambda: OracleConfig(refine_iterations=0), "refine_iterations must be >= 1"),
    ],
)
def test_validated_records_reject_bad_input(build, message):
    with pytest.raises(SchemaError, match=message):
        build()


def test_values_are_stored_as_float_tuples():
    assert DistanceSpec([1, 2, 3]).values == (1.0, 2.0, 3.0)
    assert type(CyclicAverages(3, [1, 2]).values[0]) is float


def test_phase_is_normalized():
    assert RegularPolygonSpec(3, ORIGIN, 1.0, phase=-0.1).phase == normalize_angle(-0.1)
    assert 0.0 < RegularPolygonSpec(3, ORIGIN, 1.0, phase=-0.1).phase < TWO_PI
    assert RegularPolygonSpec(n=3, center=ORIGIN, circumradius=1.0).phase == 0.0


def test_repr_names_the_fields():
    assert repr(Point2(1.0, 2.0)) == "Point2(x=1.0, y=2.0)"
    assert repr(OracleConfig()) == "OracleConfig(grid_resolution=8, refine_iterations=3)"


def test_tuple_semantics():
    """What a record shares with a plain tuple: equality by value and unpacking."""
    assert Point2(1.0, 2.0) == (1.0, 2.0)
    assert Point2(1.0, 2.0) == RadiusDistancePair(1.0, 2.0)
    x, y = Point2(1.0, 2.0)
    assert (x, y) == (1.0, 2.0)
