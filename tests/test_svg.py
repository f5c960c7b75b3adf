"""Spokes draw the same bytes as the free segments they stand for, and the
bounds rule behind them holds for every vertex."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polydual.geometry import Point2, RegularPolygonSpec, vertex_coords
from polydual.reconstruct import construct_dual
from polydual.svg import Scene, render_svg, scene_from_dual_pair

polygons = st.builds(
    lambda n, k, cx, cy, r, phase: RegularPolygonSpec(
        n, Point2(math.ldexp(cx, k), math.ldexp(cy, k)), math.ldexp(r, k), phase),
    st.integers(3, 64),
    st.integers(-60, 60),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 4.0),
    st.floats(-10.0, 10.0),
)


def as_segments(scene: Scene) -> Scene:
    """The scene with each spoke written out as one free segment per vertex."""
    segments = tuple(
        (q, Point2(*xy)) for q, k in scene.spokes for xy in vertex_coords(scene.polygons[k][0]))
    return scene._replace(segments=scene.segments + segments, spokes=())


@given(
    p=polygons,
    mx=st.floats(-3.0, 3.0),
    my=st.floats(-3.0, 3.0),
    circle=st.booleans(),
    marker=st.booleans(),
)
@example(p=RegularPolygonSpec(7, Point2(-0.0, -0.0), 1.5, 0.2), mx=0.5, my=-0.0,
         circle=True, marker=True)
@example(p=RegularPolygonSpec(5, Point2(-0.0, 1.0), 0.0, 0.0), mx=-0.0, my=0.0,
         circle=False, marker=False)
def test_spokes_render_as_their_segments(p, mx, my, circle, marker):
    scale = max(abs(p.center.x), abs(p.center.y), p.circumradius) or 1.0
    m = Point2(mx * scale, my * scale)
    scene = Scene(
        polygons=((p, "A"),),
        circles=((p.center, p.circumradius),) if circle else (),
        markers=((m, "M"),) if marker else (),
        spokes=((m, 0),),
    )
    assert render_svg(scene) == render_svg(as_segments(scene))


@pytest.mark.parametrize("n", [3, 17, 64])
def test_mirror_scene_spokes_render_as_segments(n):
    p = RegularPolygonSpec(n, Point2(-0.0, 0.7), 2.5, 0.3)
    pair = construct_dual(p, Point2(1.1, -0.0), 1.3, anchor_index=n // 2)
    scene = scene_from_dual_pair(pair, include_mirror=True)
    assert len(scene.polygons) == 3
    assert scene.spokes == ((pair.point, 0),)
    assert render_svg(scene) == render_svg(as_segments(scene))


@given(p=polygons)
def test_vertices_round_within_the_polygon_box(p):
    cx, cy, r = p.center.x, p.center.y, p.circumradius
    for x, y in vertex_coords(p):
        assert cx - r <= x <= cx + r
        assert cy - r <= y <= cy + r
