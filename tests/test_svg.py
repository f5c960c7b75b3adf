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


def as_segments(scene: Scene) -> tuple[str, list[str]]:
    """The viewBox and distance lines of the scene, each spoke drawn as free segments.

    A free segment from q to each vertex, taken from ``vertex_coords``,
    counts both of its ends in the bounds and is formatted on its own.
    """
    ends = [(q, xy) for q, k in scene.spokes for xy in vertex_coords(scene.polygons[k][0])]
    xs: list[float] = []
    ys: list[float] = []
    for p, _ in scene.polygons:
        xs += [p.center.x - p.circumradius, p.center.x + p.circumradius]
        ys += [p.center.y - p.circumradius, p.center.y + p.circumradius]
    for c, r in scene.circles:
        xs += [c.x - r, c.x + r]
        ys += [c.y - r, c.y + r]
    for q, _ in scene.markers:
        xs.append(q.x)
        ys.append(q.y)
    for q, (x, y) in ends:
        xs += [q.x, x]
        ys += [q.y, y]
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-9)
    margin = 0.1 * span
    vx, vy = x0 - margin, y0 - margin
    vw, vh = (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin
    view_box = f'viewBox="{vx:.8g} {-(vy + vh):.8g} {vw:.8g} {vh:.8g}">'
    segment = (
        '<line class="distance-segment" x1="%.8g" y1="%.8g" x2="%.8g" y2="%.8g" '
        'stroke="#b05923" stroke-width="%.8g"/>'
    )
    return view_box, [segment % (q.x, q.y, x, y, 0.005 * span) for q, (x, y) in ends]


def assert_spokes_render_as_segments(scene: Scene) -> None:
    text = render_svg(scene)
    view_box, segments = as_segments(scene)
    assert text.splitlines()[1].endswith(view_box)
    assert [ln for ln in text.splitlines() if ln.startswith("<line ")] == segments


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
    assert_spokes_render_as_segments(scene)


def test_an_empty_scene_renders_the_default_box():
    # (-1, -1) to (1, 1) with its 10% margin, and nothing drawn in it
    lines = render_svg(Scene()).splitlines()
    assert lines[1].endswith('viewBox="-1.2 -1.2 2.4 2.4">')
    assert lines[2:] == ['<g transform="scale(1,-1)">', "</g>", "</svg>"]


@pytest.mark.parametrize("n", [3, 17, 64])
def test_mirror_scene_spokes_render_as_segments(n):
    p = RegularPolygonSpec(n, Point2(-0.0, 0.7), 2.5, 0.3)
    pair = construct_dual(p, Point2(1.1, -0.0), 1.3)
    scene = scene_from_dual_pair(pair, include_mirror=True)
    assert len(scene.polygons) == 3
    assert scene.spokes == ((pair.point, 0),)
    assert_spokes_render_as_segments(scene)


@given(p=polygons)
def test_vertices_round_within_the_polygon_box(p):
    cx, cy, r = p.center.x, p.center.y, p.circumradius
    for x, y in vertex_coords(p):
        assert cx - r <= x <= cx + r
        assert cy - r <= y <= cy + r
