"""closed-form-batch: seeded (polygon, point) instances through the algebra, in process.

One op takes one instance through distances_from, solve, the power
means and their closure checks, the companion construction and its
permutation evidence, two_points on a shared-vertex partner, and the
SVG scene; n=3 instances also take the Pompeiu closed forms and the
rotation construction.  Nothing here starts a process, and the chain
calls no numpy, so solver and refactor work shows here while import and
oracle changes should not.

The corpus repeats a block of 20 slots with fixed shares: n=3 in 5, n
from 4 to 12 in 12, n from 13 to 64 in 3 (this tail gives the O(n^2)
closure checks most of their work); near-center, near-circle and
wide-scale ratios in 2 each.  Within a class n cycles through its range,
so the seed moves the geometry but not the mix, and the latency
quantiles do not jump with it.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

from inputs import PARAM_TOL, Config, draw, param_error, place, rng_for, well_formed_svg
from ops import PYTHON_REFERENCE, OpResult
from polydual import cyclic, dual, geometry, pompeiu, reconstruct, svg
from polydual.geometry import Point2, RegularPolygonSpec

# the package re-exports the function two_points under the module's name
two_points = importlib.import_module("polydual.two_points")

NAME = "closed-form-batch"
#: Ops run in this process, so the in-process Python job gives their speed.
REFERENCE = PYTHON_REFERENCE
CORPUS_SIZE = 1000
WARMUP_OPS = 100

#: (n class, ratio class, wide scale) for each slot of a 20-op block
BLOCK = (
    [("n3", "ordinary", False)] * 3
    + [("n3", "near_center", False), ("n3", "near_circle", False)]
    + [("n4_12", "ordinary", False)] * 8
    + [("n4_12", "near_center", False), ("n4_12", "near_circle", False)]
    + [("n4_12", "ordinary", True)] * 2
    + [("n13_64", "ordinary", False)] * 3
)
N_CYCLES = {"n3": (3,), "n4_12": tuple(range(4, 13)), "n13_64": tuple(range(13, 65))}


@dataclass(frozen=True)
class Instance:
    config: Config
    polygon: RegularPolygonSpec
    point: Point2
    partner: RegularPolygonSpec


def _instance(cfg: Config) -> Instance:
    return Instance(
        cfg,
        RegularPolygonSpec(cfg.n, Point2(cfg.cx, cfg.cy), cfg.r, cfg.phase),
        Point2(cfg.px, cfg.py),
        RegularPolygonSpec(cfg.n, Point2(cfg.partner_cx, cfg.partner_cy), cfg.partner_r,
                           cfg.partner_phase),
    )


def corpus(seed: int) -> list[Instance]:
    rng = rng_for(NAME, seed)
    counters = {k: 0 for k in N_CYCLES}
    out = []
    while len(out) < CORPUS_SIZE:
        block = list(BLOCK)
        rng.shuffle(block)
        for n_class, ratio_class, wide in block:
            cycle = N_CYCLES[n_class]
            n = cycle[counters[n_class] % len(cycle)]
            counters[n_class] += 1
            out.append(_instance(draw(rng, n, ratio_class, wide)))
    return out[:CORPUS_SIZE]


def setup(seed: int) -> dict:
    state = {"corpus": corpus(seed)}
    for i in range(WARMUP_OPS):
        op(state, i)
    return state


def _chain(inst: Instance) -> tuple:
    d = geometry.distances_from(inst.point, inst.polygon)
    sol = dual.solve(d)
    report = cyclic.check_consistency(cyclic.averages_from_distances(d))
    pair = reconstruct.construct_dual(inst.polygon, inst.point, inst.config.direction)
    match = reconstruct.verify_permutation(d, geometry.distances_from(inst.point, pair.b_polygon))
    tp = two_points.two_points(inst.polygon, inst.partner)
    text = svg.render_svg(svg.scene_from_dual_pair(pair))
    tri = None
    if inst.config.n == 3:
        pt = pompeiu.pompeiu_from_distances(*d.values)
        tri = (pompeiu.solve_equilateral(pt), pompeiu.construct_both_triangles(*d.values))
    return d, sol, report, pair, match, tp, text, tri


def _dist(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def check(state: dict, i: int, out: tuple) -> tuple[str | None, float]:
    """First failed check (or None) and the worst parameter error."""
    inst = state["corpus"][i % len(state["corpus"])]
    d, sol, report, pair, match, tp, text, tri = out
    cfg = inst.config
    r, l = cfg.r, cfg.l
    big, small = max(r, l), min(r, l)
    errors = {
        "dual.solve": param_error(big, small, sol.larger.circumradius,
                                  sol.larger.center_distance),
        "reconstruct.construct_dual": param_error(
            l, r, pair.b_polygon.circumradius, _dist(inst.point, pair.b_polygon.center)),
    }
    if tri is not None:
        eq, both = tri
        errors["pompeiu.solve_equilateral"] = param_error(
            big, small, eq.solution.larger.circumradius, eq.solution.larger.center_distance)
        errors["pompeiu.side_larger"] = abs(eq.side_larger - math.sqrt(3.0) * big) / big
        for name, verts, want in (("larger", both.larger, big), ("smaller", both.smaller, small)):
            sides = [_dist(verts[i], verts[(i + 1) % 3]) for i in range(3)]
            errors[f"pompeiu.construct_both_triangles.{name}"] = max(
                abs(s - math.sqrt(3.0) * want) for s in sides) / big
            got = sorted(_dist(both.point, v) for v in verts)
            errors[f"pompeiu.construct_both_triangles.{name}.distances"] = max(
                abs(a - b) for a, b in zip(got, sorted(d.values))) / big
    worst = 0.0
    for name, err in errors.items():
        if not err <= PARAM_TOL:  # also catches NaN
            return f"{name}: parameter error {err!r}", err
        worst = max(worst, err)
    if sol.degeneracy.value != "none":
        return f"dual.solve: degeneracy {sol.degeneracy.value} for l/r={l / r:.3g}", worst
    if not report.passed:
        return "cyclic.check_consistency: closure check failed", worst
    if not match.ok:
        return f"reconstruct.verify_permutation: residual {match.residual!r}", worst
    if tp.m2 is None or not all(m.ok for m in tp.matches):
        return "two_points.two_points: missing point or unmatched multiset", worst
    for m in (tp.m1, tp.m2):
        gap = max(abs(_dist(m, inst.partner.center) - r),
                  abs(_dist(m, inst.polygon.center) - cfg.partner_r))
        if not gap <= PARAM_TOL * max(r, cfg.partner_r):
            return f"two_points.two_points: swapped-radius gap {gap!r}", worst
    if not well_formed_svg(text):
        return "svg.render_svg: malformed document", worst
    return None, worst


def op(state: dict, i: int) -> OpResult:
    inst = state["corpus"][i % len(state["corpus"])]
    t0 = time.perf_counter()
    try:
        out = _chain(inst)
    except Exception as exc:  # a raised error is a counted failure, not a crash
        return OpResult(time.perf_counter() - t0, inst.config.props,
                        failure=f"exception {type(exc).__name__}: {exc}")
    return OpResult(time.perf_counter() - t0, inst.config.props, value=out)


def probe(seed: int) -> list[tuple[str, str | None]]:
    """Known solver defects: extreme scales, and a point about 1e-8 r off center.

    The solver fails these today (squares underflow or fourth powers
    overflow; the small root cancels), so they stay out of the timed
    corpus.  Each case is judged by the corpus's own parameter check and
    returns (label, failure or None).
    """
    rng = rng_for(NAME + ":probe", seed)
    cases = []
    for sign in (-1.0, 1.0):
        for _ in range(4):
            r = 10.0 ** (sign * rng.uniform(100.0, 150.0))
            n = rng.randint(3, 12)
            cases.append((f"n={n} scale {r:.3g}", place(rng, n, r, rng.uniform(0.1, 3.0), ())))
    for _ in range(4):
        n = rng.randint(3, 12)
        cases.append((f"n={n} l/r~1e-8", place(rng, n, 1.0, 10.0 ** -rng.uniform(7.5, 8.5), ())))
    results = []
    for label, cfg in cases:
        inst = _instance(cfg)
        try:
            sol = dual.solve(geometry.distances_from(inst.point, inst.polygon))
        except Exception as exc:
            results.append((label, f"exception {type(exc).__name__}: {exc}"))
            continue
        err = param_error(max(cfg.r, cfg.l), min(cfg.r, cfg.l),
                          sol.larger.circumradius, sol.larger.center_distance)
        results.append((label, None if err <= PARAM_TOL else f"parameter error {err!r}"))
    return results

