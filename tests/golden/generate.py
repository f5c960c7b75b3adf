#!/usr/bin/env python3
"""Write the CLI golden corpus: argv lists with their exact exit code, stdout and stderr.

Run from the repository root against the code whose output is to be
frozen:

    PYTHONPATH=src python tests/golden/generate.py

Every argv goes through ``polydual.cli.main`` in this process, and
every entry pins its exit code, stdout and stderr, the help and the usage
errors that ``main`` writes from the CLI's option table included.
The result lands in ``cli_corpus.json`` next to this file and is
replayed byte for byte by ``tests/test_golden.py``.  Regenerate only when a change to the
CLI output is intended; the script prints the id of every entry that
changed, was added or was removed against the file it replaces.

Coverage: every command, the three render scenes and the four standard
figures, ``--mirror``, ``pompeiu --construct`` (also on 3, 5, 7 times
1e-200 and times 1e200), the three degeneracy classes, ``averages`` on
lists that no regular polygon gives (``1,1,5`` and an n = 6 list whose
closure identities hold), which it reports without a verdict while
``dual`` refuses them, ``--tol 0`` on ``two-points`` and on an on-circle
``dual`` list, which match at ``verify_permutation``'s floor, ``dual`` on
points 1e-7 and 1e-9 beyond a square's vertex, which it fits off the
circumcircle and matches at the default tol and at ``--tol 0``, oracle runs
at ``--grid 8 --refine 1`` and at the defaults, usage and schema errors
(exit 2), ``--grid`` above its maximum, a non-numeric ``--tol`` or
``--instances`` and an ``averages --tol`` among them, a point with a
negative x and a negative distance in the ``=`` form and after a space,
an abbreviated flag, an ``=`` value ``--``, the help (exit 0), an
ambiguous prefix, a value given to a bare flag, a stray ``--``, and
every domain error code (exit 1), with a context of 17-digit sides in
descending order;
``tests/test_golden.py`` checks that every code defined in
``polydual.errors`` appears.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from polydual.cli import main
from polydual.geometry import Point2, RegularPolygonSpec, distances_from, vertex_coords

OUT = Path(__file__).with_name("cli_corpus.json")

SQUARE_DISTANCES = "1,2.2360679774997896,2.2360679774997896,1"
SQUARE_POLYGON = "4,0,0,1.4142135623730951,45deg"
ON_CIRCLE = ",".join(
    repr(v) for v in (math.sqrt(4 - 2 * math.sqrt(2)), math.sqrt(4 + 2 * math.sqrt(2))) * 2
)
PAIR = ["--polygon-a", SQUARE_POLYGON, "--polygon-b", "4,2,1,1,180deg"]
COLLINEAR_PAIR = ["--polygon-a", "4,0,0,1,0", "--polygon-b", "4,3,0,2,180deg"]

FIXED: list[list[str]] = [
    # dual: the three degeneracy classes, n=3, errors
    ["dual", "--distances", SQUARE_DISTANCES],
    ["dual", "--distances", "3,5,7"],
    ["dual", "--distances", "2,2,2,2,2"],
    ["dual", "--distances", ON_CIRCLE],
    ["dual", "--distances", SQUARE_DISTANCES, "--tol", "1e-6"],
    ["dual", "--distances", "1,1,5"],
    ["dual", "--distances", "1,1,1,10"],
    # averages
    ["averages", "--distances", "3,5,7"],
    ["averages", "--distances", SQUARE_DISTANCES],
    ["averages", "--distances", "1,2,3,4,5"],
    ["averages", "--distances", "2,2,2,2,2,2", "--tol", "1e-12"],  # a usage error: no --tol
    # reconstruct
    ["reconstruct", "--polygon", SQUARE_POLYGON, "--point", "1,0", "--direction", "0"],
    ["reconstruct", "--polygon", SQUARE_POLYGON, "--point", "1,0", "--direction", "90deg"],
    ["reconstruct", "--polygon", "5,0.2,-0.3,2,0.4", "--point", "1.1,0.2",
     "--direction", "0.9"],
    ["reconstruct", "--polygon", "4,0,0,1,0", "--point", "0,0"],
    ["reconstruct", "--polygon", "4,0,0,1,0", "--point", "0,1"],
    # pompeiu
    ["pompeiu", "--distances", "3,5,7"],
    ["pompeiu", "--distances", "3,5,7", "--construct"],
    ["pompeiu", "--distances", "1,2,3"],
    ["pompeiu", "--distances", "1,2,3", "--construct"],
    ["pompeiu", "--distances", "1,1,1"],
    ["pompeiu", "--distances", "1,1,5"],
    # two-points: collinear with V between and beyond the centers, and two error codes
    ["two-points", *PAIR],
    ["two-points", *COLLINEAR_PAIR],
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,2,0,1,180deg"],
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,5,0,2,180deg"],
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,3.000000000001,0,2,180deg",
     "--tol", "1e-15"],
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,-2,0,3,0", "--tol", "0.5"],
    # verify: the oracle against the known parameters
    ["verify", "--instances", "2", "--grid", "8", "--refine", "1", "--seed", "70000"],
    ["verify", "--instances", "1", "--grid", "8", "--refine", "1", "--n-min", "5",
     "--n-max", "5", "--seed", "3"],
    # render: three scenes, the mirror, and its error paths
    ["render", "--scene", "dual", "--polygon", SQUARE_POLYGON, "--point", "1,0"],
    ["render", "--scene", "dual", "--polygon", SQUARE_POLYGON, "--point", "1,0",
     "--direction", "30deg", "--mirror"],
    ["render", "--scene", "two-points", *PAIR],
    ["render", "--scene", "two-points", *COLLINEAR_PAIR],
    ["render", "--scene", "pompeiu", "--distances", "3,5,7"],
    ["render", "--scene", "pompeiu", "--distances", "1,2,3"],
    ["render", "--scene", "dual", "--polygon", "4,0,0,1,0", "--point", "0,0"],
    ["render", "--scene", "pompeiu", "--distances", "1,2,3,4"],
    ["render", "--scene", "pompeiu"],
    ["render", "--scene", "dual", "--point", "1,0"],
    ["render", "--scene", "two-points", "--polygon-a", "4,0,0,1,0"],
    # schema errors: exit 2 with empty stdout
    ["dual", "--distances", "1,foo,3"],
    ["dual", "--distances", "1,2"],
    ["dual", "--distances", "-1,2,3"],
    ["dual", "--distances", "nan,1,1"],
    ["averages", "--distances", "1,2,inf"],
    ["pompeiu", "--distances", "1,2,3,4"],
    ["reconstruct", "--polygon", "4,0,0", "--point", "1,0"],
    ["reconstruct", "--polygon", "4,0,0,1", "--point", "1"],
    ["reconstruct", "--polygon", "4,0,0,1", "--point", "1,x"],
    ["reconstruct", "--polygon", "4,0,0,1", "--point", "1,0", "--direction", "abc"],
    ["reconstruct", "--polygon", "4,0,0,1,xdeg", "--point", "1,0"],
    ["reconstruct", "--polygon", "2,0,0,1", "--point", "1,0"],
    ["reconstruct", "--polygon", "4,0,0,-1", "--point", "1,0"],
    ["reconstruct", "--polygon", "4.5,0,0,1", "--point", "1,0"],
    ["two-points", "--polygon-a", "x,0,0,1", "--polygon-b", "4,2,0,1"],
    # usage errors: exit 2, the usage line and the fault on stderr
    [],
    ["bogus"],
    ["dual"],
    ["render", "--scene", "star"],
    ["reconstruct", "--polygon", "4,0,0,1", "--point", "1,0", "--anchor-index", "x"],
    ["verify", "--instances", "two"],
]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


REGULAR_65 = _csv(distances_from(
    Point2(0.25, 0.1), RegularPolygonSpec(65, Point2(0.0, 0.0), 1.0, 0.3)).values)


def _beyond_vertex(e: float) -> str:
    """Distances from (1 + e, 0) to the unit square with a vertex at (1, 0)."""
    square = RegularPolygonSpec(4, Point2(0.0, 0.0), 1.0)
    return _csv(distances_from(Point2(1.0 + e, 0.0), square).values)


SIX_UNREALIZABLE = ("1.9188670635478835,1.3964240043768943,0.4668502890982536,"
                    "0.46685028909825294,1.3964240043768938,1.9188670635478837")

#: Inputs added after the corpus was first written.  They go after the
#: seeded entries so that every earlier entry keeps its index, which the
#: replay test ids carry.
APPENDED: list[list[str]] = [
    # schema error: a negative instance count
    ["verify", "--instances", "-2"],
    # schema error: a negative tolerance (3,5,7 is a valid triangle)
    ["dual", "--distances", "3,5,7", "--tol", "-1"],
    # schema errors: a vertex coordinate overflows to inf
    ["render", "--scene", "dual", "--polygon", "5,1e308,0,1e308", "--point", "0,0"],
    ["reconstruct", "--polygon", "5,1.7e308,0,1e308", "--point", "0,0"],
    ["two-points", "--polygon-a", "4,1e308,0,1e308", "--polygon-b", "4,0,0,5e307"],
    # extreme scales: the squared distances underflow, or higher powers overflow
    ["dual", "--distances", "1e-170,2e-170,2.5e-170"],
    ["dual", "--distances", "1e200,2e200,2.5e200"],
    ["dual", "--distances", _csv(distances_from(
        Point2(3e5, 4e5), RegularPolygonSpec(30, Point2(0.0, 0.0), 1e6, 0.25)).values)],
    ["pompeiu", "--distances", "3e-30,5e-30,7e-30"],
    # n=3 on the circumcircle within tol: pompeiu answers it, so dual must too
    ["dual", "--distances", "1,1,2.000000001"],
    # flat within tol but off the circumcircle: degenerate only by the fit's class
    ["pompeiu", "--distances", "1,1,1.9999999999"],
    # common center, vertex shared within its tolerance: the radii agree too
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,0,0,1.0000000001,0",
     "--tol", "0"],
    # congruent polygons that share no vertex
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,5,0,1,0"],
    # past 64 vertices: a regular 65-gon
    ["dual", "--distances", REGULAR_65],
    ["averages", "--distances", REGULAR_65],
    # schema error: each square is finite, their sum is not
    ["averages", "--distances", "1e154,1.1e154,1.2e154"],
    # common center, vertex shared within the default tolerance: congruent
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,0,0,1.0000000001,0"],
    # usage and schema errors: verify takes no --tol, and --refine is at least 1
    ["verify", "--instances", "1", "--grid", "8", "--refine", "1", "--tol", "1e-9"],
    ["verify", "--instances", "1", "--grid", "8", "--refine", "0"],
    # schema error: every coordinate is finite, the scene's width is not
    ["render", "--scene", "dual", "--polygon", "4,0,0,8e307", "--point", "1e307,0"],
    # the square and pentagon companion figures, each with its mirror
    ["render", "--scene", "dual", "--polygon", SQUARE_POLYGON, "--point", "1,0", "--mirror"],
    ["render", "--scene", "dual", "--polygon", "5,0,0,1.3,0.2", "--point", "0.6,0.25",
     "--direction", "0.8", "--mirror"],
    # the oracle at its defaults: the benchmark's 20-instance pool, and n 13-64
    ["verify", "--instances", "20", "--seed", "70000"],
    ["verify", "--instances", "5", "--n-min", "13", "--n-max", "64", "--seed", "5000"],
    # schema error: --grid above its maximum, refused before any phase table is built
    ["verify", "--grid", "1025"],
    # larger dual figures: a 17-gon with its mirror, a 64-gon about a -0.0 center
    ["render", "--scene", "dual", "--polygon", "17,0.3,-1.2,2.5,0.7", "--point", "1.1,0.4",
     "--direction", "1.3", "--mirror"],
    ["render", "--scene", "dual", "--polygon", "64,-0.0,0.5,3,0.1", "--point", "0.8,-0.6"],
    # both triangles at extreme scales: the construction squared the raw distances
    ["pompeiu", "--distances", "3e-200,5e-200,7e-200", "--construct"],
    ["pompeiu", "--distances", "3e200,5e200,7e200", "--construct"],
    # a domain error's context prints through dumps: sides as an array of 17-digit numbers
    ["dual", "--distances", "0.1,0.2,5"],
    # schema error: no argv value is converted, so a bad --tol is named by its key
    ["dual", "--distances", "3,5,7", "--tol", "abc"],
    # a point with a negative x, in the '=' form
    ["reconstruct", "--polygon", "4,0,0,1", "--point=-0.5,0"],
    # schema error: a negative distance, in the '=' form
    ["dual", "--distances=-1,2,3"],
    # a spaced value that starts with one '-', and a unique prefix of a flag
    ["reconstruct", "--polygon", "4,0,0,1", "--point", "-0.5,0"],
    ["dual", "--dist", "3,5,7"],
    # schema error: an '=' value is read as written, '--' included
    ["dual", "--distances=--"],
    # the help, alone and after a command
    ["--help"],
    ["dual", "--help"],
    # usage errors: an ambiguous prefix, a value given to a bare flag, a stray '--'
    ["two-points", "--poly", "4,0,0,1,0", "--polygon-b", "4,2,1,1,180deg"],
    ["pompeiu", "--distances", "3,5,7", "--construct=1"],
    ["dual", "--distances", "3,5,7", "--"],
    # no regular polygon gives these, and only dual judges that: averages reports the
    # means of a broken triangle inequality, and of an n = 6 list whose closure
    # identities hold at s2 = 1.95 < 2P = 2, where dual refuses the fit
    ["averages", "--distances", "1,1,5"],
    ["averages", "--distances", SIX_UNREALIZABLE],
    ["dual", "--distances", SIX_UNREALIZABLE],
    # tol 0 asks for verify_permutation's floor: the paper's exact pair, and dual on
    # the circumcircle, whose fitted polygon gives the list back to rounding
    ["two-points", "--polygon-a", "4,0,0,1,0", "--polygon-b", "4,-2,0,3,0", "--tol", "0"],
    ["dual", "--distances", ON_CIRCLE, "--tol", "0"],
    # a point 1e-7 and 1e-9 beyond a square's vertex: the fit keeps r != l, so its
    # polygon gives the nearest distance back, also at tol 0
    ["dual", "--distances", _beyond_vertex(1e-7)],
    ["dual", "--distances", _beyond_vertex(1e-9), "--tol", "0"],
]


def _literal(p: RegularPolygonSpec) -> str:
    return f"{p.n},{p.center.x!r},{p.center.y!r},{p.circumradius!r},{p.phase!r}"


def _configuration(rng: random.Random, n: int) -> tuple[RegularPolygonSpec, Point2]:
    radius = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
    ratio = rng.uniform(0.0, 3.0)
    while abs(ratio - 1.0) < 1e-3:
        ratio = rng.uniform(0.0, 3.0)
    center = Point2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    az = rng.uniform(0.0, 2.0 * math.pi)
    poly = RegularPolygonSpec(n, center, radius, rng.uniform(0.0, 2.0 * math.pi))
    point = Point2(center.x + ratio * radius * math.cos(az), center.y + ratio * radius * math.sin(az))
    return poly, point


def _shared_vertex_pair(rng: random.Random, n: int) -> list[str]:
    pa, _ = _configuration(rng, n)
    v = Point2(*vertex_coords(pa)[rng.randrange(n)])
    r_b = pa.circumradius * rng.choice((0.4, 0.7, 1.6, 2.3))
    psi = rng.uniform(0.0, 2.0 * math.pi)
    j = rng.randrange(n)
    pb = RegularPolygonSpec(
        n,
        Point2(v.x + r_b * math.cos(psi), v.y + r_b * math.sin(psi)),
        r_b,
        (psi + math.pi) - 2.0 * math.pi * j / n,
    )
    return [f"--polygon-a={_literal(pa)}", f"--polygon-b={_literal(pb)}"]


def seeded(seed: int = 20260) -> list[list[str]]:
    """Random realizable inputs across vertex counts, as literal argv."""
    rng = random.Random(seed)
    out = []
    for n in (3, 4, 5, 6, 7, 8, 12, 17, 33, 64):
        poly, point = _configuration(rng, n)
        out.append(["dual", "--distances", _csv(distances_from(point, poly).values)])
    for n in (3, 6, 10, 24):
        poly, point = _configuration(rng, n)
        out.append(["averages", "--distances", _csv(distances_from(point, poly).values)])
    for n in (3, 5, 8, 11):
        poly, point = _configuration(rng, n)
        # the '=' form, as the corpus pins these argv
        out.append(["reconstruct", f"--polygon={_literal(poly)}",
                    f"--point={point.x!r},{point.y!r}",
                    f"--direction={rng.uniform(-4.0, 4.0)!r}"])
        rng.randrange(n)  # a retired option's draw, kept so later inputs keep theirs
    for _ in range(4):
        poly, point = _configuration(rng, 3)
        out.append(["pompeiu", "--distances", _csv(distances_from(point, poly).values),
                    "--construct"])
    for n in (3, 4, 6, 9):
        out.append(["two-points", *_shared_vertex_pair(rng, n)])
    return out


def replay(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def build() -> list[dict]:
    return [{"argv": argv, **replay(argv)} for argv in FIXED + seeded() + APPENDED]


def entry_id(i: int, entry: dict) -> str:
    """The replay test's id for entry ``i``."""
    return f"{i:03d}-{entry['argv'][0] if entry['argv'] else 'none'}"


def moved(old: list[dict], new: list[dict]) -> list[str]:
    """What differs between two corpora, entry by entry: changed, added or removed ids."""
    out = [f"changed {entry_id(i, e)}" for i, (o, e) in enumerate(zip(old, new)) if o != e]
    out += [f"added {entry_id(i, e)}" for i, e in enumerate(new[len(old):], len(old))]
    out += [f"removed {entry_id(i, e)}" for i, e in enumerate(old[len(new):], len(new))]
    return out


if __name__ == "__main__":
    entries = build()
    committed = json.loads(OUT.read_text(encoding="utf-8")) if OUT.exists() else []
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries written to {OUT}")
    print("\n".join(moved(committed, entries)) or "no entry moved")
