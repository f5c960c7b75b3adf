"""oracle-agreement: the closed-form-free search on acceptance-shaped instances.

The ops cycle through a fixed pool: the acceptance suite's agreement
instances ``oracle.random_instance(70000 + k, (3, 8))`` for k below
``POOL_SIZE``, in an order shuffled by the seed.  A search's cost
depends on its instance, so every run does the same mix of work however
many ops it fits.  Each op uses the default configuration, as the
acceptance criterion does, and is held to the same bar: a find whose parameters are the
swapped input pair, and whose circumradius matches the solver's, within
1e-5 of max(r, l).  Each search runs about nine thousand pure-Python
descent evaluations after a numpy grid scan, so this is the workload
where oracle speed-ups show; the closed forms only check the result.
"""

from __future__ import annotations

import time

from ops import PYTHON_REFERENCE, OpResult
from inputs import n_bucket, rng_for
from polydual import dual, geometry, oracle

NAME = "oracle-agreement"
#: Ops run in this process, so the in-process Python job gives their speed.
REFERENCE = PYTHON_REFERENCE
N_RANGE = (3, 8)
AGREEMENT_TOL = 1e-5
FIRST_SEED = 70_000
POOL_SIZE = 20


def setup(seed: int) -> dict:
    seeds = list(range(FIRST_SEED, FIRST_SEED + POOL_SIZE))
    rng_for(NAME, seed).shuffle(seeds)
    pool = [(s, *oracle.random_instance(s, N_RANGE)) for s in seeds]
    _, poly, point = pool[0]
    oracle.search_second_polygon(poly, point)  # warm-up: numpy kernels, allocator
    return {"corpus": pool}


def op(state: dict, i: int) -> OpResult:
    _, poly, point = state["corpus"][i % POOL_SIZE]
    props = (n_bucket(poly.n),)
    t0 = time.perf_counter()
    try:
        res = oracle.search_second_polygon(poly, point)
    except Exception as exc:
        return OpResult(time.perf_counter() - t0, props,
                        failure=f"exception {type(exc).__name__}: {exc}")
    return OpResult(time.perf_counter() - t0, props, value=res)


def check(state: dict, i: int, res) -> tuple[str | None, float | None]:
    seed, poly, point = state["corpus"][i % POOL_SIZE]
    if not res.found or res.polygon is None:
        return f"seed {seed}: no candidate found", None
    r_in = poly.circumradius
    l_in = point.distance_to(poly.center)
    scale = max(r_in, l_in)
    err = max(
        abs(res.polygon.circumradius - l_in),
        abs(point.distance_to(res.polygon.center) - r_in),
    ) / scale
    if not err <= AGREEMENT_TOL:
        return f"seed {seed}: parameter error {err!r}", err
    sol = dual.solve(geometry.distances_from(point, poly))
    expect_r = min(sol.smaller.circumradius, sol.larger.circumradius, key=lambda v: abs(v - l_in))
    if not abs(res.polygon.circumradius - expect_r) <= AGREEMENT_TOL * scale:
        return f"seed {seed}: solver disagrees", err
    return None, err


def probe(seed: int) -> list[tuple[str, str | None]]:
    """No known oracle defect is reachable with the default configuration."""
    return []
