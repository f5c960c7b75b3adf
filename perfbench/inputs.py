"""Seeded polygon/point configurations with known ground truth.

A configuration is drawn from its size parameters, so the circumradius
``r`` and the center distance ``l`` the solvers should recover are known
without running any solver.  Draws use ``random.Random`` seeded with a
string, which is stable across processes and Python builds.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

#: Relative tolerance on recovered size parameters, against max(r, l).
PARAM_TOL = 1e-9
NON_FINITE = re.compile(r"\b(nan|inf)\b")


def n_bucket(n: int) -> str:
    """The n bucket used for shares and per-bucket layer figures (n <= 64)."""
    return "n3" if n == 3 else "n4_12" if n <= 12 else "n13_64"


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


@dataclass(frozen=True)
class Config:
    n: int
    r: float
    cx: float
    cy: float
    phase: float
    px: float
    py: float
    direction: float  # free center direction handed to reconstruct
    partner_r: float  # circumradius of the shared-vertex partner polygon
    partner_cx: float
    partner_cy: float
    partner_phase: float
    props: tuple[str, ...]

    @property
    def l(self) -> float:
        return math.hypot(self.px - self.cx, self.py - self.cy)

    def vertices(self) -> list[tuple[float, float]]:
        step = TWO_PI / self.n
        return [
            (self.cx + self.r * math.cos(self.phase + step * k),
             self.cy + self.r * math.sin(self.phase + step * k))
            for k in range(self.n)
        ]

    def distances(self) -> list[float]:
        return [math.hypot(x - self.px, y - self.py) for x, y in self.vertices()]


def draw(rng: random.Random, n: int, ratio_class: str = "ordinary", wide: bool = False) -> Config:
    """One configuration.

    ``ratio_class`` sets l/r: ``ordinary`` is uniform on [0.05, 3] kept
    1% away from the circumcircle, ``near_center`` is 1e-4 to 1e-3, and
    ``near_circle`` is within 1e-4 to 1e-3 of 1; all stay clear of the
    solver's degeneracy thresholds (about 1e-5).  ``wide`` draws r from
    1e3 to 1e6 or 1e-6 to 1e-3 instead of 0.1 to 10; wider scales
    overflow the order-2(n-1) power means.
    """
    if ratio_class == "ordinary":
        ratio = rng.uniform(0.05, 3.0)
        while abs(ratio - 1.0) < 0.01:
            ratio = rng.uniform(0.05, 3.0)
    elif ratio_class == "near_center":
        ratio = 10.0 ** -rng.uniform(3.0, 4.0)
    elif ratio_class == "near_circle":
        ratio = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(3.0, 4.0)
    else:
        raise ValueError(f"unknown ratio class {ratio_class!r}")
    if wide:
        r = 10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 6.0))
    else:
        r = 10.0 ** rng.uniform(-1.0, 1.0)
    return place(rng, n, r, ratio, (n_bucket(n),) + (("wide_scale",) if wide else ())
                 + ((ratio_class,) if ratio_class != "ordinary" else ()))


def place(rng: random.Random, n: int, r: float, ratio: float, props: tuple[str, ...]) -> Config:
    """Random center, phase and point azimuth for given size parameters."""
    cx, cy = r * rng.uniform(-1.0, 1.0), r * rng.uniform(-1.0, 1.0)
    phase = rng.uniform(0.0, TWO_PI)
    az = rng.uniform(0.0, TWO_PI)
    px, py = cx + ratio * r * math.cos(az), cy + ratio * r * math.sin(az)
    # partner polygon through vertex 0, its center kept well off the line
    # through vertex 0 and the first center so the two points stay distinct
    vx, vy = cx + r * math.cos(phase), cy + r * math.sin(phase)
    k = rng.uniform(0.4, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 2.5)
    psi = math.atan2(cy - vy, cx - vx) + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, math.pi - 0.3)
    pr = k * r
    pcx, pcy = vx + pr * math.cos(psi), vy + pr * math.sin(psi)
    partner_phase = math.atan2(vy - pcy, vx - pcx)
    return Config(n, r, cx, cy, phase, px, py, rng.uniform(0.0, TWO_PI),
                  pr, pcx, pcy, partner_phase, props)


def param_error(r: float, l: float, got_r: float, got_l: float) -> float:
    """Worst error of (got_r, got_l) against (r, l), relative to max(r, l).

    A NaN in either error makes the result NaN, which fails every
    ``error <= tol`` test, so a silent NaN answer counts as a failure.
    """
    scale = max(r, l)
    errs = (abs(got_r - r) / scale, abs(got_l - l) / scale)
    return math.nan if any(math.isnan(e) for e in errs) else max(errs)


def well_formed_svg(text: str) -> bool:
    """A whole SVG document with the two polygons of a pair and no non-finite number."""
    return (text.startswith("<?xml") and text.endswith("</svg>\n")
            and text.count("<polygon ") == 2 and not NON_FINITE.search(text))
