"""What one op reports back to the benchmark loop, and the running summary of many.

Timings are reported at a fixed machine speed.  On a shared virtual
machine the same op runs up to 1.6 times slower for seconds to minutes
as the host's other tenants come and go, so the loop also times a fixed
reference job between ops.  Each op's time is scaled by the job's
nominal time over the median of the reference samples nearest to it.
A change to the package changes the op times and not the reference, so
it moves the scaled figures as much as the raw ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Failure messages kept for the log; the count covers all of them.
KEPT_FAILURES = 20
#: Reference samples on each side of an op that give its local speed.
REFERENCE_WINDOW = 4
#: Reference runs that give the speed at the end of a set-up.
SETUP_REFERENCE_RUNS = 25


@dataclass(frozen=True)
class Reference:
    """A fixed job that the loop times between ops."""

    #: runs the job once and returns its seconds
    time: Callable[[], float]
    #: the job's time at the reported speed: a fixed nominal time, near
    #: its median on a 2-vCPU x86_64 virtual machine under CPython 3.11
    nominal_s: float
    #: loop time between samples; an op longer than this gets one after it
    every_s: float


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _reference_job() -> float:
    """Fixed pure-Python work of the closed forms' kind, calling nothing of the package."""
    acc = 0.0
    for n in (3, 5, 8, 13, 21):
        pts = [_Point(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
               for k in range(n)]
        d = [math.hypot(p.x - 0.3, p.y + 0.1) for p in pts]
        sq = [v * v for v in d]
        sums = {m: sum(v ** m for v in sq) / n for m in range(1, n)}
        acc += sum(sums.values()) + sorted(d)[0]
        acc += len(",".join(f"{v:.6f}" for v in d).split(","))
    return acc


def _time_python_job() -> float:
    t0 = time.perf_counter()
    _reference_job()
    return time.perf_counter() - t0


#: The reference for ops that run in this process (median 0.3 to 0.4 ms).
PYTHON_REFERENCE = Reference(_time_python_job, 0.4e-3, 0.05)


def speed_now() -> float:
    """The Python job's nominal time over the median of its runs made now."""
    ref = PYTHON_REFERENCE
    return ref.nominal_s / statistics.median(ref.time() for _ in range(SETUP_REFERENCE_RUNS))


@dataclass
class OpResult:
    latency_s: float
    props: tuple[str, ...]
    #: the op's output, handed to the workload's check
    value: Any = None
    #: None when the op and every check passed, else what failed first
    failure: Optional[str] = None
    #: worst size-parameter error against ground truth, relative to max(r, l)
    rel_error: Optional[float] = None
    #: peak resident set of the op's own process, when it has one
    rss_kb: Optional[int] = None
    #: self time by traced function inside this op, in a traced run
    layer_self_ns: Optional[dict[str, int]] = None


class Tally:
    """Summary of a loop's ops, which run in whole passes over a corpus.

    It keeps three floats per op and two per reference sample, and
    nothing else that grows, so the benchmark process's own peak RSS
    does not depend on how many ops a run fits.
    """

    def __init__(self, period: int, reference: Reference) -> None:
        #: corpus entries per pass; op i ran entry i % period
        self.period = period
        self.reference = reference
        self.latencies = array("d")
        #: per op, the loop's wall time from its start to the next op's start:
        #: the op, its check and the loop's own step
        self.cycles = array("d")
        #: per op, the perf_counter reading when it ended
        self.ends = array("d")
        #: reference samples: when each ran, and its seconds
        self.reference_at = array("d")
        self.reference_s = array("d")
        self.rss_kb = array("q")
        self.failed = 0
        self.failures: list[str] = []
        self.max_rel_error: Optional[float] = None
        self.props: Counter[str] = Counter()
        self.prop_latencies: dict[str, array] = {}
        self.prop_cyclic_ns: Counter[str] = Counter()

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def add_reference(self, at: float, seconds: float) -> None:
        self.reference_at.append(at)
        self.reference_s.append(seconds)

    def entry_medians(self, values: array) -> list[float]:
        """Each corpus entry's median over the run's passes of its scaled time, in entry order."""
        w = REFERENCE_WINDOW
        scaled = array("d")
        for value, end in zip(values, self.ends):
            k = bisect.bisect(self.reference_at, end)
            local = statistics.median(self.reference_s[max(0, k - w):k + w])
            scaled.append(value * self.reference.nominal_s / local)
        return [statistics.median(scaled[e::self.period]) for e in range(self.period)]

    @property
    def throughput(self) -> float:
        """Ops completed per second of loop wall time, for a pass of median entries."""
        return self.period / sum(self.entry_medians(self.cycles))

    def add(self, res: OpResult, end: float, cycle_s: float) -> None:
        self.latencies.append(res.latency_s)
        self.cycles.append(cycle_s)
        self.ends.append(end)
        if res.rss_kb is not None:
            self.rss_kb.append(res.rss_kb)
        if res.failure is not None:
            self.failed += 1
            if len(self.failures) < KEPT_FAILURES:
                self.failures.append(res.failure)
        err = res.rel_error
        # a non-finite error is already a counted failure; keep the figure valid JSON
        if err is not None and math.isfinite(err) and (
                self.max_rel_error is None or err > self.max_rel_error):
            self.max_rel_error = err
        cyclic_ns = 0
        if res.layer_self_ns:
            cyclic_ns = sum(ns for name, ns in res.layer_self_ns.items()
                            if name.startswith("cyclic."))
        for prop in res.props:
            self.props[prop] += 1
            self.prop_latencies.setdefault(prop, array("d")).append(res.latency_s)
            self.prop_cyclic_ns[prop] += cyclic_ns
