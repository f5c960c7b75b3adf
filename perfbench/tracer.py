"""Spans around the package's public calls, recorded from outside the package.

``Tracer.instrument`` swaps each named function for a wrapper in every
loaded ``polydual`` module that holds a reference to it, so both the
calls the benchmark makes and the calls the package makes internally
(``cli.run`` into ``dual.solve``, ``search_second_polygon`` into
``distances_from``) become spans.  A span's self time is its duration
minus the time of the spans it encloses.  Everything stays in memory:
every span feeds the per-function aggregates, and the spans of the
first ``KEEP_OPS`` ops are also kept one by one for the trace file.
Each oracle search also records its evaluation counts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable

#: Ops whose spans are kept one by one for the trace file.
KEEP_OPS = 200
ORACLE_SEARCH = "oracle.search_second_polygon"


class FunctionStats:
    __slots__ = ("durations_ns", "self_ns", "failures")

    def __init__(self) -> None:
        self.durations_ns = array("q")
        self.self_ns = 0
        self.failures = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        #: (span id, parent span id or -1, op, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        #: total duration of outermost spans, i.e. instrumented op time
        self.top_ns = 0
        self.op = 0
        #: self time by function within the current op; see take_op_self
        self.op_self: dict[str, int] = {}
        self.active = True
        #: per oracle search: grid samples, descent evaluations, found
        self.oracle_counts: dict[str, list] = {"grid": [], "descent": [], "found": []}
        self._open: list[list[int]] = []  # [span id, enclosed ns] per open span
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = FunctionStats()
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1][0] if self._open else -1
        frame = [span_id, 0]
        self._open.append(frame)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stats.failures += 1
            raise
        finally:
            t1 = time.perf_counter_ns()
            dt = t1 - t0
            self._open.pop()
            if self._open:
                self._open[-1][1] += dt
            else:
                self.top_ns += dt
            stats.durations_ns.append(dt)
            stats.self_ns += dt - frame[1]
            self.op_self[name] = self.op_self.get(name, 0) + dt - frame[1]
            if self.op < KEEP_OPS:
                self.spans.append((span_id, parent, self.op, name, t0, t1))
        if name == ORACLE_SEARCH:
            self._count_search(args, kwargs, result)
        return result

    def _count_search(self, args: tuple, kwargs: dict, result: Any) -> None:
        """Split ``samples_evaluated`` into the grid scan and the descent."""
        from polydual import oracle

        cfg = args[2] if len(args) > 2 else kwargs.get("cfg", oracle.OracleConfig())
        grid = cfg.grid_resolution ** 2 * oracle.COARSE_SIZE_STEPS ** 2
        self.oracle_counts["grid"].append(grid)
        self.oracle_counts["descent"].append(result.samples_evaluated - grid)
        self.oracle_counts["found"].append(bool(result.found))

    def take_op_self(self) -> dict[str, int]:
        """Self time by function since the last call, for attributing to one op."""
        taken, self.op_self = self.op_self, {}
        return taken

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._call(name, fn, args, kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def instrument(self, names: list[str]) -> None:
        """Wrap each ``module.function`` of ``polydual`` wherever it is bound."""
        targets: dict[int, tuple[str, Any]] = {}
        for qual in names:
            module, attr = qual.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"polydual.{module}"), attr)
            targets[id(fn)] = (qual, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "polydual" or mod_name.startswith("polydual.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and value is hit[1]:
                    setattr(mod, attr, self._wrap(*hit))
                    self._patched.append((mod, attr, value))

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not recorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def write_spans(self, path: str) -> None:
        origin = self.spans[0][4] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start_us": (t0 - origin) / 1e3, "end_us": (t1 - origin) / 1e3,
                }) + "\n")
