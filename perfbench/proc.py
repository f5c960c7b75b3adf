"""Child processes: spawn, capture both streams, reap with the child's own rusage.

``os.wait4`` returns the resource usage of exactly the reaped child, so
each process's peak RSS is its own and not the running maximum over all
children that ``RUSAGE_CHILDREN`` would give.  Both pipes are drained
from one thread with a selector.
"""

from __future__ import annotations

import os
import selectors
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Fresh processes per import-cost figure; the figure is their median.
IMPORT_REPEATS = 3


@dataclass(frozen=True)
class Completed:
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(args: list[str]) -> Completed:
    """Run ``sys.executable`` with ``args``; the time covers spawn to reap."""
    argv = [sys.executable, *args]
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
    reaped = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(out_r, selectors.EVENT_READ)
            sel.register(err_r, selectors.EVENT_READ)
            deadline = t0 + CHILD_TIMEOUT_S
            while sel.get_map():
                ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
                if not ready:
                    raise TimeoutError(f"child {argv[1:4]} ran over {CHILD_TIMEOUT_S} s")
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        seconds = time.perf_counter() - t0
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(out_r)
        os.close(err_r)
    return Completed(seconds, os.waitstatus_to_exitcode(status),
                     b"".join(chunks[out_r]), b"".join(chunks[err_r]), usage.ru_maxrss)


def _importtime_us(stderr: bytes, module: str) -> float:
    """Cumulative microseconds of ``module`` in ``-X importtime`` output; 0 if not imported."""
    for line in stderr.decode("utf-8", "replace").splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return float(parts[1])
    return 0.0


def import_costs() -> dict[str, float]:
    """Median fresh-process costs: bare interpreter start, and the CLI's imports."""
    interp, numpy_us, cli_us = [], [], []
    for _ in range(IMPORT_REPEATS):
        interp.append(run(["-c", "pass"]).seconds * 1e3)
        done = run(["-X", "importtime", "-c", "import polydual.cli"])
        if done.exit_code != 0:
            raise RuntimeError(done.stderr.decode("utf-8", "replace"))
        numpy_us.append(_importtime_us(done.stderr, "numpy"))
        cli_us.append(_importtime_us(done.stderr, "polydual.cli"))
    return {
        "process.interpreter_ms": statistics.median(interp),
        "import.numpy_ms": statistics.median(numpy_us) / 1e3,
        "import.polydual_cli_ms": statistics.median(cli_us) / 1e3,
    }
