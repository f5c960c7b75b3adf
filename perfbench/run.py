#!/usr/bin/env python3
"""polydual benchmark: one workload, one seed, one closed loop with one client.

    python3 perfbench/run.py --workload closed-form-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``, nothing is installed.  The run sets up (imports, builds the
seeded inputs, warms up), then issues ops one after another, in whole
passes over its corpus, until ``--seconds`` have passed, checking every
output.  Timings are scaled to a fixed machine speed by a reference job
timed between ops (see ``ops``).  It prints a report line and, last,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends half the time untraced and half traced, with spans
around the package's public functions, and reports the per-layer
metrics: calls, busy time and self-time share per function, the fresh
process import costs, oracle evaluation counts, input-property shares,
the tracing overhead, and the known-defect probes.  Run outputs (the
report and the spans of the first traced ops) go to ``perfbench/out``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from ops import PYTHON_REFERENCE, Reference, Tally, speed_now  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "cli-cold": "cli_cold",
    "closed-form-batch": "closed_form",
    "oracle-agreement": "oracle_agreement",
}

#: Set-up is timed this many times per untraced run (this process plus
#: fresh processes that only set up) and reported as the median.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Every traced function, for every workload; a workload that never
#: calls one reports zero calls for it.
LAYERS = [
    "cli.main", "cli.run", "cli.dumps",
    "geometry.distances_from", "dual.solve",
    "cyclic.averages_from_distances", "cyclic.check_consistency",
    "reconstruct.construct_dual", "reconstruct.verify_permutation",
    "pompeiu.pompeiu_from_distances", "pompeiu.solve_equilateral",
    "pompeiu.construct_both_triangles",
    "two_points.two_points", "svg.scene_from_dual_pair", "svg.render_svg",
    "oracle.search_second_polygon",
]
LAYER_FIGURES = {
    "calls_per_op": "count",
    "us_p50": "us",
    "us_per_op": "us",
    "self_pct": "%",
    "failures": "count",
}
PROPS = ("n3", "n4_12", "n13_64", "wide_scale", "near_center", "near_circle", "error_path")
BUCKETS = ("n3", "n4_12", "n13_64")


def per_layer_units() -> dict[str, str]:
    units = {
        "process.interpreter_ms": "ms",
        "import.numpy_ms": "ms",
        "import.polydual_cli_ms": "ms",
    }
    for layer in LAYERS:
        for figure, unit in LAYER_FIGURES.items():
            units[f"{layer}.{figure}"] = unit
    for bucket in BUCKETS:
        units[f"bucket.{bucket}.op_us_p50"] = "us"
        units[f"bucket.{bucket}.cyclic_pct"] = "%"
    units.update({
        "oracle.grid_samples": "count",
        "oracle.descent_evals": "count",
        "oracle.found_ratio": "ratio",
    })
    for prop in PROPS:
        units[f"share.{prop}_pct"] = "%"
    units.update({
        "ops.error_rate": "ratio",
        "ops.max_rel_error": "ratio",
        "trace.overhead_pct": "%",
        "trace.accounted_pct": "%",
        "probe.attempted": "count",
        "probe.failed": "count",
    })
    return units


PER_LAYER = per_layer_units()


def check_spec() -> None:
    """BENCHMARK.json must list exactly the metrics this file reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise SystemExit(f"BENCHMARK.json end_to_end {declared} != reported {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER:
        raise SystemExit("BENCHMARK.json per_layer differs from the reported metrics")
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json workloads {names} != {set(WORKLOADS)}")


# ---------------------------------------------------------------------------
# the closed loop


def loop(state, op, check, seconds: float, reference: Reference, tracer=None) -> Tally:
    """Ops 0, 1, 2, ... one at a time in whole passes over the corpus.

    The loop stops at the first pass boundary after ``seconds``, so every
    run measures the same mix of inputs however many passes it fits, and
    each entry has one sample per pass.  Reference samples for the
    speed scaling (see ``ops``) are taken between ops, off the op's time.
    """
    period = len(state["corpus"])
    tally = Tally(period, reference)
    cycle_start = next_reference = time.perf_counter()
    deadline = cycle_start + seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
        res = op(state, i)
        if tracer is not None:
            res.layer_self_ns = tracer.take_op_self()
        if res.failure is None:
            with tracer.paused() if tracer is not None else nullcontext():
                try:
                    res.failure, res.rel_error = check(state, i, res.value)
                except Exception as exc:  # a check that cannot read the output fails it
                    res.failure = f"check raised {type(exc).__name__}: {exc}"
        now = time.perf_counter()
        tally.add(res, now, now - cycle_start)
        cycle_start = now
        if now >= next_reference:
            tally.add_reference(now, reference.time())
            next_reference = now + reference.every_s
            cycle_start = time.perf_counter()
        i += 1
        if now >= deadline and i % period == 0:
            return tally


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    # Each entry's median over the passes, then quantiles over entries.  With
    # the speed scaling, this cut the ten-seed quartile spread of closed-form
    # latency on a shared 2-vCPU virtual machine from 0.24-0.36 to 0.02.
    lat = tally.entry_medians(tally.latencies)
    if tally.rss_kb:  # one process per op: the median op's own peak
        peak_kb = statistics.median(tally.rss_kb)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "latency_ms_p50": statistics.median(lat) * 1e3,
        "latency_ms_p90": quantile(lat, 90) * 1e3,
        "throughput_ops_per_s": tally.throughput,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def shares(tally: Tally) -> dict[str, float]:
    return {f"share.{prop}_pct": 100.0 * tally.props[prop] / tally.ops for prop in PROPS}


# ---------------------------------------------------------------------------
# the traced run


def per_layer(mod, state, seed: int, seconds: float) -> tuple[dict, list[Tally], dict]:
    from tracer import Tracer
    import proc

    reference = mod.REFERENCE
    untraced = loop(state, mod.op, mod.check, seconds / 2, reference)
    warm_op = getattr(mod, "warm_op", None)
    if warm_op is not None:
        # ops are child processes: trace the same entries run warm in process
        reference = PYTHON_REFERENCE
        base = loop(state, warm_op, mod.warm_check, seconds / 4, reference)
        traced_op, traced_check, traced_s = warm_op, mod.warm_check, seconds / 4
    else:
        base = untraced
        traced_op, traced_check, traced_s = mod.op, mod.check, seconds / 2
    tracer = Tracer()
    tracer.instrument(LAYERS)
    try:
        traced = loop(state, traced_op, traced_check, traced_s, reference, tracer)
    finally:
        tracer.restore()

    ops = traced.ops
    traced_ns = sum(traced.latencies) * 1e9
    imports = proc.import_costs()
    if warm_op is not None:
        # shares of the cold op, whose time the warm run cannot see
        op_ns = statistics.fmean(untraced.latencies) * 1e9 * ops
    else:
        op_ns = traced_ns
    metrics: dict[str, float] = dict(imports)
    for layer in LAYERS:
        st = tracer.stats.get(layer)
        durations = st.durations_ns if st else []
        metrics[f"{layer}.calls_per_op"] = len(durations) / ops
        metrics[f"{layer}.us_p50"] = statistics.median(durations) / 1e3 if durations else 0.0
        metrics[f"{layer}.us_per_op"] = sum(durations) / ops / 1e3
        metrics[f"{layer}.self_pct"] = 100.0 * (st.self_ns if st else 0) / op_ns
        metrics[f"{layer}.failures"] = st.failures if st else 0

    for bucket in BUCKETS:
        lat = untraced.prop_latencies.get(bucket)
        metrics[f"bucket.{bucket}.op_us_p50"] = statistics.median(lat) * 1e6 if lat else 0.0
        tot = sum(traced.prop_latencies.get(bucket, ())) * 1e9
        metrics[f"bucket.{bucket}.cyclic_pct"] = (
            100.0 * traced.prop_cyclic_ns[bucket] / tot if tot else 0.0)

    counts = tracer.oracle_counts
    metrics["oracle.grid_samples"] = statistics.median(counts["grid"]) if counts["grid"] else 0
    metrics["oracle.descent_evals"] = (
        statistics.median(counts["descent"]) if counts["descent"] else 0)
    metrics["oracle.found_ratio"] = (
        sum(counts["found"]) / len(counts["found"]) if counts["found"] else 0.0)
    metrics.update(shares(untraced))

    metrics["trace.overhead_pct"] = 100.0 * (base.throughput / traced.throughput - 1.0)
    if warm_op is not None:
        cold_ms = op_ns / ops / 1e6
        warm_main_ms = metrics["cli.main.us_per_op"] / 1e3
        metrics["trace.accounted_pct"] = 100.0 * (
            imports["process.interpreter_ms"] + imports["import.polydual_cli_ms"] + warm_main_ms
        ) / cold_ms
    else:
        metrics["trace.accounted_pct"] = 100.0 * tracer.top_ns / traced_ns

    probes = mod.probe(seed)
    metrics["probe.attempted"] = len(probes)
    metrics["probe.failed"] = sum(f is not None for _, f in probes)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"spans-{mod.NAME}-seed{seed}.jsonl"))
    detail = {
        "probes": [{"input": label, "failure": f} for label, f in probes],
        "untraced_ops": untraced.ops,
        "traced_ops": ops,
    }
    tallies = [untraced, traced] + ([base] if base is not untraced else [])
    return metrics, tallies, detail


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    sha = None
    if shutil.which("git") and (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polydual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_in_children(workload: str, seed: int, count: int) -> list[float]:
    import proc

    samples = []
    for _ in range(count):
        done = proc.run([str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--setup-only"])
        if done.exit_code != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.decode()[-500:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "polydual" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'polydual'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module(WORKLOADS[args.workload])
    state = mod.setup(args.seed)
    setup_s = (time.perf_counter() - START) * speed_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    check_spec()

    if args.trace:
        setup_samples = [setup_s]
        metrics, tallies, detail = per_layer(mod, state, args.seed, args.seconds)
    else:
        setup_samples = [setup_s] + setup_in_children(args.workload, args.seed,
                                                      SETUP_SAMPLES - 1)
        tallies = [loop(state, mod.op, mod.check, args.seconds, mod.REFERENCE)]
        metrics = end_to_end(tallies[0], statistics.median(setup_samples))
        detail = {}
    attempted = sum(t.ops for t in tallies)
    failed = sum(t.failed for t in tallies)
    accuracy = {
        "error_rate": failed / attempted,
        "max_rel_error": max((t.max_rel_error for t in tallies
                              if t.max_rel_error is not None), default=0.0),
    }
    if args.trace:
        metrics["ops.error_rate"] = accuracy["error_rate"]
        metrics["ops.max_rel_error"] = accuracy["max_rel_error"]
    for t in tallies:
        for failure in t.failures:
            print(f"FAILED {failure}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "setup_samples_s": setup_samples,
        "samples": {"ops": tallies[0].ops, "entries": tallies[0].period,
                    "passes": tallies[0].ops // tallies[0].period},
        "accuracy": accuracy,
        "shares": shares(tallies[0]),
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
