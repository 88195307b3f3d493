"""The workload process: set up one workload, run its ops in a closed loop, report.

Usage (normally started by run.py):
  python3 perfbench/client.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/client.py --workload NAME --seed N --setup-only

One client sends the next op only after the previous one returns. Set-up
(imports, inputs, references, one untimed warm-up op) ends with the line
``READY`` on stdout; the launcher times set-up up to that line. The last
stdout line is the JSON result; the line before it is a JSON report with the
environment, the tail percentile and its sample count, and any failures.

With ``--trace 0`` each op is timed from outside. With ``--trace 1`` ops run
in pairs on the same input, one under the span tracer and one without, and
the per-layer metrics come from the traced ops; the tracing overhead is the
difference of the two medians. The modes-large traced run also records the
size ladder: per-stage self time for one grid at each of several sizes.
When a traced run ends, all its spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import procenv

procenv.pin()
sys.path.insert(0, str(procenv.SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import grids  # noqa: E402
import tracer as tr  # noqa: E402
from oscdamp import network, study  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

READY = "READY"
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
IMPORT_PROBES = 3
LADDER_BUSES = (25, 70, 140, 230, 500)
LADDER_GENERATORS = 10
SPANS_DIR = procenv.BENCH / "out"


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The sample at the highest percentile with ``beyond`` samples above it,
    and that percentile."""
    xs = sorted(samples)
    i = len(xs) - 1 - beyond
    if i < 0:
        raise ValueError(f"{len(xs)} samples leave none with {beyond} above it")
    return xs[i], 100.0 * (i + 1) / len(xs)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in procenv.THREAD_VARS},
    }


def metric(value: float, name: str) -> dict:
    unit = "s" if name.endswith("_s") else "count"
    return {"value": value, "unit": unit}


def run_op(wl, item, tracer=None) -> tuple[float, str | None]:
    """Time one op from outside and check its output; returns (seconds, failure)."""
    t0 = time.perf_counter()
    try:
        result = wl.op(item, tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, wl.check(item, result)


def timed_run(wl, items, seconds: float) -> tuple[dict, dict]:
    latencies, failures = [], []
    t_end = time.perf_counter() + seconds
    while len(latencies) < MIN_OPS or time.perf_counter() < t_end:
        elapsed, failure = run_op(wl, items[len(latencies) % len(items)])
        latencies.append(elapsed)
        if failure:
            failures.append(failure)
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    tail_s, tail_pct = tail(latencies)
    ok = len(latencies) - len(failures)
    metrics = {
        "latency_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "latency_tail_s": {"value": tail_s, "unit": "s"},
        "throughput_ops_s": {"value": ok / sum(latencies), "unit": "ops/s"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
    }
    report = {
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "peak_rss_of": "largest child" if wl.children_rss else "workload process",
    }
    return metrics, report | outcome(latencies, failures)


def outcome(latencies: list[float], failures: list[str]) -> dict:
    return {"ops_attempted": len(latencies), "ops_failed": len(failures),
            "failures": failures[:5]}


def import_probe() -> float:
    """Median time for a fresh interpreter to import ``oscdamp.cli``."""
    code = ("import time; t = time.perf_counter(); import oscdamp.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=procenv.ROOT, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def traced_run(wl, items, seconds: float, spans_path) -> tuple[dict, dict]:
    lat = {True: [], False: []}
    failures = []
    traced_ops = []
    t_end = time.perf_counter() + seconds
    with tr.Tracer() as tracer:
        k = 0
        while k < len(items) or time.perf_counter() < t_end:
            item = items[k % len(items)]
            for traced in ((True, False) if k % 2 == 0 else (False, True)):
                tracer.op = k if traced else None
                elapsed, failure = run_op(wl, item, tracer if traced else None)
                tracer.op = None
                lat[traced].append(elapsed)
                if failure:
                    failures.append(failure)
            traced_ops.append(k)
            k += 1
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps({"fields": tr.Span.FIELDS, "spans": tracer.dump()}),
                          encoding="utf-8")
    layers = tr.layer_metrics(tracer.spans, traced_ops, traced_ops[:len(items)])
    layers["cli.import_s"] = import_probe()
    traced_p50 = statistics.median(lat[True])
    layers["trace.latency_p50_s"] = traced_p50
    layers["trace.overhead_s"] = traced_p50 - statistics.median(lat[False])
    metrics = {name: metric(value, name) for name, value in layers.items()}
    report = {"exact_repeat": list(tr.EXACT_REPEAT),
              "untraced_latency_p50_s": statistics.median(lat[False]),
              "spans": str(spans_path)}
    return metrics, report | outcome(lat[True] + lat[False], failures)


def size_ladder(seed: int) -> list[dict]:
    """Untimed diagnostic: per-stage self time of one traced study per grid size."""
    rows = []
    with tr.Tracer() as tracer:
        for op, n in enumerate(LADDER_BUSES):
            text, _ = grids.synthetic_grid(n - LADDER_GENERATORS, LADDER_GENERATORS, seed)
            tracer.op = op
            study.build_study(network.parse_grid_file(text))
            tracer.op = None
    ops = tr.per_op(tracer.spans)
    for op, n in enumerate(LADDER_BUSES):
        d = ops[op]
        rows.append({
            "buses": n,
            "pencil_n": d["modal.qz.pencil_n"],
            "self_s": {k[:-len(".self_s")]: v for k, v in d.items() if k.endswith(".self_s")},
            "qz_share_of_build_study": d["modal.qz_s"] / d["study.build_study.total_s"],
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    wl = WORKLOADS[args.workload]()
    items = wl.setup(args.seed)
    _, warm_failure = run_op(wl, items[0])
    if warm_failure:
        print(f"warm-up op failed: {warm_failure}", file=sys.stderr)
    print(READY, flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        spans_path = SPANS_DIR / f"spans-{wl.name}-{args.seed}.json"
        metrics, report = traced_run(wl, items, args.seconds, spans_path)
    else:
        metrics, report = timed_run(wl, items, args.seconds)
    report |= {
        "workload": wl.name,
        "seed": args.seed,
        "inputs": len(items),
        "loop": "closed, one client",
        "time_waited": "not applicable: one process, one client, no queues or locks",
        "environment": environment(),
    }
    if args.trace and wl.name == "modes-large":
        report["size_ladder"] = size_ladder(args.seed)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": report["ops_failed"] == 0,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
