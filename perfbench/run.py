"""oscdamp benchmark: one closed-loop workload, every metric by name and unit.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (METRICS.md says why each was chosen): fixtures-cli,
rank-mesh, modes-large, sweep-oracle. Inputs are made from the seed; the
package only ever receives grid text or the objects parsed from it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
latency_p50_s, latency_tail_s, throughput_ops_s, peak_rss_mb and setup_s.
``setup_s`` is the median of SETUP_SAMPLES set-ups, each timed from process
start to the first timed op: SETUP_SAMPLES - 1 set-up-only processes, then
the measuring client itself. With ``--trace 1`` the last line carries the
per-layer metrics of a separate traced run instead.

Every process started here runs alone, one at a time, with BLAS pinned to
one thread. The benchmark exits 2 without a result if the checkout has no
``src/oscdamp`` package, and 1 if a process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time

import procenv

SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
CLIENT_TIMEOUT_S = 150
READY = "READY"   # client.READY; the launcher stays free of numpy imports


class ClientError(RuntimeError):
    pass


def run_client(args, timeout: float, *extra: str) -> tuple[float, list[str]]:
    """Run one client to the end; return its set-up seconds and its stdout lines.

    Set-up is timed from just before the process starts to its READY line.
    """
    argv = [sys.executable, str(procenv.BENCH / "client.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]
    setup_s = None
    lines = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=procenv.ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if setup_s is None and line.rstrip("\n") == READY:
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise ClientError(f"{args.workload} client exited with {proc.returncode}")
    return setup_s, lines


def run(args) -> int:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_client(args, SETUP_TIMEOUT_S, "--setup-only")[0])
    seconds, lines = run_client(args, CLIENT_TIMEOUT_S, "--seconds", str(args.seconds),
                                "--trace", str(args.trace))
    setups.append(seconds)
    if not lines:
        raise ClientError(f"{args.workload} client printed no result")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print(json.dumps({"setup_samples_s": setups}))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not procenv.package_present():
        print(f"run.py: no oscdamp package under {procenv.SRC}", file=sys.stderr)
        return 2
    procenv.pin()
    try:
        return run(args)
    except ClientError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
