"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in a process of its own (``workloads.py``), so that its
set-up is cold and its peak memory is its own, and prints the result as one
JSON object on the last line of standard output: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Results and
span traces are also written under ``.bench_out/`` in the checkout.  Exits
non-zero, without a result, if the workload process fails or cannot import
the simulator from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("honest-L8", "fold-L512", "recorded-mix-L8")
TIMEOUT_S = 170  # the whole run must end within 180 s
UNITS = {
    "sessions_per_s": "sessions/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_gadget"):
        return "us"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"workload {args.workload} did not end within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 3
    child = json.loads(stdout.strip().splitlines()[-1])

    metrics = dict(child["metrics"])
    if not args.trace:
        # cold set-up: from the workload process's start to the end of its
        # first, untimed session
        metrics["setup_s"] = child["first_session_end"] - started
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    for k, v in metrics.items():
        print(f"{args.workload:16s} {k:36s} {v:14.6g} {unit_of(k)}")
    for k, v in child["info"].items():  # context, not metrics
        print(f"{args.workload:16s} ({k}) {v:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
