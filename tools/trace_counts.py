"""Per-session work counts of the benchmark workloads over a fixed session set.

    python tools/trace_counts.py [checkout]
    python tools/trace_counts.py <parent-checkout> <change-checkout>

Imports ``perfbench/workloads.py`` and ``perfbench/tracer.py`` from
`checkout` (default: this repository), changing neither, and runs a fixed
number of rounds of each workload under the tracer: 20 rounds of honest-L8,
4 of fold-L512 and 200 of recorded-mix-L8, all from seed 424242.  Prints one
JSON object per workload with its ``attempted`` and ``failed`` session counts
and every per-session metric that is not a time, so two checkouts compare
count for count.  Exits 1 when any workload has a failed session or an
incorrect outcome, so a count comparison can gate on it.
``perfbench/run.py --trace 1`` replays a time-dependent number of rounds, so
its counts do not compare this way.

Given two checkouts, runs the one-checkout form on each in a process of its
own and prints one JSON object holding only what differs, per workload and
field, as ``[parent, change]`` (``{}`` when every count matches).  Exits 1
when anything differs or either side fails as above.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SEED = 424242
ROUNDS = {"honest-L8": 20, "fold-L512": 4, "recorded-mix-L8": 200}
TIME_SUFFIXES = ("_ms", "_us_per_gadget")


def _fields(workload: dict) -> dict:
    """A workload's report as one flat dict: its session counts and metrics."""
    return {**{k: v for k, v in workload.items() if k != "metrics"}, **workload.get("metrics", {})}


def differences(parent: dict, change: dict) -> dict:
    """{workload: {field: [parent value, change value]}} over every field
    that differs; a field missing on one side reads None there."""
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        a, b = _fields(parent.get(name, {})), _fields(change.get(name, {}))
        diff = {k: [a.get(k), b.get(k)] for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)}
        if diff:
            out[name] = diff
    return out


def _report(checkout: str) -> tuple[dict, int]:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), checkout], stdout=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():  # a crash exits 1 with no report
        raise SystemExit(f"error: trace counts of {checkout} exited with code {proc.returncode}")
    return json.loads(proc.stdout), proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        (parent, parent_rc), (change, change_rc) = map(_report, argv)
        diff = differences(parent, change)
        print(json.dumps(diff, indent=1))
        return int(bool(diff) or parent_rc or change_rc)
    if len(argv) > 1:
        print(
            "usage: python tools/trace_counts.py [checkout]\n"
            "       python tools/trace_counts.py <parent-checkout> <change-checkout>",
            file=sys.stderr,
        )
        return 2
    checkout = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), os.pardir))
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    import workloads
    from tracer import Tracer

    cv = workloads.import_program()
    report = {}
    for name, rounds in ROUNDS.items():
        workload = workloads.WORKLOADS[name](cv, SEED)
        workload.warmup()
        tracer = Tracer(cv)
        tracer.install()
        try:
            workloads.run_rounds(workload, 0, rounds)
        finally:
            tracer.uninstall()
        workload.finish()
        metrics = {k: v for k, v in sorted(tracer.metrics().items()) if not k.endswith(TIME_SUFFIXES)}
        report[name] = {
            "attempted": workload.attempted,
            "failed": workload.failed,
            "correct": not workload.problems,
            "metrics": metrics,
        }
    print(json.dumps(report, indent=1))
    return int(any(r["failed"] > 0 or not r["correct"] for r in report.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
