"""Alternating parent/change pairs of the benchmark, summarised as JSON.

    python tools/bench_pairs.py <parent-checkout> <change-checkout> --seed <n> > BENCH_<n>.json

Runs ``perfbench/run.py --trace 0`` of each checkout, in that checkout, for
the benchmark's ``run_seconds``, once per side and pair, 10 pairs for every
workload named in ``BENCHMARK.json``, flipping which side runs first on every
pair: the parent runs first on even pairs.  Refuses to run (exit 2) unless
both checkouts hold the same ``perfbench/`` tree and ``BENCHMARK.json``, so
both sides are measured by one benchmark.  Changes no file under ``perfbench/``; ``run.py`` itself writes
its results under each checkout's ``.bench_out/``.

Prints one JSON object.  Per workload and end-to-end metric: each side's
runs, median and quartiles (inclusive method), the pairs the change won
(ties count for neither side), the change's median over the parent's, the
parent's IQR, and a verdict against the metric's bound: ``better`` when the
change won enough pairs (nine tenths) and its median beats the parent's by
more than the parent's IQR; otherwise ``unresolved`` when the parent's IQR
is wider than the bound (relative to its median) and some change run is not
better than every parent run; otherwise ``worse`` when the change's median
is worse by more than the bound, else ``within bound``.  Exits 1 when a run
fails, reports incorrect outputs or failed sessions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

PAIRS = 10  # alternating pairs per workload
WIN_SHARE = 0.9  # share of pairs the change must win to count as better


def _tree(checkout: str) -> dict[str, bytes]:
    """The benchmark's files in `checkout`: perfbench/ (less bytecode caches)
    and BENCHMARK.json, by relative path."""
    files = {}
    with open(os.path.join(checkout, "BENCHMARK.json"), "rb") as f:
        files["BENCHMARK.json"] = f.read()
    root = os.path.join(checkout, "perfbench")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, checkout)] = f.read()
    return files


def _run(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = quantiles(runs, n=4, method="inclusive")
    return {"median": median(runs), "q1": q1, "q3": q3, "runs": runs}


def _compare(parent: dict, change: dict, higher: bool, bound: float) -> tuple[int, str]:
    """Pairs won by the change, and its verdict (module docstring), from
    the two sides' summaries of one metric."""
    sign = 1 if higher else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent["runs"], change["runs"]))
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if wins >= WIN_SHARE * len(parent["runs"]) and gain > iqr:
        return wins, "better"
    every_run_better = min(sign * x for x in change["runs"]) > max(sign * x for x in parent["runs"])
    if iqr > bound * parent["median"] and not every_run_better:
        return wins, "unresolved"
    return wins, "worse" if gain < -bound * parent["median"] else "within bound"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, required=True, help="workload seed; pick one not used while building")
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    try:
        trees = {side: _tree(path) for side, path in sides.items()}
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if trees["parent"] != trees["change"]:
        differ = sorted(k for k in trees["parent"].keys() | trees["change"].keys()
                        if trees["parent"].get(k) != trees["change"].get(k))
        print(f"error: the checkouts' benchmarks differ: {differ}", file=sys.stderr)
        return 2
    bench = json.loads(trees["change"]["BENCHMARK.json"])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    report = {
        "method": (f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {seconds} --trace 0 "
                   f"in each checkout; {PAIRS} pairs per workload, parent first on even pairs"),
        "workloads": {},
    }
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        results: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                result = _run(sides[side], workload, args.seed, seconds)
                results[side].append(result)
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                      file=sys.stderr)
        row: dict = {}
        for side, runs in results.items():
            row[side] = {m["name"]: _summary([r["metrics"][m["name"]]["value"] for r in runs]) for m in metrics}
            row[side].update(
                attempted=sum(r["attempted"] for r in runs),
                failed=sum(r["failed"] for r in runs),
                all_correct=all(r["correct"] for r in runs),
            )
            bad |= row[side]["failed"] > 0 or not row[side]["all_correct"]
        row["pairs"] = PAIRS
        for m in metrics:
            name = m["name"]
            parent, change = row["parent"][name], row["change"][name]
            wins, verdict = _compare(parent, change, m["better"] == "higher", m["bound"])
            row[f"{name}_pairs_won_by_change"] = wins
            row[f"{name}_change_over_parent"] = change["median"] / parent["median"]
            row[f"parent_{name}_iqr"] = parent["q3"] - parent["q1"]
            row[f"{name}_verdict"] = verdict
        report["workloads"][workload] = row
    print(json.dumps(report, indent=1))
    return int(bad)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
