"""Golden digests: SHA-256 pins of every seeded output family.

Each entry is the SHA-256 of a byte-exact output of the simulator:

* ``transcript/<strategy>/<round type>/<seed>`` — the JSONL transcript of
  one forced session at kappa=8, L=3, for each of the seven built-in
  strategies, the six round types and two seeds;
* ``transcript/<strategy>/k16-L8/<seed>`` — the JSONL transcript of one
  naturally dispatched session at kappa=16, L=8 (full-size tables and
  4-nibble tokens), for the six strategies of the recorded-mix-L8 benchmark
  workload and the same two seeds;
* ``stats/<strategy>/...`` — the canonical ``stats`` report JSON;
* ``amplify/...`` — exit code and stdout of one ``cvqcsim amplify`` run.

A refactor or speedup must leave every digest unchanged.  A change that is
meant to alter seeded output re-pins on purpose: run this script without
``--check``, and the diff of ``digests.json`` shows what moved.

    python tests/golden/regen.py           # rewrite digests.json
    python tests/golden/regen.py --check   # exit 1 and list entries that differ
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from cvqcsim.adversary import parse_strategy  # noqa: E402
from cvqcsim.cli import main as cli_main  # noqa: E402
from cvqcsim.harness import estimate_rates  # noqa: E402
from cvqcsim.protocol import ROUND_TYPES, run_pre_rspv  # noqa: E402

STRATEGIES = {
    "honest": "honest",
    "conjugate": "conjugate",
    "phase_offset-bump3": {"attack": "phase_offset", "g": "bump:3"},
    "random_response": "random_response",
    "always_lose": "always_lose",
    "corrupt_setup": "corrupt_setup",
    "ghz_collapse": "ghz_collapse",
}
TRANSCRIPT_SEEDS = ("golden-0", "golden-1")
RECORDED_MIX = ("honest", "conjugate", "phase_offset-bump3", "ghz_collapse", "random_response", "corrupt_setup")
STATS = {  # name -> (strategy, L, kappa, sessions)
    "stats/honest/k8-L3-n400": ("honest", 3, 8, 400),
    "stats/phase_offset-bump3/k8-L3-n400": (STRATEGIES["phase_offset-bump3"], 3, 8, 400),
    "stats/ghz_collapse/k8-L3-n400": ("ghz_collapse", 3, 8, 400),
    "stats/honest/k16-L8-n200": ("honest", 8, 16, 200),
}
AMPLIFY_ARGV = ["amplify", "--kappa", "12", "--L", "2", "--n-temp", "100", "--seed", "03" * 32]  # accepts


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, str]:
    """Name -> SHA-256 hex of every pinned output, in a fixed order."""
    out: dict[str, str] = {}
    for name, spec in STRATEGIES.items():
        strategy = parse_strategy(spec)
        for plan in ROUND_TYPES:
            for seed in TRANSCRIPT_SEEDS:
                res = run_pre_rspv(
                    strategy, seed, kappa=8, L=3, force_plan=plan, collect_transcript=True
                )
                out[f"transcript/{name}/{plan}/{seed}"] = _sha(res.transcript.to_jsonl())
    for name in RECORDED_MIX:
        strategy = parse_strategy(STRATEGIES[name])
        for seed in TRANSCRIPT_SEEDS:
            res = run_pre_rspv(strategy, seed, kappa=16, L=8, collect_transcript=True)
            out[f"transcript/{name}/k16-L8/{seed}"] = _sha(res.transcript.to_jsonl())
    for name, (spec, L, kappa, sessions) in STATS.items():
        report = estimate_rates(L, kappa, sessions, parse_strategy(spec), name.encode())
        out[name] = _sha(report.to_json())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(AMPLIFY_ARGV)
    out["amplify/rspv/k12-L2-n100"] = _sha(f"exit={code}\n{buf.getvalue()}")
    return out


def load() -> dict[str, str]:
    with open(DIGESTS) as f:
        return json.load(f)


def differences(stored: dict[str, str], now: dict[str, str]) -> list[str]:
    return sorted(k for k in stored.keys() | now.keys() if stored.get(k) != now.get(k))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare against digests.json, write nothing")
    args = ap.parse_args(argv)
    now = compute()
    if args.check:
        diff = differences(load(), now)
        for k in diff:
            print(f"differs: {k}")
        print(f"{len(now) - len(diff)}/{len(now)} digests match")
        return 1 if diff else 0
    with open(DIGESTS, "w") as f:
        json.dump(now, f, indent=1)
        f.write("\n")
    print(f"wrote {len(now)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
