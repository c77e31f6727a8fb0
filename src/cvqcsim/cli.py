"""Command-line entry point.

Subcommands:

* ``run``      — one full session, transcript as JSON-lines on stdout.
* ``stats``    — Monte-Carlo rate report over many sessions (JSON).
* ``amplify``  — the amplified protocol (RSPV, or full CVQC with the
                 fidelity verifier); exit code 1 on protocol rejection.
* ``bench``    — linear-scaling benchmark over a grid of L.
* ``selftest`` — exact cross-checks of the fast paths against brute force.

Exit codes: 0 success, 1 protocol rejection (amplify) or selftest failure,
2 usage errors — bad arguments, out-of-range sizes, unreadable or malformed
config files — reported as one ``error:`` line on stderr.  Seeds are hex
strings; every report echoes the master seed it actually used (``run``
writes a freshly drawn one to stderr as ``seed: <hex>``), so any run can be
replayed bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from . import amplify as amp
from .adversary import parse_strategy
from .bits import Bits
from .gadget import (
    KeyPair,
    enumerate_hadamard_distribution,
    make_gadget,
    sampler_distribution,
)
from .harness import estimate_rates, master_seed_from, scaling_bench
from .ntcf import chk, keygen
from .oracle import RandomOracle, randbytes
from .protocol import ROUND_TYPES, check_size, run_pre_rspv


def _seed_arg(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be a hex string, got {text!r}")


def _grid_arg(text: str) -> list[int]:
    try:
        grid = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad L grid {text!r}")
    if not grid or grid != sorted(set(grid)):
        raise argparse.ArgumentTypeError("L grid must be strictly ascending")
    return grid


_SIZE_DEFAULTS = {"L": 2, "kappa": 16}
# amplify config-file key -> the flag's attribute name
_CONFIG_KEYS = {"L": "L", "kappa": "kappa", "seed": "seed", "N_temp": "n_temp", "win_slack": "win_slack",
                "N_rspv": "n_rspv"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cvqcsim", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, sessions=False):
        sp.add_argument("--L", type=int, default=_SIZE_DEFAULTS["L"], help="output gadget count")
        sp.add_argument("--kappa", type=int, default=_SIZE_DEFAULTS["kappa"], help="key width in bits")
        sp.add_argument("--strategy", default="honest",
                        help='strategy name or JSON, e.g. \'{"attack":"phase_offset","g":"bump:3"}\'')
        sp.add_argument("--seed", type=_seed_arg, default=None, help="hex seed (default: fresh)")
        if sessions:
            sp.add_argument("--sessions", type=int, default=10000)

    sp = sub.add_parser("run", help="single session; transcript JSONL to stdout")
    common(sp)
    sp.add_argument("--force-plan", choices=ROUND_TYPES, default=None)
    sp.add_argument("--force-coin", choices=("std", "had"), default=None)

    sp = sub.add_parser("stats", help="Monte-Carlo rate report")
    common(sp, sessions=True)
    sp.add_argument("--force-plan", choices=ROUND_TYPES, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--timing", action="store_true", help="include wall-clock fields")

    sp = sub.add_parser("amplify", help="amplified protocol; exit 1 on rejection")
    common(sp)
    sp.set_defaults(L=None, kappa=None)  # a flag, else --config, else _SIZE_DEFAULTS
    sp.add_argument("--mode", choices=("rspv", "cvqc"), default="rspv")
    sp.add_argument("--config", type=str, default=None, help="JSON config file")
    sp.add_argument("--n-temp", type=int, default=None)
    sp.add_argument("--win-slack", type=float, default=None)
    sp.add_argument("--n-rspv", type=int, default=None)

    sp = sub.add_parser("bench", help="linear-scaling benchmark")
    sp.add_argument("--kappa", type=int, default=16)
    sp.add_argument("--L-grid", type=_grid_arg, default=[128, 256, 512, 1024])
    sp.add_argument("--sessions-per-l", type=int, default=20)
    sp.add_argument("--seed", type=_seed_arg, default=None)

    sub.add_parser("selftest", help="exact brute-force cross-checks")
    return p


def cmd_run(args) -> int:
    out = run_pre_rspv(
        args.strategy,
        args.seed,
        kappa=args.kappa,
        L=args.L,
        force_plan=args.force_plan,
        force_coin=args.force_coin,
        collect_transcript=True,
    )
    sys.stdout.write(out.transcript.to_jsonl())
    return 0


def cmd_stats(args) -> int:
    report = estimate_rates(
        args.L,
        args.kappa,
        args.sessions,
        args.strategy,
        args.seed,
        workers=args.workers,
        force_plan=args.force_plan,
    )
    sys.stdout.write(report.to_json(timing=args.timing))
    return 0


def _resolve_amplify(args) -> None:
    """Fill each amplify setting that no flag gave from the --config file
    (flags win), then from the defaults, and build ``args.cfg``."""
    raw = {}
    if args.config:
        with open(args.config) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {raw!r}")
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config key {sorted(unknown)}; known: {list(_CONFIG_KEYS)}")
        for key in ("L", "kappa", "N_temp", "N_rspv", "win_slack"):
            kind, what = ((int, float), "a number") if key == "win_slack" else (int, "an integer")
            if key in raw and (isinstance(raw[key], bool) or not isinstance(raw[key], kind)):
                raise ValueError(f"config {key} must be {what}, got {raw[key]!r}")
        if "seed" in raw:
            if not isinstance(raw["seed"], str):
                raise ValueError(f"config seed must be a hex string, got {raw['seed']!r}")
            raw["seed"] = bytes.fromhex(raw["seed"])
    for key, name in _CONFIG_KEYS.items():
        if getattr(args, name) is None:
            setattr(args, name, raw.get(key, _SIZE_DEFAULTS.get(name)))
    fields = {name: getattr(args, name) for name in ("n_temp", "win_slack", "n_rspv")}
    args.cfg = amp.AmplificationConfig(**{k: v for k, v in fields.items() if v is not None})


def cmd_amplify(args) -> int:
    L, kappa, cfg = args.L, args.kappa, args.cfg
    master = master_seed_from(args.seed)
    rng = Random(master)
    if args.mode == "rspv":
        res = amp.run_rspv(L, kappa, cfg, args.strategy, rng)
        accepted = res.flag and res.outputs is not None
        detail = {
            "mode": "rspv",
            "accepted": accepted,
            "temp_calls": res.temp_calls,
            "thetas": list(res.outputs.client_thetas) if res.outputs else None,
        }
    else:
        res = amp.run_cvqc(L, kappa, cfg, args.strategy, amp.fidelity_verifier, rng)
        accepted = res.accepted
        detail = {"mode": "cvqc", "accepted": accepted, "temp_calls": res.rspv.temp_calls}
    detail.update({"L": L, "kappa": kappa, "seed": master.hex(), "strategy": args.strategy.spec,
                   "n_temp": cfg.n_temp, "win_slack": cfg.win_slack, "n_rspv": cfg.n_rspv})
    sys.stdout.write(json.dumps(detail, separators=(",", ":")) + "\n")
    return 0 if accepted else 1


def cmd_bench(args) -> int:
    report = scaling_bench(args.kappa, args.L_grid, args.sessions_per_l, args.seed)
    sys.stdout.write(report.to_json())
    return 0


def _selftest_checks():
    yield "sampler matches brute-force enumeration (all widths/phases <= 3)", _check_sampler
    yield "claw-free eval/invert biconditional (exhaustive, kappa=3)", _check_ntcf
    yield "transcript replay is byte-identical", _check_replay
    yield "conjugated strategy indistinguishable on shared seeds", _check_conjugate


def _check_sampler() -> bool:
    rng = Random(7)
    for kappa in (1, 2, 3):
        for width in (1, 2, 3):
            oracle = RandomOracle(randbytes(rng, 32))
            x0 = Bits(rng.getrandbits(width), width)
            while True:
                x1 = Bits(rng.getrandbits(width), width)
                if x1 != x0:
                    break
            for theta in range(8):
                g = make_gadget(KeyPair(x0, x1), (0, theta))
                pad = Bits(rng.getrandbits(kappa), kappa)
                ref = enumerate_hadamard_distribution(g, pad, oracle, kappa)
                law = sampler_distribution(g, pad, oracle, kappa)
                tv = 0.5 * sum(abs(ref[d] - law[d]) for d in ref)
                if tv >= 1e-12:
                    return False
    return True


def _check_ntcf() -> bool:
    # chk(pk, b, x, y) iff dec(sk, b, y) == x, over the whole kappa=3 cube
    from .ntcf import dec

    key = keygen(3, Random(11))
    for y_val in range(64):
        y = Bits(y_val, 6)
        for b in (0, 1):
            inv = dec(key, b, y)
            for x_val in range(8):
                x = Bits(x_val, 3)
                if chk(key, b, x, y) != (inv == x):
                    return False
    return True


def _check_replay() -> bool:
    a = run_pre_rspv(parse_strategy("honest"), b"replay", kappa=8, L=2, collect_transcript=True)
    b = run_pre_rspv(parse_strategy("honest"), b"replay", kappa=8, L=2, collect_transcript=True)
    return a.transcript.to_jsonl() == b.transcript.to_jsonl()


def _check_conjugate() -> bool:
    for i in range(200):
        a = run_pre_rspv(parse_strategy("honest"), ("self", i), kappa=6, L=2)
        b = run_pre_rspv(parse_strategy("conjugate"), ("self", i), kappa=6, L=2)
        if (a.round_type, a.flag, a.score) != (b.round_type, b.flag, b.score):
            return False
    return True


def cmd_selftest(_args) -> int:
    failed = 0
    for name, check in _selftest_checks():
        ok = check()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    return 1 if failed else 0


def _check_input(args) -> None:
    """Validate what argparse cannot — sizes, the strategy, the amplify
    config file — before any work starts.  Raises ValueError or OSError;
    errors past this point are bugs and keep their traceback."""
    if args.cmd == "amplify":
        _resolve_amplify(args)
    if args.cmd in ("run", "stats", "amplify"):
        check_size(args.L, args.kappa)
        text = args.strategy
        try:
            args.strategy = parse_strategy(json.loads(text) if text.lstrip().startswith("{") else text)
        except ValueError as e:  # json.JSONDecodeError is a ValueError
            raise ValueError(f"--strategy: {e}") from None
    elif args.cmd == "bench":
        check_size(args.L_grid[0], args.kappa)
    for cmd, name in (("stats", "sessions"), ("stats", "workers"), ("bench", "sessions_per_l")):
        if args.cmd == cmd and getattr(args, name) < 1:
            raise ValueError(f"{name.replace('_', '-')} must be >= 1, got {getattr(args, name)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "run": cmd_run,
        "stats": cmd_stats,
        "amplify": cmd_amplify,
        "bench": cmd_bench,
        "selftest": cmd_selftest,
    }[args.cmd]
    try:
        _check_input(args)
    except (ValueError, OSError) as e:  # json.JSONDecodeError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "seed", b"") is None:  # no --seed (nor config seed): a fresh one
        args.seed = randbytes(Random(), 32)
        if args.cmd == "run":  # its stdout is the transcript, which holds no seed
            print(f"seed: {args.seed.hex()}", file=sys.stderr)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
