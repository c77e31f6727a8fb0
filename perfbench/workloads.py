"""The workload process: runs one workload, checks its outputs, reports.

Started by ``run.py`` as a process of its own, so that its peak resident
memory and its cold set-up belong to the workload alone.  Load is one
thread, closed loop: each operation starts when the previous one returned.
An operation is one protocol session.  It fails when it raises or when an
output check rejects it; a client that rejects a tampering server is a
correct outcome, not a failure.

Operations are grouped in whole *rounds* of fixed make-up, and rounds in
*blocks* of at least ``BLOCK_S`` seconds of session time.  ``sessions_per_s``
is the median of the blocks' rates, so one stall of the host moves one block,
not the result.  Each block's rate is scaled to a fixed host speed, measured
by ``host_speed`` at both ends of the block: the shared host's speed drifts
by tens of percent from one run to the next, which no amount of work in one
run averages out.  The output checks run between operations and are not
timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

import checks

KAPPA = 16
BLOCK_S = 0.25  # least session time per block
TRACE_SHARE = 0.15  # share of --seconds the traced run replays
LINEARITY_PAIRS = {128: 4, 512: 2}  # coph+bn pairs per L in the linearity check
LINEARITY_TOLERANCE = 0.05  # |per-gadget count ratio - 1| allowed

# Reported rates are scaled to a host that runs the host_speed kernel this
# many times per second (about the speed of a quiet 2-core Xeon host).
NOMINAL_HOST_SPEED = 200.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def host_speed() -> float:
    """Runs per second of a fixed pure-Python kernel shaped like the
    simulator's hot path: keyed blake2b digests, tuple-keyed dict inserts
    and int conversions.  It runs no code of the program, so a change to
    the program cannot move it, and its memo stays small, so it does not
    add to the workload's peak RSS."""
    key = b"perfbench-host-speed".ljust(32, b".")
    t0 = time.perf_counter()
    memo, acc = {}, 0
    for i in range(3000):
        k = (i * 2654435761) & 0xFFFFFFFF
        digest = hashlib.blake2b(k.to_bytes(8, "big"), key=key, digest_size=16).digest()
        memo[(k & 255, i & 255)] = digest
        acc ^= int.from_bytes(digest, "big") >> 3
    return 1.0 / (time.perf_counter() - t0)


def import_program():
    """Import ``cvqcsim`` from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cvqcsim.harness  # noqa: F401  (imports every layer below it)

    import cvqcsim

    if not os.path.abspath(cvqcsim.__file__).startswith(src + os.sep):
        raise ImportError(f"cvqcsim imported from {cvqcsim.__file__}, not from {src}")
    return cvqcsim


def derive(*parts) -> bytes:
    return hashlib.sha256("/".join(map(str, parts)).encode()).digest()


class Workload:
    """One named workload; subclasses define a round and its checks."""

    name = ""
    L = 8
    sessions_per_round = 1

    def __init__(self, cv, seed: int):
        self.cv = cv
        self.seed = seed
        self.problems: list[str] = []  # run-level check failures: correct = False
        self.failed = 0
        self.attempted = 0
        self.next_round = 0  # rounds below it are in the run-level tallies

    def first_run_of(self, r: int) -> bool:
        """True the first time round r is checked.  The traced run runs its
        rounds twice; the run-level tallies count them once, and keep no
        memory per round, which would grow the peak RSS with run length."""
        if r < self.next_round:
            return False
        self.next_round = r + 1
        return True

    def session_seed(self, *parts) -> bytes:
        return derive("perfbench", self.name, self.seed, *parts)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {self.name}: {what}", file=sys.stderr)

    def replay_rejected(self, strategy_spec, seed: bytes, round_type: str, **kwargs) -> None:
        """An honest server is rejected only on the 2^-kappa event; the
        replayed transcript must show it, with the same verdict."""
        cv = self.cv
        out = cv.protocol.run_pre_rspv(
            cv.adversary.parse_strategy(strategy_spec), seed, kappa=KAPPA, L=self.L,
            collect_transcript=True, **kwargs,
        )
        if out.flag or out.round_type != round_type:
            self.fail(f"replay of {seed.hex()} gave {out.round_type}/{out.flag}, not {round_type}/False")
            return
        err = checks.shows_suffix_zero_event(out.transcript.to_jsonl())
        if err:
            self.fail(f"{seed.hex()} ({round_type}): {err}")

    def run_round(self, r: int) -> float:
        """Run round r, check its outputs and return its session time in seconds."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Run-level checks after the last round."""


class HonestL8(Workload):
    """harness.estimate_rates, honest server, natural dispatch, serial."""

    name = "honest-L8"
    sessions_per_round = 64
    force_plan = None

    def __init__(self, cv, seed):
        super().__init__(cv, seed)
        self.strategy = cv.adversary.parse_strategy("honest")
        self.buckets: Counter = Counter()
        self.quizzes = self.wins = 0
        self.rejected: dict[bytes, str] = {}

    def estimate(self, sessions: int, seed: bytes):
        """estimate_rates keeps only aggregates, so the session entry point it
        calls is observed for the call, to check every session's outcome.
        Returns (report, [(seed, outcome)], session time)."""
        harness = self.cv.harness
        real = harness.run_pre_rspv
        outcomes = []

        def observed(strategy, seed=None, **kwargs):
            out = real(strategy, seed, **kwargs)
            outcomes.append((seed, out))
            return out

        harness.run_pre_rspv = observed
        try:
            t0 = time.perf_counter()
            report = harness.estimate_rates(
                self.L, KAPPA, sessions, self.strategy, seed, force_plan=self.force_plan
            )
            return report, outcomes, time.perf_counter() - t0
        finally:
            harness.run_pre_rspv = real

    def warmup(self):
        self.estimate(1, self.session_seed("warmup"))

    def run_round(self, r):
        self.attempted += self.sessions_per_round
        t0 = time.perf_counter()
        try:
            report, outcomes, elapsed = self.estimate(self.sessions_per_round, self.session_seed(r))
        except Exception as e:  # a raising session loses the whole round
            for _ in range(self.sessions_per_round):
                self.fail(f"round {r} raised {e!r}")
            return time.perf_counter() - t0
        self.check_round(r, report, outcomes)
        return elapsed

    def check_round(self, r, report, outcomes) -> None:
        types: Counter = Counter()
        passes = quizzes = wins = comps = decoded = 0
        for seed, out in outcomes:
            ok = True
            if self.force_plan is not None and out.round_type != self.force_plan:
                self.fail(f"{seed.hex()}: ran {out.round_type}, asked for {self.force_plan}")
                ok = False
            types[out.round_type] += 1
            bucket = checks.bucket_of(out.round_type)
            passes += out.flag
            if bucket == "quiz":
                quizzes += 1
                wins += bool(out.score)
            if out.round_type == "comp":
                comps += 1
                dec = out.outputs.decoded if out.outputs is not None else None
                if dec is not None:
                    decoded += 1
                    err = checks.check_comp_decode(out.outputs.client_thetas, dec.thetas)
                    if err:
                        self.fail(f"{seed.hex()}: {err}")
                        ok = False
                elif out.flag:
                    self.fail(f"{seed.hex()}: accepted comp round decoded nothing")
                    ok = False
            if ok and not out.flag:
                self.rejected[seed] = out.round_type
        if self.first_run_of(r):
            self.buckets.update(map(checks.bucket_of, types.elements()))
            self.quizzes += quizzes
            self.wins += wins
        seen = {
            "sessions": len(outcomes), "round_counts": dict(types), "pass_count": passes,
            "quiz_count": quizzes, "win_count": wins, "comp_count": comps, "comp_decoded": decoded,
        }
        told = {k: getattr(report, k) for k in seen}
        if told != seen:
            self.problems.append(f"report {told} disagrees with its sessions {seen}")

    def finish(self):
        for seed, round_type in self.rejected.items():
            self.replay_rejected("honest", seed, round_type)
        for err in (
            checks.check_bucket_frequencies(self.buckets),
            checks.check_quiz_win_rate(self.quizzes, self.wins),
        ):
            if err:
                self.problems.append(err)


class RoundSweep(HonestL8):
    """Honest sessions of each round type in turn, forced through
    estimate_rates at a given L: the traced run's source for the time per
    round type and for the harness's own time, on every workload."""

    name = "round-sweep"

    def __init__(self, cv, seed, L):
        super().__init__(cv, seed)
        self.L = L
        self.sessions_per_round = max(1, 256 // L)

    def run_round(self, r):
        self.force_plan = self.cv.protocol.ROUND_TYPES[r % len(self.cv.protocol.ROUND_TYPES)]
        return super().run_round(r)

    def finish(self):
        for seed, round_type in self.rejected.items():
            self.replay_rejected("honest", seed, round_type, force_plan=round_type)


class FoldL512(Workload):
    """protocol.run_pre_rspv, honest server, prep:coph and prep:bn alternating."""

    name = "fold-L512"
    L = 512
    sessions_per_round = 2
    PLANS = ("prep:coph", "prep:bn")

    def __init__(self, cv, seed, L=512):
        super().__init__(cv, seed)
        self.L = L
        self.strategy = cv.adversary.parse_strategy("honest")
        self.rejected: dict[bytes, str] = {}

    def warmup(self):
        self.cv.protocol.run_pre_rspv(
            self.strategy, self.session_seed("warmup"), kappa=KAPPA, L=self.L, force_plan=self.PLANS[0]
        )

    def run_round(self, r):
        elapsed = 0.0
        for plan in self.PLANS:
            seed = self.session_seed(r, plan)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = self.cv.protocol.run_pre_rspv(
                    self.strategy, seed, kappa=KAPPA, L=self.L, force_plan=plan
                )
            except Exception as e:
                elapsed += time.perf_counter() - t0
                self.fail(f"{seed.hex()} raised {e!r}")
                continue
            elapsed += time.perf_counter() - t0
            self.check_session(seed, plan, out)
        return elapsed

    def check_session(self, seed, plan, out) -> None:
        if out.round_type != plan:
            self.fail(f"{seed.hex()}: ran {out.round_type}, asked for {plan}")
        elif not out.flag:
            self.rejected[seed] = plan

    def finish(self):
        for seed, plan in self.rejected.items():
            self.replay_rejected("honest", seed, plan, force_plan=plan)


class RecordedMixL8(Workload):
    """run_pre_rspv with transcripts serialised to JSONL, as ``cvqcsim run``
    does, over six strategies that share each round's seed."""

    name = "recorded-mix-L8"
    STRATEGIES = (
        "honest",
        "conjugate",
        {"attack": "phase_offset", "g": "bump:3"},
        "ghz_collapse",
        "random_response",
        "corrupt_setup",
    )
    sessions_per_round = len(STRATEGIES)
    REPLAY_EVERY = 32  # rounds between replayed sessions

    def __init__(self, cv, seed):
        super().__init__(cv, seed)
        parse = cv.adversary.parse_strategy
        self.strategies = [(parse(spec).name, spec, parse(spec)) for spec in self.STRATEGIES]
        self.rejected = {"random_response": [0, 0], "corrupt_setup": [0, 0]}  # [rejected, sessions]
        self.to_replay: dict[tuple[int, str], tuple[object, bytes, bytes]] = {}  # JSONL digests

    def record(self, strategy, seed):
        out = self.cv.protocol.run_pre_rspv(strategy, seed, kappa=KAPPA, L=self.L, collect_transcript=True)
        return out, out.transcript.to_jsonl()

    def warmup(self):
        self.record(self.strategies[0][2], self.session_seed("warmup"))

    def run_round(self, r):
        seed = self.session_seed(r)
        elapsed = 0.0
        results = []
        for name, spec, strategy in self.strategies:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out, jsonl = self.record(strategy, seed)
            except Exception as e:
                elapsed += time.perf_counter() - t0
                self.fail(f"{name} {seed.hex()} raised {e!r}")
                continue
            elapsed += time.perf_counter() - t0
            results.append((name, spec, out, jsonl))
        self.check_round(r, seed, results)
        return elapsed

    def check_round(self, r, seed, results) -> None:
        verdicts = {}
        first = self.first_run_of(r)
        for name, spec, out, jsonl in results:
            err = checks.check_transcript(jsonl, out.round_type, out.flag, out.score, out.quiz_delta)
            if err is None and not out.flag:
                if name in ("honest", "conjugate") or (name == "ghz_collapse" and out.round_type != "prep:bn"):
                    err = checks.shows_suffix_zero_event(jsonl)
            if err is None and name == "conjugate" and "honest" in verdicts:
                err = checks.check_same_verdict(verdicts["honest"], (out.round_type, out.flag, out.score))
            if err:
                self.fail(f"{name} {seed.hex()}: {err}")
                continue
            verdicts[name] = (out.round_type, out.flag, out.score)
            if first and name in self.rejected:
                self.rejected[name][0] += not out.flag
                self.rejected[name][1] += 1
            if r % self.REPLAY_EVERY == 0:
                self.to_replay[r, name] = (spec, seed, hashlib.sha256(jsonl.encode()).digest())

    def finish(self):
        parse = self.cv.adversary.parse_strategy
        for spec, seed, digest in self.to_replay.values():
            _, again = self.record(parse(spec), seed)
            err = checks.check_replay(digest, hashlib.sha256(again.encode()).digest())
            if err:
                self.fail(f"{spec} {seed.hex()}: {err}")
        floors = {  # least rejection rates that follow from the protocol
            "random_response": checks.random_response_reject_floor(KAPPA),
            "corrupt_setup": checks.corrupt_setup_reject_floor(KAPPA),
        }
        for name, floor in floors.items():
            err = checks.check_rejection_floor(*self.rejected[name], floor, name)
            if err:
                self.problems.append(err)


WORKLOADS = {w.name: w for w in (HonestL8, FoldL512, RecordedMixL8)}


def run_rounds(workload: Workload, seconds: float, rounds: int | None = None):
    """Closed loop over rounds 0, 1, ...: for `seconds` of wall time, or for
    exactly `rounds` rounds.  Returns the blocks' rates as measured and as
    scaled to NOMINAL_HOST_SPEED, the round count and the total session time."""
    rates, scaled, block_sessions, block_time, total, r = [], [], 0, 0.0, 0.0, 0
    speed = host_speed()
    end = time.perf_counter() + seconds
    while (r < rounds) if rounds is not None else (time.perf_counter() < end):
        elapsed = workload.run_round(r)
        block_time += elapsed
        total += elapsed
        block_sessions += workload.sessions_per_round
        r += 1
        if block_time >= BLOCK_S or (r == rounds and not rates):  # a short run is one block
            after = host_speed()
            rates.append(block_sessions / block_time)
            scaled.append(rates[-1] * NOMINAL_HOST_SPEED / ((speed + after) / 2))
            block_sessions, block_time, speed = 0, 0.0, after
    return rates, scaled, r, total


def traced_metrics(cv, workload: Workload, seconds: float, out_dir: str) -> dict[str, float]:
    """Replay the first rounds of the workload under the tracer, then the
    round-type sweep and the linearity check; returns the per-layer metrics."""
    from tracer import Tracer

    _, _, rounds, untraced = run_rounds(workload, TRACE_SHARE * seconds)
    tracer = Tracer(cv)
    tracer.install()
    try:
        _, _, _, traced = run_rounds(workload, 0, rounds)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.sessions"] = float(len(tracer.sessions))
    tracer.write(os.path.join(out_dir, f"trace-{workload.name}-seed{workload.seed}.tsv.gz"))
    del tracer

    def traced_side_run(side: Workload, rounds: int) -> Tracer:
        side_tracer = Tracer(cv)
        side_tracer.install()
        try:
            run_rounds(side, 0, rounds)
        finally:
            side_tracer.uninstall()
        side.finish()
        workload.attempted += side.attempted
        workload.failed += side.failed
        workload.problems += side.problems
        return side_tracer

    sweep = RoundSweep(cv, workload.seed, workload.L)
    swept = traced_side_run(sweep, len(cv.protocol.ROUND_TYPES)).metrics()
    metrics.update({k: v for k, v in swept.items() if k.startswith("protocol.round.") or k == "harness.self_ms"})

    per_gadget = {}
    for L, pairs in LINEARITY_PAIRS.items():
        shape = FoldL512(cv, workload.seed, L=L)
        shape.name = f"linearity-L{L}"
        per_gadget[L] = traced_side_run(shape, pairs).gadget_counts()
    for key, small in per_gadget[128].items():
        ratio = per_gadget[512][key] / small
        metrics[f"linearity.{key}_ratio"] = ratio
        if abs(ratio - 1) > LINEARITY_TOLERANCE:
            workload.problems.append(f"per-gadget {key} at L=512 / L=128 = {ratio:.4f}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    try:
        cv = import_program()
    except ImportError as e:
        print(f"cannot import the simulator: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](cv, args.seed)
    workload.warmup()
    first_session_end = time.monotonic()

    info = {}
    if args.trace:
        metrics = traced_metrics(cv, workload, args.seconds, args.out_dir)
    else:
        rates, scaled, _, _ = run_rounds(workload, args.seconds)
        metrics = {
            "sessions_per_s": statistics.median(scaled),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        info = {"sessions_per_s_unscaled": statistics.median(rates), "blocks": len(rates)}
    workload.finish()
    for p in workload.problems:
        print(f"CHECK FAILED {workload.name}: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
        "info": info,
        "first_session_end": first_session_end,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
