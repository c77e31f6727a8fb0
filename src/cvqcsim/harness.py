"""Batch experiment runner: rate estimation and the linear-scaling bench.

``estimate_rates`` runs many independent sessions of one strategy and
aggregates pass/win/fidelity statistics with Wilson score intervals.  Every
session's seed is derived from a 32-byte master seed by counter-mode
expansion (derive_seed), so a report is a pure function of (config, master
seed): serial and parallel runs agree bit-exactly, and re-running with the
echoed seed replays the exact experiment.

Wall-clock numbers are measured and carried on the report object, but the
canonical JSON serialization excludes them by default — timing is the one
field that can never replay byte-identically.  Pass timing=True to include
it (the CLI exposes --timing).
"""

from __future__ import annotations

import json
import math
import time
from random import Random
from typing import NamedTuple

from .adversary import Strategy, parse_strategy
from .oracle import derive_seed, randbytes
from .protocol import check_size, run_pre_rspv

#: bucket names in dispatch order; quiz = the scored in-phase round
BUCKETS = ("test", "quiz", "comp")

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

_CHUNK = 256  # sessions per pool job


def bucket_of(round_type: str) -> str:
    if round_type == "comp":
        return "comp"
    if round_type == "prep:inph":
        return "quiz"
    return "test"


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float, float]:
    """(point, low, high) Wilson score interval for a binomial rate."""
    if n == 0:
        return 0.0, 0.0, 1.0
    p = successes / n
    z2 = z * z
    denom = 1 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return p, max(0.0, center - half), min(1.0, center + half)


def master_seed_from(rng) -> bytes:
    """Normalize any seed-ish argument to a 32-byte master seed."""
    if isinstance(rng, Random):
        return randbytes(rng, 32)
    if isinstance(rng, (bytes, bytearray)) and len(rng) == 32:
        return bytes(rng)
    return randbytes(Random(rng), 32)


class ExperimentReport(NamedTuple):
    strategy: dict
    kappa: int
    L: int
    sessions: int
    seed: str  # hex of the master seed; rerun with this to replay
    force_plan: str | None
    round_counts: dict[str, int]
    bucket_counts: dict[str, int]
    pass_count: int
    quiz_count: int
    win_count: int
    comp_count: int
    comp_decoded: int
    comp_fidelity_mean: float | None
    elapsed_s: float = 0.0

    def rates(self, z: float = _Z95) -> dict[str, tuple[float, float, float]]:
        return {
            "pass": wilson_interval(self.pass_count, self.sessions, z),
            "win_quiz": wilson_interval(self.win_count, self.quiz_count, z),
            "win_all": wilson_interval(self.win_count, self.sessions, z),
            "freq_test": wilson_interval(self.bucket_counts["test"], self.sessions, z),
            "freq_quiz": wilson_interval(self.bucket_counts["quiz"], self.sessions, z),
            "freq_comp": wilson_interval(self.bucket_counts["comp"], self.sessions, z),
        }

    def to_dict(self, timing: bool = False) -> dict:
        out = self._asdict()
        elapsed = out.pop("elapsed_s")
        out["rates_95"] = {k: list(v) for k, v in self.rates().items()}
        if timing:
            out["elapsed_s"] = elapsed
            out["per_session_s"] = elapsed / max(1, self.sessions)
        return out

    def to_json(self, timing: bool = False) -> str:
        return json.dumps(self.to_dict(timing=timing), separators=(",", ":")) + "\n"


def _session(strategy: Strategy, seed, kappa: int, L: int, force_plan) -> tuple[str, bool, bool, float | None]:
    """One session reduced to the aggregate-relevant tuple."""
    out = run_pre_rspv(strategy, seed, kappa=kappa, L=L, force_plan=force_plan)
    fid = out.outputs.fidelity() if out.outputs is not None else None
    return out.round_type, out.flag, bool(out.score), fid


def _run_one(args) -> tuple[str, bool, bool, float | None]:
    """Pool worker body: ``_session`` with the strategy rebuilt from its spec."""
    spec, *rest = args
    return _session(parse_strategy(spec), *rest)


def estimate_rates(
    L: int,
    kappa: int,
    sessions: int,
    strategy: Strategy,
    rng,
    *,
    workers: int = 1,
    force_plan: str | None = None,
) -> ExperimentReport:
    """Monte-Carlo rate estimation over independent sessions.

    With workers > 1, sessions fan out in chunks of 256 over a process
    pool of at most one worker per chunk, and a single chunk runs in this
    process; the strategy is shipped as its spec dict and rebuilt per
    worker, and since every session seed comes from the master seed by
    counter, the aggregate is identical to the serial run.  Raises
    ValueError on L < 1, kappa < 4, or sessions or workers < 1.
    """
    check_size(L, kappa)
    if min(sessions, workers) < 1:
        raise ValueError(f"sessions and workers must be >= 1, got {sessions} and {workers}")
    master = master_seed_from(rng)
    t0 = time.perf_counter()
    workers = min(workers, -(-sessions // _CHUNK))
    if workers > 1:
        from multiprocessing import Pool

        jobs = (
            (strategy.spec, derive_seed(master, "session", i), kappa, L, force_plan)
            for i in range(sessions)
        )
        with Pool(workers) as pool:
            results = pool.map(_run_one, jobs, chunksize=_CHUNK)
    else:
        results = [_session(strategy, derive_seed(master, "session", i), kappa, L, force_plan) for i in range(sessions)]
    elapsed = time.perf_counter() - t0

    round_counts: dict[str, int] = {}
    bucket_counts = {b: 0 for b in BUCKETS}
    pass_count = quiz_count = win_count = comp_count = comp_decoded = 0
    fid_sum = 0.0
    for rt, flag, score, fid in results:
        round_counts[rt] = round_counts.get(rt, 0) + 1
        bucket_counts[bucket_of(rt)] += 1
        pass_count += flag
        if bucket_of(rt) == "quiz":
            quiz_count += 1
            win_count += score
        if rt == "comp":
            comp_count += 1
            if fid is not None:
                comp_decoded += 1
                fid_sum += fid
    return ExperimentReport(
        strategy=strategy.spec,
        kappa=kappa,
        L=L,
        sessions=sessions,
        seed=master.hex(),
        force_plan=force_plan,
        round_counts=dict(sorted(round_counts.items())),
        bucket_counts=bucket_counts,
        pass_count=pass_count,
        quiz_count=quiz_count,
        win_count=win_count,
        comp_count=comp_count,
        comp_decoded=comp_decoded,
        comp_fidelity_mean=(fid_sum / comp_decoded) if comp_decoded else None,
        elapsed_s=elapsed,
    )


class BenchReport(NamedTuple):
    kappa: int
    sessions_per_l: int
    seed: str
    rows: list[dict]  # {"L": int, "median_s": float}
    doubling_ratios: list[float]  # time ratio per L doubling, normalized by L ratio

    def to_json(self) -> str:
        return json.dumps(self._asdict(), separators=(",", ":")) + "\n"


def scaling_bench(kappa: int, l_grid: list[int], sessions_per_l: int, rng) -> BenchReport:
    """Session wall-clock per L, honest strategy forced into the
    state-preparation (computation) branch — the branch whose work is
    linear in L end to end.

    The grid is timed round-robin — each pass runs one session at every L —
    and ``median_s`` is the median per L.  Host speed drifts over a run;
    timing each L as one block in turn put that drift between the rows and
    into the doubling ratios, while a pass spreads it over all of them.
    Row seconds are wall time, not scaled to host speed, so only the
    doubling ratios within one run compare; rows of two runs or commits do
    not.  Timing is the payload here, so bench reports are exempt from
    byte-replay.  Raises ValueError unless the grid is nonempty and strictly
    ascending and sessions_per_l >= 1.
    """
    if not l_grid or list(l_grid) != sorted(set(l_grid)):
        raise ValueError(f"l_grid must be strictly ascending and nonempty, got {l_grid}")
    if sessions_per_l < 1:
        raise ValueError(f"sessions_per_l must be >= 1, got {sessions_per_l}")
    from statistics import median

    master = master_seed_from(rng)
    strat = parse_strategy("honest")
    for L in l_grid:
        # one throwaway session warms caches/allocators at this size
        run_pre_rspv(strat, derive_seed(master, f"warm-{L}", 0), kappa=kappa, L=L, force_plan="comp")
    times: dict[int, list[float]] = {L: [] for L in l_grid}
    for i in range(sessions_per_l):
        for L in l_grid:
            t0 = time.perf_counter()
            run_pre_rspv(strat, derive_seed(master, f"bench-{L}", i), kappa=kappa, L=L, force_plan="comp")
            times[L].append(time.perf_counter() - t0)
    rows = [{"L": L, "median_s": median(times[L])} for L in l_grid]
    ratios = [(b["median_s"] / a["median_s"]) / (b["L"] / a["L"]) for a, b in zip(rows, rows[1:])]
    return BenchReport(
        kappa=kappa,
        sessions_per_l=sessions_per_l,
        seed=master.hex(),
        rows=rows,
        doubling_ratios=ratios,
    )
