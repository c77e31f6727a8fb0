"""Two-stage amplification over single sessions, plus the top-level driver.

The base session only ever gives the client a weak statistical signal (one
quiz round wins with probability at most OPT ~ 0.2845, tests fail cheaters
with some probability per round).  Amplification turns that into a sharp
accept/reject:

* ``run_pre_rspv_temp`` — N_temp independent sessions.  Reject on any failed
  test and on a win count at or below threshold; otherwise sample one session
  uniformly, and if it happened to be a computation round, its outputs are
  the protocol's product.

* ``run_rspv`` — repeat preRSPVTemp until a call yields computation-round
  outputs (at most N_rspv attempts); any rejection is absorbing.

* ``run_cvqc`` — run RSPV at L sized to the delegated circuit, then hand the
  prepared states to a verifier plugin.  The reference plugin is a
  simulation-trusted exact checker: it reads the decoded server state
  directly and accepts iff its phases equal the client's targets.  Running an
  actual gadget-assisted delegated computation on top is out of scope.

Reference-scale parameters (session counts around 10^2500 and win slack
around 10^-210) exist to make proofs compose; they are not runnable.  The
desk defaults below (N_temp=2000, slack 0.02, N_rspv=100) keep honest
acceptance >= 0.95 and reject the always-lose strategy >= 0.99, by the same
Chernoff reasoning at runnable scale.
"""

from __future__ import annotations

import math
from random import Random
from typing import NamedTuple

from .adversary import OPT, Strategy
from .oracle import randbelow, randbytes
from .protocol import P_QUIZ, CompOutputs, run_pre_rspv


class AmplificationConfig:
    """Block sizes and win slack; bad values are rejected on construction."""

    __slots__ = ("n_temp", "win_slack", "n_rspv")

    def __init__(self, n_temp: int = 2000, win_slack: float = 0.02, n_rspv: int = 100) -> None:
        if n_temp < 1:
            raise ValueError("n_temp must be >= 1")
        if not 0 < win_slack < OPT:
            raise ValueError(f"win_slack must be in (0, {OPT})")
        if n_rspv < 1:
            raise ValueError("n_rspv must be >= 1")
        self.n_temp, self.win_slack, self.n_rspv = n_temp, win_slack, n_rspv


def win_threshold(cfg: AmplificationConfig) -> float:
    """Win count an accepted temp run must strictly exceed.

    The slack is taken off the per-session win rate (p_quiz * OPT), giving a
    margin of n_temp * win_slack wins below the honest mean — many standard
    deviations at the default config (the honest mean's sigma is about
    sqrt(n_temp * p_quiz * OPT), i.e. ~7.4 wins at n_temp=2000, against an
    n_temp * 0.02 = 40-win margin).
    """
    return cfg.n_temp * (P_QUIZ * OPT - cfg.win_slack)


class PreRspvTempResult(NamedTuple):
    flag: bool
    outputs: CompOutputs | None  # set iff the sampled session was a computation round
    wins: int
    sessions_run: int
    picked: int | None


class RspvResult(NamedTuple):
    flag: bool
    outputs: CompOutputs | None
    temp_calls: int


class CvqcResult(NamedTuple):
    accepted: bool
    rspv: RspvResult


def run_pre_rspv_temp(
    L: int, kappa: int, cfg: AmplificationConfig, strategy: Strategy, rng: Random
) -> PreRspvTempResult:
    """One amplification block: N_temp sessions, stats checks, uniform pick."""
    comp_outputs: dict[int, CompOutputs | None] = {}
    wins = 0
    for i in range(cfg.n_temp):
        out = run_pre_rspv(strategy, randbytes(rng, 32), kappa=kappa, L=L)
        if out.round_type == "comp":
            comp_outputs[i] = out.outputs
        if out.score:
            wins += 1
        if not out.flag:
            return PreRspvTempResult(False, None, wins, i + 1, None)
    if wins <= win_threshold(cfg):
        return PreRspvTempResult(False, None, wins, cfg.n_temp, None)
    picked = randbelow(rng, cfg.n_temp)
    return PreRspvTempResult(True, comp_outputs.get(picked), wins, cfg.n_temp, picked)


def run_rspv(
    L: int, kappa: int, cfg: AmplificationConfig, strategy: Strategy, rng: Random
) -> RspvResult:
    """Repeat preRSPVTemp until a computation round is sampled.

    Rejection anywhere is absorbing.  Failure to hit a computation round in
    n_rspv calls (probability ~ 0.9^100 for honest runs) also rejects.
    """
    for t in range(cfg.n_rspv):
        res = run_pre_rspv_temp(L, kappa, cfg, strategy, rng)
        if not res.flag:
            return RspvResult(False, None, t + 1)
        if res.outputs is not None:
            return RspvResult(True, res.outputs, t + 1)
    return RspvResult(False, None, cfg.n_rspv)


def fidelity_verifier(outputs: CompOutputs) -> bool:
    """Reference verifier plugin: simulation-trusted, exact.

    Reads the decoded server state directly (something only a simulator can
    do) and accepts iff its phases equal the client's targets — fidelity 1.
    """
    return outputs.decoded is not None and outputs.decoded.thetas == outputs.client_thetas


def run_cvqc(
    circuit_size: int,
    kappa: int,
    cfg: AmplificationConfig,
    strategy: Strategy,
    verifier,
    rng: Random,
) -> CvqcResult:
    """State preparation via RSPV sized to the circuit, then the verifier.

    At desk scale the resource count is the circuit size itself (the real
    protocol needs L = O(|C|) gadgets); the verifier plugin stands in for
    the gadget-assisted computation phase.
    """
    res = run_rspv(circuit_size, kappa, cfg, strategy, rng)
    if not res.flag or res.outputs is None:
        return CvqcResult(False, res)
    return CvqcResult(bool(verifier(res.outputs)), res)


def chernoff_bound(p: float, delta: float, N: int) -> float:
    """Tail bound for streaming Bernoulli samples:
    Pr[#{i : s_i = 1} >= (1 + delta) p N] <= e^{-delta^2 N / 4}.

    `p` is part of the bound's statement (it locates the threshold) but does
    not enter the exponent in this variant; it is validated and kept so the
    call site reads like the inequality.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    return math.exp(-delta * delta * N / 4)
