"""Amplification-layer tests: threshold law, temp-block accept/reject, RSPV
absorption, the top-level driver, and the tail bound used to size configs."""

import math
from random import Random

import pytest
from scipy.stats import binom

import cvqcsim.adversary as adv
from cvqcsim.adversary import OPT
from cvqcsim.amplify import (
    AmplificationConfig,
    CvqcResult,
    chernoff_bound,
    fidelity_verifier,
    run_cvqc,
    run_pre_rspv_temp,
    run_rspv,
    win_threshold,
)
from cvqcsim.protocol import P_QUIZ, run_pre_rspv

HONEST = adv.parse_strategy("honest")
FAST = AmplificationConfig(n_temp=600)


# -- config and threshold ------------------------------------------------------


def test_config_validation():
    AmplificationConfig(n_temp=1)  # minimal valid
    with pytest.raises(ValueError):
        AmplificationConfig(n_temp=0)
    with pytest.raises(ValueError):
        AmplificationConfig(win_slack=0.0)
    with pytest.raises(ValueError):
        AmplificationConfig(win_slack=OPT)
    with pytest.raises(ValueError):
        AmplificationConfig(win_slack=0.5)
    with pytest.raises(ValueError):
        AmplificationConfig(n_rspv=0)


def test_win_threshold_default_value():
    # slack comes off the per-session win rate; the default works out to
    # 2000 * (0.1 * cos^2(pi/8)/3 - 0.02)
    assert win_threshold(AmplificationConfig()) == pytest.approx(16.903559372884915, rel=1e-12)


def test_win_threshold_sits_below_honest_mean():
    for n in (100, 600, 2000, 8000):
        cfg = AmplificationConfig(n_temp=n)
        assert 0 < win_threshold(cfg) < n * P_QUIZ * OPT


def test_win_threshold_scaling():
    base = win_threshold(AmplificationConfig(n_temp=1000))
    assert win_threshold(AmplificationConfig(n_temp=3000)) == pytest.approx(3 * base)
    assert win_threshold(AmplificationConfig(win_slack=0.025)) < win_threshold(
        AmplificationConfig(win_slack=0.015)
    )


def test_acceptance_margin_grows_with_n_temp():
    # normal-approximation z-score of the honest mean against the threshold
    # must increase with n_temp: that is the whole point of amplifying
    p = P_QUIZ * OPT
    zs = []
    for n in (500, 1000, 2000, 4000, 8000):
        thr = win_threshold(AmplificationConfig(n_temp=n))
        zs.append((n * p - thr) / math.sqrt(n * p * (1 - p)))
    assert all(a < b for a, b in zip(zs, zs[1:]))


# -- tail bound ----------------------------------------------------------------


def test_chernoff_bound_values_and_args():
    assert chernoff_bound(0.5, 0.0, 100) == 1.0
    assert chernoff_bound(0.1, 0.5, 2000) == pytest.approx(math.exp(-125.0), rel=1e-12)
    for bad in ((0.0, 0.1, 10), (1.0, 0.1, 10), (0.5, -0.1, 10), (0.5, 0.1, 0)):
        with pytest.raises(ValueError):
            chernoff_bound(*bad)


def test_chernoff_bound_monotone():
    assert chernoff_bound(0.5, 0.2, 400) < chernoff_bound(0.5, 0.2, 100)
    assert chernoff_bound(0.5, 0.4, 100) < chernoff_bound(0.5, 0.1, 100)


def test_chernoff_bound_dominates_exact_tail_at_half():
    # The e^{-delta^2 N / 4} form is a genuine upper-tail bound only in the
    # p ~ 1/2 regime it is quoted for (Hoeffding gives e^{-delta^2 N / 2}
    # there); exercise it against the exact binomial tail.
    p = 0.5
    for n in (50, 200, 1000):
        for delta in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5):
            k = math.ceil((1 + delta) * p * n)
            exact_tail = float(binom.sf(k - 1, n, p))  # P[X >= k]
            assert exact_tail <= chernoff_bound(p, delta, n) + 1e-15, (n, delta)


# -- preRSPVTemp ---------------------------------------------------------------


def test_temp_honest_accepts():
    accepted = 0
    for rep in range(10):
        res = run_pre_rspv_temp(1, 16, FAST, HONEST, Random(f"temp-{rep}"))
        if res.flag:
            accepted += 1
            assert res.sessions_run == FAST.n_temp
            assert res.wins > win_threshold(FAST)
            assert res.picked in range(FAST.n_temp)
            # replay the picked session: outputs come back iff it was a comp round
            seeds = Random(f"temp-{rep}")
            seed = [seeds.randbytes(32) for _ in range(res.picked + 1)][-1]
            picked = run_pre_rspv(HONEST, seed, kappa=16, L=1)
            assert (picked.round_type == "comp") == (res.outputs is not None)
            if res.outputs is not None:
                assert res.outputs.fidelity() == 1.0
    assert accepted >= 9, accepted


def test_temp_always_lose_rejects_fast():
    for rep in range(10):
        res = run_pre_rspv_temp(1, 8, FAST, adv.parse_strategy("always_lose"), Random(f"al-{rep}"))
        assert res.flag is False
        assert res.picked is None and res.outputs is None
        # nearly every session fails a check, so the block exits immediately
        assert res.sessions_run <= 10, res.sessions_run


# -- RSPV ----------------------------------------------------------------------


def test_rspv_honest_produces_verified_states():
    # honest RSPV still rejects ~8% of the time (a temp block can lose the
    # win-count coin flip), so ask for a majority and verify the successes
    succeeded = 0
    for rep in range(5):
        res = run_rspv(1, 16, FAST, HONEST, Random(f"rspv-{rep}"))
        assert 1 <= res.temp_calls <= FAST.n_rspv
        if res.flag:
            succeeded += 1
            assert res.outputs is not None and res.outputs.fidelity() == 1.0
    assert succeeded >= 3, succeeded


def test_rspv_rejection_is_absorbing():
    for strat in (adv.parse_strategy("always_lose"), adv.parse_strategy("corrupt_setup")):
        res = run_rspv(1, 8, FAST, strat, Random("rspv-rej"))
        assert res.flag is False and res.outputs is None
        assert res.temp_calls == 1  # first temp block already rejects


def test_rspv_without_comp_pick_rejects():
    # find a seed whose two temp blocks both accept but neither samples a
    # computation round; run_rspv must then run out of attempts and reject
    cfg = AmplificationConfig(n_temp=40, n_rspv=2)
    seed = None
    for cand in range(50):
        master = Random(f"nc-{cand}")
        temps = [run_pre_rspv_temp(1, 16, cfg, HONEST, master) for _ in range(2)]
        if all(t.flag and t.outputs is None for t in temps):
            seed = cand
            break
    assert seed is not None
    res = run_rspv(1, 16, cfg, HONEST, Random(f"nc-{seed}"))
    assert res.flag is False and res.outputs is None
    assert res.temp_calls == cfg.n_rspv


# -- top-level driver ----------------------------------------------------------


def test_cvqc_honest_accepts_and_verifier_gate_holds():
    cfg = AmplificationConfig(n_temp=100)
    result = None
    for cand in range(20):
        result = run_cvqc(2, 12, cfg, HONEST, fidelity_verifier, Random(f"cvqc-{cand}"))
        if result.accepted:
            break
    assert result is not None and result.accepted
    assert result.rspv.flag and result.rspv.outputs.fidelity() == 1.0
    # same preparation, paranoid verifier: acceptance must flip off
    rerun = run_cvqc(2, 12, cfg, HONEST, lambda outputs: False, Random(f"cvqc-{cand}"))
    assert isinstance(rerun, CvqcResult)
    assert rerun.rspv.flag and not rerun.accepted


def test_cvqc_rejects_cheaters():
    cfg = AmplificationConfig(n_temp=100)
    res = run_cvqc(2, 8, cfg, adv.parse_strategy("always_lose"), fidelity_verifier, Random("cvqc-al"))
    assert res.accepted is False and res.rspv.flag is False


# -- threshold soundness against measured honest rates --------------------------


def test_threshold_clears_measured_honest_win_rate():
    # the acceptance gap the amplifier relies on: the honest per-session win
    # rate must exceed the threshold rate by many standard errors
    n, wins = 8000, 0
    for i in range(n):
        wins += bool(run_pre_rspv(HONEST, f"thr-{i}", kappa=10, L=1).score)
    rate = wins / n
    threshold_rate = P_QUIZ * OPT - AmplificationConfig().win_slack
    sigma = math.sqrt(rate * (1 - rate) / n)
    assert rate - threshold_rate > 3 * sigma, (rate, threshold_rate)
