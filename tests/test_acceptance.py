"""Acceptance gate: the ten end-to-end criteria the simulator must meet.

Every test prints one ``ACCEPT-nn PASS`` line with the measured numbers
(visible with ``pytest -s`` or in the captured output on failure) and fails
loudly with the same numbers otherwise.  All runs are seeded, so each
verdict is reproducible bit for bit.
"""

import math
import os
from collections import Counter
from random import Random

import pytest
from scipy.stats import chisquare

import cvqcsim.adversary as adv
from cvqcsim.adversary import OPT, expected_inph_rates, parse_phase_fn
from cvqcsim.amplify import AmplificationConfig, chernoff_bound, run_pre_rspv_temp, run_rspv
from cvqcsim.bits import Bits
from cvqcsim.cli import main
from cvqcsim.gadget import (
    KeyPair,
    enumerate_hadamard_distribution,
    make_gadget,
    sampler_distribution,
)
from cvqcsim.harness import estimate_rates, scaling_bench
from cvqcsim.oracle import RandomOracle
from cvqcsim.protocol import (
    open_session,
    run_add_phase,
    run_bn_test,
    run_coph_test,
    run_inph_test,
    run_pre_rspv,
    run_setup,
)

pytestmark = pytest.mark.acceptance

HONEST = adv.parse_strategy("honest")


@pytest.fixture(scope="module")
def dispatch_report():
    # shared 10^5-session honest run for criteria 1 and 2; counts are the
    # serial run's whatever the worker count, since seeds come by counter
    workers = min(2, os.cpu_count() or 1)
    return estimate_rates(8, 16, 100_000, HONEST, b"acceptance-criteria-1-2", workers=workers)


def test_accept_01_honest_quiz_win_rate(dispatch_report):
    point, low, high = dispatch_report.rates(z=4.0)["win_quiz"]
    line = f"win_quiz={point:.6f} 4sigma-CI=[{low:.6f},{high:.6f}] target={OPT:.11f}"
    if not low <= OPT <= high:
        pytest.fail(f"ACCEPT-01 FAIL {line}")
    print(f"ACCEPT-01 PASS {line}")


def test_accept_02_round_type_frequencies(dispatch_report):
    targets = {"freq_test": 0.8, "freq_quiz": 0.1, "freq_comp": 0.1}
    rates = dispatch_report.rates(z=4.0)
    parts = []
    for key, target in targets.items():
        point, low, high = rates[key]
        parts.append(f"{key}={point:.4f}[{low:.4f},{high:.4f}]")
        if not low <= target <= high:
            pytest.fail(f"ACCEPT-02 FAIL {key} CI misses {target}: {' '.join(parts)}")
    print(f"ACCEPT-02 PASS {' '.join(parts)} targets=(0.8,0.1,0.1)")


def test_accept_03_comp_outputs_exact_and_uniform():
    n, L = 100_000, 2
    strat = HONEST
    counts = Counter()
    decoded = 0
    worst = 0.0
    for i in range(n):
        out = run_pre_rspv(strat, f"accept3-{i}", kappa=16, L=L, force_plan="comp")
        assert out.round_type == "comp"
        if out.outputs is None or out.outputs.decoded is None:
            continue  # helper hit its 2^-16 suffix event; no output state
        decoded += 1
        fid = out.outputs.fidelity()
        worst = max(worst, abs(fid - 1.0))
        counts[out.outputs.client_thetas] += 1
    observed = [counts.get((a, b), 0) for a in range(8) for b in range(8)]
    chi2 = chisquare(observed)
    line = (
        f"decoded={decoded}/{n} max|fid-1|={worst:.2e} "
        f"chi2={chi2.statistic:.1f} p={chi2.pvalue:.4f}"
    )
    if worst > 1e-12 or decoded < 0.999 * n or chi2.pvalue < 0.01:
        pytest.fail(f"ACCEPT-03 FAIL {line}")
    print(f"ACCEPT-03 PASS {line}")


def test_accept_04_sampler_matches_enumeration():
    rng = Random("accept4")
    worst = 0.0
    cells = 0
    for width in (1, 2, 3, 4):
        for kappa in (1, 2, 3, 4):
            oracle = RandomOracle(rng.randbytes(32))
            x0 = Bits(rng.getrandbits(width), width)
            while True:
                x1 = Bits(rng.getrandbits(width), width)
                if x1 != x0:
                    break
            pad = Bits(rng.getrandbits(kappa), kappa)
            for theta in range(8):
                g = make_gadget(KeyPair(x0, x1), (0, theta))
                ref = enumerate_hadamard_distribution(g, pad, oracle, kappa)
                law = sampler_distribution(g, pad, oracle, kappa)
                assert set(ref) == set(law)
                tv = 0.5 * sum(abs(ref[d] - law[d]) for d in ref)
                worst = max(worst, tv)
                cells += 1
    line = f"cells={cells} max_tv={worst:.2e} bound=1e-12"
    if worst >= 1e-12:
        pytest.fail(f"ACCEPT-04 FAIL {line}")
    print(f"ACCEPT-04 PASS {line}")


def test_accept_05_honest_one_sided_error():
    kappa, L, per_variant = 8, 2, 25_000
    bound = 2.0 ** (1 - kappa)
    strat = HONEST

    def trial(variant, i):
        s = open_session(strat, f"accept5-{variant}-{i}", kappa, L)
        assert run_setup(s)
        if not run_add_phase(s):
            return None  # helper suffix event, not the branch under test
        if variant == "delta0":
            return run_inph_test(s, force_delta=0)[0]
        if variant == "delta4":
            return run_inph_test(s, force_delta=4)[0]
        if variant == "coph":
            return run_coph_test(s, force_coin="had")
        return run_bn_test(s, force_coin="had")

    parts = []
    for variant in ("delta0", "delta4", "coph", "bn"):
        ran = fails = 0
        for i in range(per_variant):
            ok = trial(variant, i)
            if ok is None:
                continue
            ran += 1
            fails += not ok
        rate = fails / ran
        parts.append(f"{variant}={rate:.5f}(n={ran})")
        if rate > bound:
            pytest.fail(f"ACCEPT-05 FAIL {variant} rate {rate:.5f} > {bound:.5f}: {' '.join(parts)}")
    print(f"ACCEPT-05 PASS {' '.join(parts)} bound={bound:.5f}")


def test_accept_06_conjugate_strategy_equivalence():
    n, kappa, L = 20_000, 6, 2
    honest, conj = HONEST, adv.parse_strategy("conjugate")
    dist_h, dist_c = Counter(), Counter()
    for i in range(n):
        a = run_pre_rspv(honest, f"accept6-{i}", kappa=kappa, L=L)
        b = run_pre_rspv(conj, f"accept6-{i}", kappa=kappa, L=L)
        ta = (a.round_type, a.flag, a.score)
        tb = (b.round_type, b.flag, b.score)
        if ta != tb:
            pytest.fail(f"ACCEPT-06 FAIL seed {i}: honest {ta} vs conjugate {tb}")
        dist_h[ta] += 1
        dist_c[tb] += 1
    assert dist_h == dist_c
    line = f"pairs={n} configs={len(dist_h)} mismatches=0"
    print(f"ACCEPT-06 PASS {line}")


def test_accept_07_phase_offset_detection_gap():
    n, kappa, L = 100_000, 16, 2
    f, g = parse_phase_fn("identity"), parse_phase_fn("bump:3")
    predicted = expected_inph_rates(f, g)
    gap_win = OPT - predicted["quiz_win"]
    gap_pass = predicted["delta_fail"]  # honest delta-fail is 0 in this limit
    assert gap_win >= 0.01 and gap_pass >= 0.01  # oracle-computed gaps

    strat = adv.parse_strategy({"attack": "phase_offset", "f": "identity", "g": "bump:3"})
    wins = quiz = passes = biased = 0
    for i in range(n):
        out = run_pre_rspv(strat, f"accept7-{i}", kappa=kappa, L=L, force_plan="prep:inph")
        quiz += 1
        if out.quiz_delta == 1:
            wins += out.score
        else:
            biased += 1
            passes += out.flag
    win_rate = wins / quiz
    pass_rate = passes / biased
    sig_win = 4 * math.sqrt(predicted["quiz_win"] * (1 - predicted["quiz_win"]) / quiz)
    sig_pass = 4 * math.sqrt(predicted["delta_fail"] * (1 - predicted["delta_fail"]) / biased)
    line = (
        f"win={win_rate:.5f} (pred {predicted['quiz_win']:.5f}±{sig_win:.5f}, honest {OPT:.5f}) "
        f"biased_pass={pass_rate:.5f} (pred {1 - predicted['delta_fail']:.5f}±{sig_pass:.5f}) "
        f"gaps=({gap_win:.4f},{gap_pass:.4f})"
    )
    ok = (
        abs(win_rate - predicted["quiz_win"]) < sig_win
        and abs(pass_rate - (1 - predicted["delta_fail"])) < sig_pass + 2**-kappa
        and OPT - win_rate >= 0.01
        and 1.0 - pass_rate >= 0.01
    )
    if not ok:
        pytest.fail(f"ACCEPT-07 FAIL {line}")
    print(f"ACCEPT-07 PASS {line}")


def test_accept_08_amplification_desk_scale():
    cfg = AmplificationConfig()  # N_temp=2000, win_slack=0.02, n_rspv=100
    kappa, L = 20, 2

    accepted = sum(
        run_pre_rspv_temp(L, kappa, cfg, HONEST, Random(f"accept8-temp-{r}")).flag
        for r in range(40)
    )
    rejected = sum(
        not run_pre_rspv_temp(1, 8, cfg, adv.parse_strategy("always_lose"), Random(f"accept8-al-{r}")).flag
        for r in range(20)
    )
    rspv_ok = 0
    for r in range(10):
        res = run_rspv(L, kappa, cfg, HONEST, Random(f"accept8-rspv-{r}"))
        if res.flag:
            assert res.outputs is not None and res.outputs.fidelity() == 1.0
            rspv_ok += 1

    # reference-scale constants enter only through the tail-bound formula:
    # e^{-delta^2 N / 4} alone drives soundness 1/3 and success 0.98 targets
    assert chernoff_bound(0.5, 0.1, 440) <= 1 / 3
    assert chernoff_bound(0.5, 0.1, 1600) <= 0.02
    assert chernoff_bound(0.5, 0.25, 2000) == pytest.approx(math.exp(-31.25), rel=1e-12)

    line = f"temp_accept={accepted}/40 always_lose_reject={rejected}/20 rspv_success={rspv_ok}/10"
    if accepted < 38 or rejected < 20 or rspv_ok < 9:
        pytest.fail(f"ACCEPT-08 FAIL {line}")
    print(f"ACCEPT-08 PASS {line} (targets >=0.95, >=0.99, >=0.9)")


def test_accept_09_linear_scaling_in_l():
    rep = scaling_bench(16, [128, 256, 512, 1024], 12, b"accept-9")
    ratios = rep.doubling_ratios
    line = "ratios=" + ",".join(f"{r:.3f}" for r in ratios) + " bounds=[0.7,1.3]"
    if not all(0.7 <= r <= 1.3 for r in ratios):
        pytest.fail(f"ACCEPT-09 FAIL {line} rows={rep.rows}")
    print(f"ACCEPT-09 PASS {line}")


def test_accept_10_replay_determinism(capsys):
    for name in ("honest", "conjugate", "ghz_collapse"):
        strat = adv.parse_strategy(name)
        for s in range(3):
            a = run_pre_rspv(strat, f"accept10-{s}", kappa=8, L=2, collect_transcript=True)
            b = run_pre_rspv(strat, f"accept10-{s}", kappa=8, L=2, collect_transcript=True)
            if a.transcript.to_jsonl() != b.transcript.to_jsonl():
                pytest.fail(f"ACCEPT-10 FAIL transcript replay diverged ({name}, seed {s})")

    ra = estimate_rates(2, 8, 300, HONEST, b"accept-10-report")
    rb = estimate_rates(2, 8, 300, HONEST, b"accept-10-report")
    if ra.to_json() != rb.to_json():
        pytest.fail("ACCEPT-10 FAIL rate reports diverged")

    argv = ["run", "--seed", "0123abcd", "--kappa", "8", "--L", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    if capsys.readouterr().out != first:
        pytest.fail("ACCEPT-10 FAIL CLI transcript replay diverged")

    amp_argv = ["amplify", "--kappa", "12", "--L", "2", "--n-temp", "100", "--seed", "03" * 32]
    code_a = main(amp_argv)
    out_a = capsys.readouterr().out
    code_b = main(amp_argv)
    if (code_a, out_a) != (code_b, capsys.readouterr().out):
        pytest.fail("ACCEPT-10 FAIL amplify replay diverged")

    print("ACCEPT-10 PASS transcripts, reports, and CLI output replay byte-identical")
