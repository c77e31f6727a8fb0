"""Strategy behavior: honest reference, tampering hooks, the strategy-dict
parser, and the analytic in-phase expectation oracle."""

import math

import pytest

from cvqcsim.adversary import (
    HELPER,
    OPT,
    expected_inph_rates,
    parse_phase_fn,
    parse_strategy,
)
from cvqcsim.gadget import COS2_TABLE, ROOT8
from cvqcsim.protocol import run_pre_rspv

KL = dict(kappa=8, L=2)


# -- parsing ------------------------------------------------------------------


def test_parse_simple_names():
    for name in ("honest", "conjugate", "random_response", "always_lose",
                 "corrupt_setup", "ghz_collapse"):
        s = parse_strategy(name)
        assert s.name == name
        assert s.spec == {"attack": name}


def test_parse_dict_and_spec_roundtrip():
    s = parse_strategy({"attack": "phase_offset", "f": "shift:2", "g": "negate"})
    assert s.name == "phase_offset"
    assert s.spec == {"attack": "phase_offset", "f": "shift:2", "g": "negate"}
    # spec echo is itself parseable to an equivalent strategy
    assert parse_strategy(s.spec).spec == s.spec


def test_parse_unknown_strategy():
    with pytest.raises(ValueError):
        parse_strategy("eavesdrop")
    with pytest.raises(ValueError):
        parse_strategy({"attack": "nope"})


@pytest.mark.parametrize(
    "spec",
    [{"atack": "ghz_collapse"}, {"attack": "honest", "f": "negate"},
     {"attack": "phase_offset", "G": "bump:3"}, {"attack": ["honest"]}],
)
def test_parse_rejects_keys_the_strategy_does_not_take(spec):
    # each used to run another strategy than asked (honest, or identity
    # phases) or end in a TypeError
    with pytest.raises(ValueError):
        parse_strategy(spec)


@pytest.mark.parametrize(
    "spec,inp,out",
    [
        ("identity", 5, 5),
        ("negate", 3, 5),
        ("negate", 0, 0),
        ("shift:3", 7, 2),
        ("shift:-1", 0, 7),
        ("bump:3", 3, 4),
        ("bump:3", 2, 2),
        ("const:6", 1, 6),
        ("map:7,6,5,4,3,2,1,0", 2, 5),
    ],
)
def test_phase_fn_grammar(spec, inp, out):
    assert parse_phase_fn(spec)(inp) == out


def test_phase_fn_errors():
    for bad in ("wat", "shift:x", "map:1,2,3", 5, None):
        with pytest.raises(ValueError):
            parse_phase_fn(bad)


# -- analytic expectation oracle ----------------------------------------------


def test_inph_rates_honest_is_opt():
    r = expected_inph_rates(lambda t: t, lambda t: t)
    assert r["quiz_win"] == OPT
    assert r["delta0_fail"] == 0.0
    assert r["delta4_fail"] == 0.0


def test_inph_rates_negation_without_reveal_fix_is_loud():
    # Negating the branch phases alone leaves residual -2*theta + delta,
    # which averages out to coin-flip parities.  The conjugate attack is
    # silent only because it also negates the revealed phase; that full
    # equivalence is protocol-level and covered per-seed below.
    neg = parse_phase_fn("negate")
    r = expected_inph_rates(neg, neg)
    assert r["quiz_win"] == pytest.approx(1 / 6, abs=1e-12)
    assert r["delta_fail"] == pytest.approx(0.5, abs=1e-12)


def test_inph_rates_equal_linear_shift_is_silent():
    f = parse_phase_fn("shift:5")
    r = expected_inph_rates(f, f)
    assert r["quiz_win"] == pytest.approx(OPT, abs=1e-15)
    assert r["delta_fail"] == pytest.approx(0.0, abs=1e-15)


def test_inph_rates_bump_computed_exactly():
    # g bumps theta1 only at 3: residual shifts by +1 for 1/8 of Theta.
    r = expected_inph_rates(lambda t: t, parse_phase_fn("bump:3"))
    c = COS2_TABLE[1]
    assert r["quiz_win"] == pytest.approx((7 * c + 0.5) / 8 / 3, abs=1e-15)
    assert r["delta0_fail"] == pytest.approx((1 - c) / 8, abs=1e-15)
    assert r["delta4_fail"] == pytest.approx((1 - c) / 8, abs=1e-15)
    # the detection gap this attack gives up, used by the acceptance suite
    assert OPT - r["quiz_win"] > 0.014
    assert r["delta_fail"] > 0.018


def test_inph_rates_const_attack_is_terrible():
    # pinning both branch phases kills the quiz advantage entirely
    r = expected_inph_rates(parse_phase_fn("const:0"), parse_phase_fn("const:0"))
    # residual = -theta + delta uniform -> parity-0 averages to 1/2
    assert r["quiz_win"] == pytest.approx(1 / 6, abs=1e-12)
    assert r["delta_fail"] == pytest.approx(0.5, abs=1e-12)


# -- strategy-vs-protocol behavior --------------------------------------------


def test_honest_session_tracks_claws():
    outs = [run_pre_rspv(parse_strategy("honest"), ("claw", i), **KL) for i in range(50)]
    assert all(o.flag for o in outs) or sum(not o.flag for o in outs) <= 1


def test_conjugate_matches_honest_per_seed():
    for i in range(400):
        a = run_pre_rspv(parse_strategy("honest"), ("cj", i), kappa=6, L=2)
        b = run_pre_rspv(parse_strategy("conjugate"), ("cj", i), kappa=6, L=2)
        assert (a.round_type, a.flag, a.score) == (b.round_type, b.flag, b.score)


def test_conjugate_comp_global_phase_is_an_exact_root8_entry():
    for seed in ("golden-0", "golden-1", "root8"):
        out = run_pre_rspv(
            parse_strategy("conjugate"), seed, kappa=8, L=3, force_plan="comp", collect_transcript=True
        )
        k = out.outputs.global_phase
        assert k in range(8)
        (state,) = [e for e in out.transcript.entries if e["step"] == "comp.state"]
        assert state["payload"]["phase"] == [ROOT8[k].real, ROOT8[k].imag]


def test_global_phase_shift4_matches_honest_per_seed():
    # f = g = shift:4 multiplies both branches by exactly -1: a global sign,
    # bitwise invisible to every probability the server computes.
    s = parse_strategy({"attack": "phase_offset", "f": "shift:4", "g": "shift:4"})
    for i in range(300):
        a = run_pre_rspv(parse_strategy("honest"), ("g4", i), **KL)
        b = run_pre_rspv(s, ("g4", i), **KL)
        assert (a.round_type, a.flag, a.score) == (b.round_type, b.flag, b.score)


def test_equal_shift_statistically_silent():
    # shift:1 on both branches is a global e^{i pi/4}: it leaves the
    # relative phase, and so every outcome law, unchanged. 3000 forced quiz rounds.
    s = parse_strategy({"attack": "phase_offset", "f": "shift:1", "g": "shift:1"})
    wins = fails = 0
    n = 3000
    for i in range(n):
        o = run_pre_rspv(s, ("sh1", i), kappa=10, L=1, force_plan="prep:inph")
        wins += o.score
        fails += not o.flag
    sigma = math.sqrt(OPT * (1 - OPT) / n)
    assert abs(wins / n - OPT) < 4 * sigma
    assert fails / n < 0.01  # only suffix-zero events


def test_random_response_fails_measured_rounds():
    for plan in ("test", "prep:stdb", "prep:coph", "prep:bn"):
        fails = sum(
            not run_pre_rspv(parse_strategy("random_response"), ("rr", plan, i), **KL, force_plan=plan).flag
            for i in range(60)
        )
        assert fails == 60, plan


def test_random_response_comp_yields_no_output():
    for i in range(40):
        o = run_pre_rspv(parse_strategy("random_response"), ("rrc", i), **KL, force_plan="comp")
        assert o.outputs is None or o.outputs.decoded is None


def test_always_lose_is_random_response():
    a = run_pre_rspv(parse_strategy("always_lose"), b"alias", **KL)
    b = run_pre_rspv(parse_strategy("random_response"), b"alias", **KL)
    assert (a.round_type, a.flag, a.score) == (b.round_type, b.flag, b.score)


def test_corrupt_setup_always_rejected():
    for i in range(300):
        assert not run_pre_rspv(parse_strategy("corrupt_setup"), ("cor", i), **KL).flag


# -- the GHZ / branch-number attack -------------------------------------------


def test_ghz_passes_everything_but_bn():
    fails = 0
    n = 0
    for plan in ("test", "prep:stdb", "prep:coph", "prep:inph", "comp"):
        for i in range(150):
            o = run_pre_rspv(parse_strategy("ghz_collapse"), ("gz", plan, i), kappa=10, L=2, force_plan=plan)
            n += 1
            fails += not o.flag
    assert fails / n < 0.01  # honest-level residue only


@pytest.mark.parametrize(
    "spec",
    ["honest", "conjugate", "random_response", "always_lose", "corrupt_setup", "ghz_collapse",
     {"attack": "phase_offset", "g": "bump:3"}],
    ids=lambda spec: spec if isinstance(spec, str) else "phase_offset",
)
def test_every_strategy_finishes_a_bn_round_at_large_L(spec):
    # the GHZ merge of L output gadgets used to underflow to a zero norm from L ~ 1080
    out = run_pre_rspv(parse_strategy(spec), "bn-large-L", kappa=8, L=1100, force_plan="prep:bn")
    assert out.round_type == "prep:bn"


def test_ghz_bn_hadamard_coin_is_a_fair_coin():
    # L=3: P[I = all] = 1/7; otherwise the complement check collapses the
    # merged register and the Hadamard outcome carries no key equation.
    n, fails = 3000, 0
    for i in range(n):
        o = run_pre_rspv(
            parse_strategy("ghz_collapse"), ("gzh", i), kappa=10, L=3,
            force_plan="prep:bn", force_coin="had",
        )
        fails += not o.flag
    expect = (1 - 1 / 7) * 0.5
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(fails / n - expect) < 5 * sigma


def test_ghz_bn_std_coin_always_passes():
    fails = sum(
        not run_pre_rspv(
            parse_strategy("ghz_collapse"), ("gzs", i), kappa=10, L=3,
            force_plan="prep:bn", force_coin="std",
        ).flag
        for i in range(800)
    )
    assert fails <= 8  # suffix-zero-free path; tiny honest residue elsewhere


def test_ghz_single_output_is_undetectable():
    # with L=1 the subset is always everything: nothing ever collapses
    fails = sum(
        not run_pre_rspv(parse_strategy("ghz_collapse"), ("gz1", i), kappa=10, L=1, force_plan="prep:bn").flag
        for i in range(600)
    )
    assert fails <= 6


def test_helper_index_is_reserved():
    assert HELPER == -1
