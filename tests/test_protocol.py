"""Session-level protocol tests: transcripts, determinism, round dispatch,
sub-round semantics, and white-box checks that the client's bookkeeping stays
in lockstep with an honest server's state."""

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqcsim.adversary as adv
from cvqcsim.adversary import HELPER
from cvqcsim.gadget import COS2_TABLE
from cvqcsim.protocol import (
    NULL_TRANSCRIPT,
    ROUND_TYPES,
    Transcript,
    _fold,
    open_session,
    run_add_phase,
    run_bn_test,
    run_comp_round,
    run_hadamard_test,
    run_inph_test,
    run_pre_rspv,
    run_setup,
)

HONEST = adv.parse_strategy("honest")


# -- input boundary ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"L": 0, "force_plan": "prep:bn"},  # used to redraw an empty BN subset forever
        {"L": -1},  # used to run a session with no output gadgets
        {"kappa": 1},
        {"kappa": 3},  # table building often finds no collision-free table
    ],
)
def test_run_pre_rspv_rejects_degenerate_sizes(kwargs):
    with pytest.raises(ValueError):
        run_pre_rspv(HONEST, "size", **{"kappa": 8, "L": 2, **kwargs})


# -- transcript mechanics ------------------------------------------------------


def test_transcript_seq_and_jsonl_shape():
    tr = Transcript()
    tr.say("client", "round.plan", '{"type":"test"}')
    tr.say("server", "reply.std", '{"values":[]}')
    assert [e["seq"] for e in tr.entries] == [0, 1]
    text = tr.to_jsonl()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"seq": 0, "sender": "client", "step": "round.plan", "payload": {"type": "test"}}


def test_to_jsonl_matches_json_dumps_per_entry():
    # every recorded line is the bytes json.dumps writes for its parsed message
    specs = ("honest", "conjugate", {"attack": "phase_offset", "g": "bump:3"}, "random_response",
             "always_lose", "corrupt_setup", "ghz_collapse")
    for spec in specs:
        for plan in ROUND_TYPES:
            out = run_pre_rspv(adv.parse_strategy(spec), f"jsonl-{plan}", kappa=8, L=3,
                               force_plan=plan, collect_transcript=True)
            entries = out.transcript.entries
            ref = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in entries)
            assert out.transcript.to_jsonl() == ref, (spec, plan)


def test_null_transcript_drops_messages():
    before = len(NULL_TRANSCRIPT.entries)
    NULL_TRANSCRIPT.say("client", "x", "{}")
    assert len(NULL_TRANSCRIPT.entries) == before


def test_transcript_absent_unless_requested():
    out = run_pre_rspv(HONEST, 1, kappa=6, L=1)
    assert out.transcript is None
    out = run_pre_rspv(HONEST, 1, kappa=6, L=1, collect_transcript=True)
    assert out.transcript is not None
    assert out.transcript.entries[0]["step"] == "round.plan"
    assert out.transcript.entries[-1]["step"] == "session.outcome"


# -- determinism ---------------------------------------------------------------


def test_same_seed_replays_byte_identical():
    a = run_pre_rspv(HONEST, b"replay", kappa=8, L=3, collect_transcript=True)
    b = run_pre_rspv(HONEST, b"replay", kappa=8, L=3, collect_transcript=True)
    assert (a.round_type, a.flag, a.score, a.quiz_delta) == (
        b.round_type,
        b.flag,
        b.score,
        b.quiz_delta,
    )
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()


def test_different_seeds_diverge():
    a = run_pre_rspv(HONEST, "s1", kappa=8, L=3, collect_transcript=True)
    b = run_pre_rspv(HONEST, "s2", kappa=8, L=3, collect_transcript=True)
    assert a.transcript.to_jsonl() != b.transcript.to_jsonl()


def test_unhashable_style_seeds_are_normalized():
    # container seeds are accepted (stringified) and still deterministic
    a = run_pre_rspv(HONEST, ("run", 3), kappa=6, L=1, collect_transcript=True)
    b = run_pre_rspv(HONEST, ("run", 3), kappa=6, L=1, collect_transcript=True)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()


def test_only_tuple_seeds_are_stringified():
    # The repr of a Random or a plain object holds its memory address, so
    # stringifying it seeded a different session in every process.
    for seed in (Random(5), object()):
        with pytest.raises(TypeError):
            run_pre_rspv(HONEST, seed, kappa=8, L=2, collect_transcript=True)
    # A tuple's repr is the same in every process: it seeds as that string.
    a = run_pre_rspv(HONEST, ("run", 5), kappa=8, L=2, collect_transcript=True)
    b = run_pre_rspv(HONEST, "('run', 5)", kappa=8, L=2, collect_transcript=True)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()


# -- dispatch ------------------------------------------------------------------


def test_round_dispatch_frequencies():
    n = 6000
    counts = dict.fromkeys(ROUND_TYPES, 0)
    for i in range(n):
        counts[run_pre_rspv(HONEST, ("dispatch", i), kappa=6, L=1).round_type] += 1
    expected = {t: (0.5 if t == "test" else 0.1) for t in ROUND_TYPES}
    for t, p in expected.items():
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(counts[t] / n - p) < 4 * sigma, (t, counts[t] / n)


def test_force_plan_keeps_rng_stream_aligned():
    # forcing the plan a seed would have picked anyway must reproduce the
    # unforced session bit for bit (both dispatch coins are always drawn)
    for target in ("test", "prep:coph", "comp"):
        seed = 0
        while True:
            natural = run_pre_rspv(
                HONEST, ("align", target, seed), kappa=6, L=1, collect_transcript=True
            )
            if natural.round_type == target:
                break
            seed += 1
        forced = run_pre_rspv(
            HONEST,
            ("align", target, seed),
            kappa=6,
            L=1,
            force_plan=target,
            collect_transcript=True,
        )
        assert forced.transcript.to_jsonl() == natural.transcript.to_jsonl()


def test_force_plan_rejects_unknown_type():
    with pytest.raises(ValueError):
        run_pre_rspv(HONEST, 0, kappa=6, L=1, force_plan="prep:nope")


def test_honest_passes_every_plan():
    fails = 0
    for plan in ROUND_TYPES:
        for i in range(60):
            out = run_pre_rspv(HONEST, ("plan", plan, i), kappa=12, L=2, force_plan=plan)
            assert out.round_type == plan
            fails += not out.flag
            if plan == "comp" and out.flag:
                assert out.outputs is not None and out.outputs.fidelity() == 1.0
    # only honest failure mode is the 2^-kappa all-zero hadamard suffix
    assert fails <= 2, fails


# -- hadamard test law ---------------------------------------------------------


def test_suffix_zero_is_the_only_honest_failure():
    # at kappa=2 the zero-suffix event is common (2^-2); everything that
    # survives it must have deterministic parity 0 on the unphased helper
    n, bad_suffix = 4000, 0
    for i in range(n):
        s = open_session(HONEST, ("sz", i), 2, 0)
        assert run_setup(s)
        ok, parity = run_hadamard_test(s, HELPER, s.keys[HELPER], None, None)
        if not ok:
            bad_suffix += 1
        else:
            assert parity == 0
    p = 2**-2
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(bad_suffix / n - p) < 4 * sigma, bad_suffix / n


def test_inph_delta_zero_and_four_are_deterministic():
    for delta in (0, 4):
        fails = skipped = 0
        for i in range(200):
            s = open_session(HONEST, ("d", delta, i), 12, 1)
            assert run_setup(s)
            if not run_add_phase(s):
                skipped += 1  # helper hit the 2^-kappa zero-suffix event
                continue
            flag, score, got = run_inph_test(s, force_delta=delta)
            assert got == delta and score is False
            fails += not flag
        assert skipped <= 2 and fails <= 1, (delta, skipped, fails)


def test_inph_delta_one_wins_at_cos_squared_rate():
    n, wins, formed = 3000, 0, 0
    for i in range(n):
        s = open_session(HONEST, ("quiz", i), 10, 1)
        assert run_setup(s)
        if not run_add_phase(s):
            continue
        flag, score, _ = run_inph_test(s, force_delta=1)
        if flag:  # conditioned on a well-formed d, parity 0 is exactly cos^2(pi/8)
            formed += 1
            wins += score
    assert formed > 0.99 * n
    p = COS2_TABLE[1]
    sigma = (p * (1 - p) / formed) ** 0.5
    assert abs(wins / formed - p) < 4 * sigma, wins / formed


# -- white-box lockstep checks -------------------------------------------------


def test_setup_leaves_server_holding_the_claws():
    s = open_session(HONEST, "claws", 8, 3)
    assert run_setup(s)
    assert set(s.server.gadgets) == {HELPER, 0, 1, 2, 3}
    for idx, kp in s.keys.items():
        assert s.server.gadgets[idx].keys == kp


def test_add_phase_consumes_helper_and_rotates_outputs():
    s = open_session(HONEST, "burn", 10, 2)
    assert run_setup(s) and run_add_phase(s)
    assert HELPER not in s.server.gadgets
    assert set(s.server.gadgets) == {0, 1, 2}
    for i in (0, 1, 2):
        g = s.server.gadgets[i]
        assert (g.t0, g.t1) == (0, s.thetas[i])


def test_fold_tracks_server_key_pair_and_phase():
    crossed_seen = False
    for i in range(50):
        s = open_session(HONEST, ("fold", i), 8, 3)
        assert run_setup(s)
        if not run_add_phase(s):
            continue
        folded = _fold(s, 0, [1, 2, 3])
        assert folded is not None
        kk, tt = folded
        g = s.server.gadgets[0]
        assert g.keys == kk  # branch order included
        assert (g.t1 - g.t0) % 8 == tt
        all_equal = s.keys[0].x0
        for j in (1, 2, 3):
            all_equal = all_equal.concat(s.keys[j].x0)
        crossed_seen = crossed_seen or kk.x0 != all_equal
        if kk.x0.width != 4 * 8:
            pytest.fail("folded register should span base plus three others")
    assert crossed_seen  # both combine outcomes exercised


def test_bn_round_passes_under_both_coins():
    for coin in ("std", "had"):
        fails = 0
        for i in range(100):
            s = open_session(HONEST, ("bn", coin, i), 10, 3)
            assert run_setup(s)
            if not run_add_phase(s):
                continue
            fails += not run_bn_test(s, force_coin=coin)
        assert fails <= 1, (coin, fails)


def test_comp_round_decodes_exactly():
    for i in range(30):
        s = open_session(HONEST, ("comp", i), 8, 4)
        assert run_setup(s)
        if not run_add_phase(s):
            continue
        flag, outputs = run_comp_round(s)
        assert flag
        assert outputs.decoded is not None
        assert outputs.decoded.thetas == outputs.client_thetas
        assert outputs.fidelity() == 1.0
        assert outputs.global_phase == 0


# -- transcript inventory ------------------------------------------------------


def test_forced_comp_transcript_step_sequence():
    seed = 0
    while True:  # the rare zero-suffix helper event would truncate the flow
        out = run_pre_rspv(
            HONEST, ("inv", seed), kappa=8, L=2, force_plan="comp", collect_transcript=True
        )
        if out.flag:
            break
        seed += 1
    steps = [e["step"] for e in out.transcript.entries]
    expected = (
        ["round.plan"]
        + ["setup.block", "setup.y"] * 4  # helper, test gadget, two outputs
        + ["phase.table"] * 3
        + ["hadamard.pad", "reply.hadamard"]  # helper burn
        + ["measure.std", "reply.std"]  # test gadget burn
        + ["comp.reveal", "comp.state", "session.outcome"]
    )
    assert steps == expected
    senders = {e["step"]: e["sender"] for e in out.transcript.entries}
    assert senders["comp.reveal"] == "client" and senders["comp.state"] == "server"


# -- outcome shape invariants ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), plan=st.sampled_from(ROUND_TYPES))
def test_outcome_shape(seed, plan):
    out = run_pre_rspv(HONEST, ("shape", seed), kappa=6, L=1, force_plan=plan)
    assert out.round_type == plan
    assert isinstance(out.flag, bool)
    if plan == "prep:inph":
        assert isinstance(out.score, bool)
        assert out.quiz_delta in (None, 0, 1, 4)
    else:
        assert out.score is None and out.quiz_delta is None
    if plan != "comp":
        assert out.outputs is None


def test_corrupt_setup_is_contained():
    # tampered images must fail the session, never escape as an exception
    for i in range(200):
        out = run_pre_rspv(adv.parse_strategy("corrupt_setup"), ("cs", i), kappa=4, L=1)
        assert out.flag is False
