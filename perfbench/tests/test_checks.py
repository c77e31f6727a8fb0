"""Each output check of the benchmark, fed a right and a wrong outcome.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import workloads  # noqa: E402

cv = workloads.import_program()


def _recorded(strategy="honest", seed=b"perfbench-test", **kwargs):
    out = cv.protocol.run_pre_rspv(
        cv.adversary.parse_strategy(strategy), seed, kappa=16, L=3, collect_transcript=True, **kwargs
    )
    return out, out.transcript.to_jsonl()


def _verdict(out):
    return out.round_type, out.flag, out.score, out.quiz_delta


def _edit(jsonl, fn):
    entries = [json.loads(line) for line in jsonl.splitlines()]
    entries = fn(entries)
    return "\n".join(json.dumps(e, separators=(",", ":")) for e in entries) + "\n"


def _suffix_zero_transcript():
    """A recorded session whose Hadamard reply is rewritten to end in kappa zeros."""
    out, jsonl = _recorded(force_plan="prep:inph")

    def zero_d(entries):
        for e in entries:
            if e["step"] == "reply.hadamard":
                value, width = checks.parse_token(e["payload"]["d"])
                value = (value >> 16) << 16
                e["payload"]["d"] = f"{width}:{value:0{(width + 3) // 4}x}"
        return entries

    return out, _edit(jsonl, zero_d)


# -- the checks on their own ----------------------------------------------------

def test_comp_decode_off_by_one_phase():
    assert checks.check_comp_decode((1, 7, 0), (1, 7, 0)) is None
    assert checks.check_comp_decode((1, 7, 0), (1, 0, 0)) is not None


def test_transcript_right_one_passes():
    out, jsonl = _recorded()
    assert checks.check_transcript(jsonl, *_verdict(out)) is None


def test_transcript_dropped_entry():
    out, jsonl = _recorded()
    dropped = _edit(jsonl, lambda es: es[:2] + es[3:])
    assert "seq" in checks.check_transcript(dropped, *_verdict(out))


def test_transcript_flipped_flag():
    out, jsonl = _recorded()
    round_type, flag, score, delta = _verdict(out)
    assert checks.check_transcript(jsonl, round_type, not flag, score, delta) is not None


def test_transcript_missing_outcome_and_bad_json():
    out, jsonl = _recorded()
    assert checks.check_transcript(_edit(jsonl, lambda es: es[:-1]), *_verdict(out)) is not None
    assert checks.check_transcript(jsonl[:-20], *_verdict(out)) is not None


def test_suffix_zero_event():
    _, jsonl = _recorded(force_plan="prep:inph")
    assert checks.shows_suffix_zero_event(jsonl) is not None
    _, zeroed = _suffix_zero_transcript()
    assert checks.shows_suffix_zero_event(zeroed) is None


def test_same_verdict_disagreement():
    assert checks.check_same_verdict(("comp", True, None), ("comp", True, None)) is None
    assert checks.check_same_verdict(("comp", True, None), ("comp", False, None)) is not None


def test_replay_differs():
    assert checks.check_replay(b"\x01" * 32, b"\x01" * 32) is None
    assert checks.check_replay(b"\x01" * 32, b"\x02" * 32) is not None


def test_bucket_frequencies():
    assert checks.check_bucket_frequencies({"test": 8000, "quiz": 1000, "comp": 1000}) is None
    assert checks.check_bucket_frequencies({"test": 7500, "quiz": 1500, "comp": 1000}) is not None


def test_quiz_win_rate():
    n = 10_000
    assert checks.check_quiz_win_rate(n, round(n * checks.HONEST_QUIZ_WIN)) is None
    assert checks.check_quiz_win_rate(n, round(n * checks.HONEST_QUIZ_WIN) - 300) is not None


def test_rejection_floors():
    floor = checks.random_response_reject_floor(16)
    assert 0.966 < floor < 0.967
    assert checks.check_rejection_floor(970, 1000, floor, "rr") is None
    assert checks.check_rejection_floor(900, 1000, floor, "rr") is not None
    corrupt = checks.corrupt_setup_reject_floor(16)
    assert checks.check_rejection_floor(1000, 1000, corrupt, "cs") is None
    assert checks.check_rejection_floor(999, 1000, corrupt, "cs") is not None


# -- the checks as the workloads apply them -------------------------------------

class _Out:
    """A SessionOutcome stand-in whose fields a test can set freely."""

    def __init__(self, real, **changes):
        self.__dict__.update(real.__dict__)
        self.__dict__.update(changes)


def test_honest_round_reports_a_wrong_decode_and_a_wrong_report():
    w = workloads.HonestL8(cv, 0)
    report, outcomes, _ = w.estimate(64, b"honest-round".ljust(32, b"."))
    w.check_round(0, report, outcomes)
    assert (w.failed, w.problems) == (0, [])

    seed, comp = next((s, o) for s, o in outcomes if o.round_type == "comp" and o.flag)
    decoded = comp.outputs.decoded
    wrong = type(decoded)(((decoded.thetas[0] + 1) % 8,) + decoded.thetas[1:])
    bad = _Out(comp, outputs=type(comp.outputs)(comp.outputs.client_thetas, wrong, comp.outputs.global_phase))
    w.check_round(1, report, [(s, bad if s == seed else o) for s, o in outcomes])
    assert w.failed == 1

    flipped = [(s, _Out(o, flag=not o.flag) if s == seed else o) for s, o in outcomes]
    w.check_round(2, report, flipped)
    assert any("disagrees" in p for p in w.problems)


def test_honest_rejection_must_replay_to_the_suffix_zero_event():
    w = workloads.HonestL8(cv, 0)
    out, _ = _recorded(seed=b"accepted")
    assert out.flag
    w.L = 3
    w.replay_rejected("honest", b"accepted", out.round_type)
    assert w.failed == 1


def test_honest_run_level_statistics():
    w = workloads.HonestL8(cv, 0)
    w.buckets = Counter({"test": 500, "quiz": 400, "comp": 100})
    w.quizzes, w.wins = 400, 200
    w.finish()
    assert len(w.problems) == 2


def test_fold_session_of_the_wrong_round_type():
    w = workloads.FoldL512(cv, 0, L=3)
    out, _ = _recorded(force_plan="prep:coph")
    w.check_session(b"s", "prep:coph", out)
    assert w.failed == 0
    w.check_session(b"s", "prep:bn", out)
    assert w.failed == 1


@pytest.fixture
def mix_round():
    w = workloads.RecordedMixL8(cv, 0)
    w.L = 3
    seed = b"mix-round"
    results = []
    for name, spec, strategy in w.strategies:
        out, jsonl = w.record(strategy, seed)
        results.append((name, spec, out, jsonl))
    return w, seed, results


def test_mix_round_right_one_passes(mix_round):
    w, seed, results = mix_round
    w.check_round(0, seed, results)
    assert w.failed == 0


def test_mix_round_dropped_transcript_entry(mix_round):
    w, seed, results = mix_round
    name, spec, out, jsonl = results[2]
    results[2] = (name, spec, out, _edit(jsonl, lambda es: es[1:]))
    w.check_round(0, seed, results)
    assert w.failed == 1


def test_mix_round_conjugate_disagrees_with_honest(mix_round):
    w, seed, results = mix_round
    name, spec, out, jsonl = results[1]
    assert name == "conjugate"
    fake = _Out(out, score=not out.score)
    fake_jsonl = _edit(jsonl, lambda es: es[:-1] + [dict(es[-1], payload=dict(es[-1]["payload"], score=fake.score))])
    results[1] = (name, spec, fake, fake_jsonl)
    w.check_round(0, seed, results)
    assert w.failed == 1


def test_mix_round_ghz_rejected_outside_bn(mix_round):
    w, seed, results = mix_round
    idx = next(i for i, r in enumerate(results) if r[0] == "ghz_collapse")
    name, spec, out, jsonl = results[idx]
    assert out.round_type != "prep:bn" and out.flag
    fake = _Out(out, flag=False)
    fake_jsonl = _edit(jsonl, lambda es: es[:-1] + [dict(es[-1], payload=dict(es[-1]["payload"], flag=False))])
    results[idx] = (name, spec, fake, fake_jsonl)
    w.check_round(0, seed, results)
    assert w.failed == 1


def test_mix_replay_and_rejection_floor(mix_round):
    w, seed, results = mix_round
    w.check_round(0, seed, results)
    spec, rseed, digest = w.to_replay[0, "honest"]
    w.to_replay[0, "honest"] = (spec, rseed, bytes(32))
    w.rejected = {"random_response": [0, 50], "corrupt_setup": [50, 50]}
    w.finish()
    assert w.failed == 1
    assert len(w.problems) == 1 and "random_response" in w.problems[0]


def test_sweep_session_of_the_wrong_round_type():
    w = workloads.RoundSweep(cv, 0, L=8)
    report, outcomes, _ = w.estimate(16, b"sweep-round".ljust(32, b"."))
    w.force_plan = "comp"
    w.check_round(0, report, outcomes)
    assert w.failed == sum(o.round_type != "comp" for _, o in outcomes) > 0
