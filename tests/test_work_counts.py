"""Noise-free work counts on the session hot path.

Counters are installed by monkeypatching the names the code looks up at
call time (``protocol.dec``, ``protocol.table_payload``, ``Bits.token``, the
module-global ``_stream_bits`` in ``ntcf`` and ``oracle``, ``ntcf.prf_key``,
the ``Random`` methods, every route that builds a ``Bits``), so these tests
pin how much work a session does without timing anything.
"""

import gc
import os
import subprocess
import sys
from collections import Counter
from random import Random

import pytest

import cvqcsim.adversary as adv
import cvqcsim.harness as harness
import cvqcsim.ntcf as ntcf
import cvqcsim.oracle as oracle
import cvqcsim.protocol as protocol
from cvqcsim.bits import Bits
from cvqcsim.protocol import ROUND_TYPES, run_pre_rspv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HONEST = adv.parse_strategy("honest")


@pytest.fixture
def counts(monkeypatch):
    """Counter of calls to each patched name; returns (counter, patch).
    ``patch(owner, attr, label, weight)`` adds weight(*args) per call
    instead of 1."""
    tally: Counter = Counter()

    def patch(owner, attr, label, weight=None):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            tally[label] += weight(*args) if weight else 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    return tally, patch


def test_one_trapdoor_inversion_per_setup_block(counts):
    tally, patch = counts
    patch(protocol, "dec", "dec")
    L = 8
    for i, plan in enumerate(ROUND_TYPES):
        tally.clear()
        out = run_pre_rspv(HONEST, f"dec-{i}", kappa=16, L=L, force_plan=plan)
        assert out.round_type == plan
        assert tally["dec"] == L + 2  # helper, test gadget 0, outputs 1..L


def test_no_payload_or_token_work_unless_recording(counts):
    tally, patch = counts
    patch(protocol, "table_payload", "payload")
    patch(Bits, "token", "token")
    patch(protocol.Transcript, "say", "say")
    for name in adv._SESSIONS:
        for plan in ROUND_TYPES:
            run_pre_rspv(adv.parse_strategy(name), f"lazy-{plan}", kappa=8, L=3, force_plan=plan)
    assert tally == Counter()
    # the same sessions recorded do reach every counter
    for plan in ("prep:coph", "comp"):
        run_pre_rspv(HONEST, f"lazy-{plan}", kappa=8, L=3, force_plan=plan, collect_transcript=True)
    assert tally["payload"] > 0 and tally["token"] > 0 and tally["say"] > 0


def test_prf_calls_per_gadget_are_linear_in_L(counts):
    # the work ACCEPT-09 times (honest comp rounds), counted instead of
    # timed, and the folds of coph and BN rounds, whose combine tables
    # cover every folded gadget
    tally, patch = counts
    patch(ntcf, "_stream_bits", "ntcf")
    patch(oracle, "_stream_bits", "oracle")
    for plan, runs in (
        ("comp", ((128, 4), (512, 1))),
        ("prep:coph", ((128, 4), (2048, 1))),
        ("prep:bn", ((128, 4), (2048, 1))),
    ):
        per_gadget = {}
        for L, sessions in runs:
            tally.clear()
            for i in range(sessions):
                seed = f"lin-{L}-{i}" if plan == "comp" else f"lin-{plan}-{L}-{i}"
                run_pre_rspv(HONEST, seed, kappa=16, L=L, force_plan=plan)
            gadgets = L * sessions
            per_gadget[L] = {k: tally[k] / gadgets for k in ("ntcf", "oracle")}
            # 4 Feistel rounds per block: dec finds eval_claw's rounds in the key's memo
            assert per_gadget[L]["ntcf"] == 4 * (L + 2) / L, plan
        small, large = (L for L, _ in runs)
        for k in ("ntcf", "oracle"):
            ratio = per_gadget[large][k] / per_gadget[small][k]
            assert abs(ratio - 1) <= 0.05, (plan, k, per_gadget)
        total = {L: sum(c.values()) for L, c in per_gadget.items()}
        assert abs(total[large] / total[small] - 1) <= 0.05, (plan, total)


@pytest.fixture
def bits_built(monkeypatch):
    """Counter of the Bits a session constructs ("bits") and of their widths
    ("width"), by every route: the generated ``Bits.__new__``, ``Bits._make``
    (which ``_replace`` calls) and ``tuple.__new__(Bits, fields)`` in any
    package module, seen through a module-global ``tuple`` that shadows the
    builtin (``tuple(x)`` there still makes a plain tuple)."""
    tally: Counter = Counter()

    def record(fields):
        tally["bits"] += 1
        tally["width"] += fields[1]

    class CountingTuple(tuple):
        @staticmethod
        def __new__(cls, *args):
            if cls is CountingTuple:
                return tuple(*args)
            if cls is Bits:
                record(*args)
            return tuple.__new__(cls, *args)

    generated, make = Bits.__new__, Bits._make

    def counted_new(cls, value, width):
        record((value, width))
        return generated(cls, value, width)

    def counted_make(cls, iterable):
        fields = tuple(iterable)
        record(fields)
        return make(fields)

    monkeypatch.setattr(Bits, "__new__", counted_new)
    monkeypatch.setattr(Bits, "_make", classmethod(counted_make))
    for name, mod in list(sys.modules.items()):
        if name.startswith("cvqcsim."):
            monkeypatch.setattr(mod, "tuple", CountingTuple, raising=False)
    return tally


# Bits objects built by the four L=128 sessions of each fold round below,
# counted at the commit before records moved to tuple.__new__, when every
# Bits went through the generated __new__: a hook that misses a
# construction route reads fewer.
BITS_AT_L128 = {"prep:coph": 3724, "prep:bn": 3471}


def test_bits_built_per_gadget_are_linear_in_L(bits_built):
    # a fold builds its merged key pair once, when the coin measures it, so
    # the bits of every Bits a session constructs grow with L, not L^2
    tally = bits_built
    for plan in ("prep:coph", "prep:bn"):
        per_gadget = {}
        for L, sessions in ((128, 4), (4096, 1)):
            tally.clear()
            for i in range(sessions):
                out = run_pre_rspv(HONEST, f"bits-{plan}-{L}-{i}", kappa=16, L=L, force_plan=plan, force_coin="had")
                assert out.round_type == plan
            if L == 128:
                assert tally["bits"] == BITS_AT_L128[plan], plan
            per_gadget[L] = tally["width"] / (L * sessions)
        assert per_gadget[4096] <= 1.05 * per_gadget[128], (plan, per_gadget)


def test_bits_hook_sees_every_construction_route(bits_built):
    Bits(1, 3)
    Bits._make((1, 4))
    Bits(1, 5)._replace(value=0)
    ntcf.tuple.__new__(Bits, (1, 6))  # as a package module spells it
    assert bits_built == Counter(bits=5, width=3 + 4 + 5 + 5 + 6)


# (oracle._stream_bits, ntcf._stream_bits) calls per session at kappa=16,
# L=8, seed f"prf-{plan}": every PRF evaluation the protocol makes, pinned
# so that a refactor can neither skip a check nor add a hash.
PRF_CALLS = {
    "honest": {
        "test": (0, 40), "prep:stdb": (182, 40), "prep:coph": (344, 40),
        "prep:inph": (184, 40), "prep:bn": (262, 40), "comp": (182, 40),
    },
    "random_response": {
        "test": (0, 40), "prep:stdb": (182, 40), "prep:coph": (202, 40),
        "prep:inph": (182, 40), "prep:bn": (182, 40), "comp": (182, 40),
    },
    "ghz_collapse": {
        "test": (0, 40), "prep:stdb": (182, 40), "prep:coph": (344, 40),
        "prep:inph": (184, 40), "prep:bn": (262, 40), "comp": (182, 40),
    },
}


def test_prf_calls_per_session_are_pinned(counts):
    tally, patch = counts
    patch(oracle, "_stream_bits", "oracle")
    patch(ntcf, "_stream_bits", "ntcf")
    for name, per_plan in PRF_CALLS.items():
        for plan, want in per_plan.items():
            tally.clear()
            run_pre_rspv(adv.parse_strategy(name), f"prf-{plan}", kappa=16, L=8, force_plan=plan)
            assert (tally["oracle"], tally["ntcf"]) == want, (name, plan)


# RandomOracle.query calls per session, for the sessions PRF_CALLS pins.
# PRF misses alone would not see a dropped memo hit, such as a decrypt that
# stops at its first match and so skips the TagCollision scan of the rest.
QUERY_CALLS = {
    "honest": {"test": 0, "prep:stdb": 274, "prep:coph": 598, "prep:inph": 278, "prep:bn": 434, "comp": 274},
    "random_response": {"test": 0, "prep:stdb": 272, "prep:coph": 312, "prep:inph": 272, "prep:bn": 272, "comp": 272},
    # one decrypt per combine, of the equal-subscript row only: 60 fewer
    # queries than honest in BN, whose combines open all four rows
    "ghz_collapse": {"test": 0, "prep:stdb": 274, "prep:coph": 598, "prep:inph": 278, "prep:bn": 374, "comp": 274},
}


def test_oracle_queries_per_session_are_pinned(counts):
    tally, patch = counts
    patch(oracle.RandomOracle, "query", "query")
    for name, per_plan in QUERY_CALLS.items():
        for plan, want in per_plan.items():
            tally.clear()
            run_pre_rspv(adv.parse_strategy(name), f"prf-{plan}", kappa=16, L=8, force_plan=plan)
            assert tally["query"] == want, (name, plan)


def test_sessions_draw_without_random_py_wrappers(counts):
    # every draw goes straight to getrandbits or random(), through the draw
    # rule in ``oracle`` (``randbelow``, ``shuffle``, ``randbytes``)
    tally, patch = counts
    wrappers = ("randrange", "choice", "shuffle", "randbytes", "_randbelow")
    for attr in wrappers:
        patch(Random, attr, attr)
    for name in adv._SESSIONS:
        for plan in (None, *ROUND_TYPES):
            run_pre_rspv(adv.parse_strategy(name), f"draws-{plan}", kappa=16, L=8, force_plan=plan)
    assert tally == Counter()
    Random(0).shuffle([0, 1, 2])  # the counters do see a wrapper call
    assert tally == Counter(shuffle=1, _randbelow=2)


def test_serial_rates_parse_no_strategy(counts):
    tally, patch = counts
    patch(harness, "parse_strategy", "parse")
    report = harness.estimate_rates(2, 8, 16, HONEST, "serial")
    assert report.sessions == 16
    assert tally["parse"] == 0


def test_tampered_image_pays_for_its_own_rounds(counts, monkeypatch):
    # corrupt_setup flips the low bit of the first image.  Inverting starts
    # with the last round, whose input is the image's unchanged left half: a
    # memo hit.  The other three rounds miss: 4 in eval_claw + 3 in dec.
    tally, patch = counts
    patch(ntcf, "_stream_bits", "ntcf")
    decoded = []

    def recording_dec(*args):
        decoded.append(ntcf.dec(*args))
        return decoded[-1]

    monkeypatch.setattr(protocol, "dec", recording_dec)
    out = run_pre_rspv(adv.parse_strategy("corrupt_setup"), "tamper", kappa=16, L=8)
    assert not out.flag
    assert decoded == [None]
    assert tally["ntcf"] == 7


def test_one_prf_key_per_ntcf_block(counts):
    tally, patch = counts
    patch(ntcf, "prf_key", "prf_key")
    L = 8
    for plan in ROUND_TYPES:
        tally.clear()
        run_pre_rspv(HONEST, f"key-{plan}", kappa=16, L=L, force_plan=plan)
        assert tally["prf_key"] == L + 2  # keygen only; eval_claw and dec reuse the key's state


@pytest.fixture
def memos(monkeypatch):
    """(oracles the sessions open, hooks called on each memo just before
    ``forget`` empties it)."""
    made, hooks = [], []
    forget = oracle.RandomOracle.forget

    def recording(seed):
        made.append(oracle.RandomOracle(seed))
        return made[-1]

    def watched(self):
        for hook in hooks:
            hook(self.cache)
        forget(self)

    monkeypatch.setattr(protocol, "RandomOracle", recording)
    monkeypatch.setattr(oracle.RandomOracle, "forget", watched)
    return made, hooks


def test_oracle_memo_holds_nothing_the_collector_tracks(memos):
    # the memo is emptied after every table, so inspect each entry as
    # ``forget`` drops it, plus whatever is left at the session's end
    made, hooks = memos
    seen = []
    hooks.append(lambda memo: seen.extend(memo.items()))
    run_pre_rspv(HONEST, "gc-64", kappa=16, L=64, force_plan="comp")
    (last,) = made
    seen.extend(last.cache.items())
    gc.collect()
    assert len(seen) > 1000
    assert not any(gc.is_tracked(k) or gc.is_tracked(v) for k, v in seen)


@pytest.mark.parametrize("plan", ["prep:coph", "prep:bn"])
@pytest.mark.parametrize("L", [64, 512])
def test_oracle_memo_holds_only_the_live_table(memos, plan, L):
    # one table's entries at a time, however many gadgets the fold crosses:
    # measured at every forget and once more at the session's end
    made, hooks = memos
    sizes = []
    hooks.append(lambda memo: sizes.append(len(memo)))
    out = run_pre_rspv(HONEST, f"memo-{plan}-{L}", kappa=16, L=L, force_plan=plan)
    assert out.flag
    assert len(sizes) > L + 1  # one forget per phase table, one per combine table
    sizes.extend(len(o.cache) for o in made)
    assert max(sizes) <= 64, max(sizes)


def test_forgotten_entries_are_never_recomputed(counts, monkeypatch):
    # forget drops only entries nothing reads again: one PRF stream per key
    tally, patch = counts
    patch(oracle, "_stream_bits", "oracle")
    keys = set()
    query = oracle.RandomOracle.query

    def keyed(self, inp, out_len):
        keys.add((*inp, out_len))
        return query(self, inp, out_len)

    monkeypatch.setattr(oracle.RandomOracle, "query", keyed)
    out = run_pre_rspv(HONEST, "recompute-512", kappa=16, L=512, force_plan="prep:coph")
    assert out.flag
    assert tally["oracle"] == len(keys) > 0


def test_cold_import_leaves_out_dataclasses_inspect_and_statistics():
    # every process pays for its imports before its first session
    probe = (
        "import sys, cvqcsim.harness, cvqcsim.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'statistics') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
