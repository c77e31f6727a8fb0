"""Single-session client driver.

One session of the base protocol, played between the client implemented here
and a ``ServerSession`` (honest or adversarial — the client code never knows
which).  A session:

1. **setup** — for the helper block, the test gadget 0 and the output gadgets
   1..L, the client samples a claw-free key pair, the server evaluates and
   reports an image y, and the client inverts y once and takes the other
   preimage as its claw partner.  The honest server now holds
   (|x0> + |x1>)/sqrt2 per block.

2. **round dispatch** — one coin picks a bare standard-basis test round
   (probability 1/2); otherwise phases are injected (AddPhase) and a second
   coin picks one of five sub-rounds uniformly: another standard-basis
   check, a coherence test across all gadgets (CoPh), an in-phase quiz on
   gadget 0 (InPh — the only scored round), a branch-number test (BN), or
   the computation round that makes the server reveal its output qubits.
   Net bucket frequencies: test 0.8, quiz 0.1, comp 0.1.

3. **outcome** — a pass/fail flag, a win/lose score on quiz rounds, and (on
   comp rounds) the client's target phases next to whatever state the server
   decoded, ready for a fidelity check upstream.

All client randomness comes from the session's client stream and all server
randomness from the server's own stream, each seeded independently from the
session master seed — so a session is a pure function of (strategy, seed),
which is what makes transcript replay byte-exact.

What the sub-rounds share (server, transcript, oracle, client stream, sizes,
and the client's keys and phases) lives on one ``ClientSession``.  The oracle
memo holds only the live exchange: ``run_add_phase`` and ``_fold`` call
``oracle.forget()`` as soon as the server has answered each table.
``open_session`` is the only place that derives the oracle, client and server
streams from a seed.  Each sub-round is a module-level function of the session
plus its own round arguments, so tests can open a session, run ``run_setup``
and drive a single round shape directly (e.g. hammer the Hadamard test with a
fixed delta) without fighting the dispatcher.

A transcript keeps each message as its finished JSON line, rendered once by
its say site (``to_jsonl`` joins them); payloads are rendered only when
recording, and bulk runs pass the non-recording ``NULL_TRANSCRIPT``.
"""

from __future__ import annotations

import json
from random import Random
from typing import NamedTuple

from .adversary import HELPER, ServerSession, Strategy
from .gadget import ROOT8, KeyPair, PlusStateVector, TableMismatch, branch_words, fidelity_ideal, merge_keys
from .ntcf import claw_partner, dec, eval_claw, keygen
from .oracle import RandomOracle, fresh_pad, randbelow, randbytes
from .tables import TagCollision, make_combine_table, make_phase_table, table_payload

ROUND_TYPES = ("test", "prep:stdb", "prep:coph", "prep:inph", "prep:bn", "comp")
_PREP_MENU = ("prep:stdb", "prep:coph", "prep:inph", "prep:bn", "comp")

P_QUIZ = 0.1  # dispatch probability of the scored (in-phase quiz) round

_encode = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def check_size(L: int, kappa: int) -> None:
    """Reject session sizes the protocol is undefined or unreliable for: no
    output gadget (L < 1; the branch-number test would redraw an empty subset
    forever) or kappa < 4 (below that, table building often finds no
    collision-free table)."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if kappa < 4:
        raise ValueError(f"kappa must be >= 4, got {kappa}")


class Transcript:
    """Append-only message log; one compact JSON line per message.

    ``say`` takes the payload's JSON text.  A non-recording transcript drops
    every message; callers check ``recording`` before rendering a payload.
    """

    __slots__ = ("lines", "recording")

    def __init__(self, recording: bool = True) -> None:
        self.lines: list[str] = []
        self.recording = recording

    def say(self, sender: str, step: str, payload: str) -> None:
        if self.recording:
            lines = self.lines
            lines.append('{"seq":%d,"sender":"%s","step":"%s","payload":%s}' % (len(lines), sender, step, payload))

    @property
    def entries(self) -> list[dict]:
        """The messages parsed back into dicts."""
        return [json.loads(line) for line in self.lines]

    def to_jsonl(self) -> str:
        return "\n".join(self.lines) + "\n"


NULL_TRANSCRIPT = Transcript(recording=False)  # shared sink for bulk runs


class ClientSession:
    """One session's shared state: the server, the transcript, the oracle,
    the client's random stream and sizes, the client's key pairs per block
    (filled in by ``run_setup``) and relative phases theta1 - theta0 mod 8
    (``run_add_phase``)."""

    __slots__ = ("server", "tr", "oracle", "rng", "kappa", "L", "keys", "thetas")

    def __init__(
        self, server: ServerSession, tr: Transcript, oracle: RandomOracle, rng: Random, kappa: int, L: int
    ) -> None:
        self.server, self.tr, self.oracle, self.rng, self.kappa, self.L = server, tr, oracle, rng, kappa, L
        self.keys: dict[int, KeyPair] = {}
        self.thetas: dict[int, int] = {}


def open_session(
    strategy: Strategy, seed, kappa: int, L: int, tr: Transcript = NULL_TRANSCRIPT
) -> ClientSession:
    """Derive the oracle, client and server streams from `seed` and start
    the server; sizes are not checked (``run_pre_rspv`` does that)."""
    if isinstance(seed, tuple):
        seed = repr(seed)  # Random rejects tuples; any other non-primitive raises
    master = Random(seed)
    oracle = RandomOracle(randbytes(master, 32))
    client_rng = Random(randbytes(master, 32))
    server_rng = Random(randbytes(master, 32))
    return ClientSession(strategy.begin(oracle, server_rng, kappa), tr, oracle, client_rng, kappa, L)


class CompOutputs(NamedTuple):
    client_thetas: tuple[int, ...]
    decoded: PlusStateVector | None
    global_phase: int | None  # k of the global phase e^{i k pi/4}

    def fidelity(self) -> float | None:
        if self.decoded is None:
            return None
        return fidelity_ideal(self.decoded, self.client_thetas)


class SessionOutcome:
    """One session's result; its fields are plain attributes in ``__dict__``."""

    def __init__(
        self,
        round_type: str,
        flag: bool,
        score: bool | None = None,
        quiz_delta: int | None = None,
        outputs: CompOutputs | None = None,
        transcript: Transcript | None = None,
    ) -> None:
        self.round_type, self.flag, self.score = round_type, flag, score
        self.quiz_delta, self.outputs, self.transcript = quiz_delta, outputs, transcript


def run_setup(s: ClientSession) -> bool:
    """Key generation + server state preparation for helper, 0, 1..L; False
    when an image does not invert.

    The claw-free keys double as their own trapdoor in this mock, so the
    transcript records only block indices and images, not key material.
    The shift is nonzero, so the two preimages always differ.
    """
    server, tr, rng, kappa = s.server, s.tr, s.rng, s.kappa
    for idx in (HELPER, *range(s.L + 1)):
        key = keygen(kappa, rng)
        if tr.recording:
            tr.say("client", "setup.block", '{"idx":%d,"kappa":%d}' % (idx, kappa))
        claw = eval_claw(key, server.rng)
        y = server.setup_block(idx, claw)
        if tr.recording:
            tr.say("server", "setup.y", '{"idx":%d,"y":"%s"}' % (idx, y.token()))
        x0 = dec(key, 0, y)
        if x0 is None:
            return False
        s.keys[idx] = tuple.__new__(KeyPair, (x0, claw_partner(key, x0)))
    return True


def run_stdb_test(s: ClientSession, keys: dict[int, KeyPair], indices: list[int]) -> bool:
    """Standard-basis check: every reported string must be a key of its
    index's pair in `keys`."""
    tr = s.tr
    if tr.recording:
        tr.say("client", "measure.std", '{"idx":[%s]}' % ",".join(map(str, indices)))
    resp = s.server.respond_std(indices)
    if tr.recording:
        tr.say("server", "reply.std", '{"values":[%s]}' % ",".join(['"%s"' % b.token() for b in resp]))
    if len(resp) != len(indices):
        return False
    for i, r in zip(indices, resp):
        if r not in keys[i]:
            return False
    return True


def run_hadamard_test(
    s: ClientSession, idx: int, keys: KeyPair, theta: int | None, delta: int | None
) -> tuple[bool, int | None]:
    """Padded Hadamard test on one (possibly combined) gadget.

    If the relative phase `theta` is given, the client first reveals
    v = theta - delta so the honest residual relative phase is exactly delta.  Returns
    (well_formed, parity): well_formed is False on a width violation or a
    d whose oracle-block suffix is all zero (that d carries no equation in
    the keys, so it proves nothing — honest probability exactly 2^-kappa);
    parity is d . (w0 xor w1), which callers compare against delta.
    """
    server, tr, kappa = s.server, s.tr, s.kappa
    if theta is not None:
        v = (theta - (delta or 0)) % 8
        if tr.recording:
            tr.say("client", "reveal.phase", '{"idx":%d,"v":%d}' % (idx, v))
        server.dephase_reveal(idx, v)
    pad = fresh_pad(s.rng, kappa)
    if tr.recording:
        tr.say("client", "hadamard.pad", '{"idx":%d,"pad":"%s"}' % (idx, pad.token()))
    d = server.respond_hadamard(idx, pad)
    if tr.recording:
        tr.say("server", "reply.hadamard", '{"idx":%d,"d":"%s"}' % (idx, d.token()))
    if d.width != keys.x0.width + kappa or d.suffix(kappa).is_zero:
        return False, None
    w0, w1 = branch_words(keys, pad, s.oracle, kappa)
    return True, d.parity_with(w0.xor(w1))


def run_add_phase(s: ClientSession) -> bool:
    """Inject a fresh uniform phase on gadgets 0..L, then burn the helper.

    Each phase rides in a lookup table keyed helper-branch || gadget-branch;
    the honest server decrypts in superposition, picking up e^{i theta pi/4}
    on branch 1 only.  The helper is then consumed by an unphased Hadamard
    test, which passes deterministically iff the helper really was held as a
    superposition over both keys (up to the 2^-kappa suffix event).
    """
    server, tr, oracle, rng, kappa, keys = s.server, s.tr, s.oracle, s.rng, s.kappa, s.keys
    helper = keys[HELPER]
    for i in range(s.L + 1):
        theta = randbelow(rng, 8)
        s.thetas[i] = theta
        table = make_phase_table(helper, keys[i], (0, theta), kappa, oracle, rng)
        if tr.recording:
            tr.say("client", "phase.table", '{"idx":%d,"table":%s}' % (i, table_payload(table)))
        server.receive_phase_table(i, table)
        oracle.forget()
    ok, parity = run_hadamard_test(s, HELPER, helper, None, None)
    return ok and parity == 0


def _fold(s: ClientSession, base: int, others: list[int]) -> tuple[KeyPair, int] | None:
    """Combine `others` into `base` one at a time, tracking the client-side
    key pair and relative phase of the merged gadget.  Tables are keyed on
    the base gadget's original keys (the first kappa bits of the merged
    register) crossed with the incoming gadget's keys; the server's reply says
    which pairing survived (r1: crossed subscripts), and the phases pair up
    like the keys, so a crossed merge subtracts the incoming relative phase.
    The merged key pair is built once, after the last reply (``merge_keys``).
    Returns None as soon as a reply is off-table."""
    server, tr, oracle, rng, kappa, keys, thetas = (
        s.server, s.tr, s.oracle, s.rng, s.kappa, s.keys, s.thetas
    )
    kb = keys[base]
    tt = thetas[base]
    parts = []
    for i in others:
        r0 = (rng.getrandbits(kappa), kappa)
        r1 = (rng.getrandbits(kappa), kappa)
        while r1 == r0:
            r1 = (rng.getrandbits(kappa), kappa)
        ki, ti = keys[i], thetas[i]
        table = make_combine_table(kb, ki, r0, r1, kappa, oracle, rng)
        if tr.recording:
            tr.say("client", "combine.table", '{"base":%d,"other":%d,"table":%s}' % (base, i, table_payload(table)))
        r = server.respond_combine(base, i, table)
        oracle.forget()
        if tr.recording:
            tr.say("server", "reply.combine", '{"r":"%s"}' % r.token())
        if r != r0 and r != r1:
            return None
        crossed = int(r == r1)
        parts.append((ki, crossed))
        tt = (tt - ti if crossed else tt + ti) % 8
    return merge_keys(kb, parts), tt


def _coin_check(s: ClientSession, base: int, kk: KeyPair, tt: int, force_coin: str | None) -> bool:
    """Final coin on a folded gadget: standard-basis key check, or a phased
    Hadamard test with a blinding delta in {0,4}."""
    coin = "std" if s.rng.random() < 0.5 else "had"
    if force_coin is not None:
        coin = force_coin
    if coin == "std":
        return run_stdb_test(s, {base: kk}, [base])
    delta = (0, 4)[randbelow(s.rng, 2)]
    ok, parity = run_hadamard_test(s, base, kk, tt, delta)
    return ok and parity == (1 if delta == 4 else 0)


def run_coph_test(s: ClientSession, force_coin: str | None = None) -> bool:
    """Coherence test: fold every gadget into gadget 0, then flip the coin."""
    folded = _fold(s, 0, list(range(1, s.L + 1)))
    if folded is None:
        return False
    return _coin_check(s, 0, *folded, force_coin)


def run_inph_test(s: ClientSession, force_delta: int | None = None) -> tuple[bool, bool, int]:
    """In-phase round on gadget 0 — the only scored round.

    delta is drawn uniformly from {0, 4, 1} and hidden inside the revealed
    phase.  For delta in {0,4} the parity is deterministic for an honest
    server, so it's a test (flag).  delta=1 leaves residual phase pi/4: no
    answer can be enforced, but parity 0 appears with probability
    cos^2(pi/8), and that event is the quiz win (score).  Returns
    (flag, score, delta).
    """
    delta = (0, 4, 1)[randbelow(s.rng, 3)]
    if force_delta is not None:
        delta = force_delta
    ok, parity = run_hadamard_test(s, 0, s.keys[0], s.thetas[0], delta)
    if not ok:
        return False, False, delta
    if delta == 1:
        return True, parity == 0, delta
    return parity == (1 if delta == 4 else 0), False, delta


def run_bn_test(s: ClientSession, force_coin: str | None = None) -> bool:
    """Branch-number test over the output gadgets.

    The client reveals each output gadget's relative phase (no blinding —
    these gadgets are being torn down), picks a random nonempty subset I of
    them, folds I into its smallest element, standard-basis checks everything
    outside I (plus the spare test gadget 0), and finally flips the coin on
    the folded register.  A server that holds the outputs as one big
    two-branch superposition instead of a product survives the folds but is
    collapsed by the complement check, after which the Hadamard coin is a
    fair-coin fail.
    """
    L, tr, rng, thetas = s.L, s.tr, s.rng, s.thetas
    for i in range(1, L + 1):
        v = thetas[i]
        if tr.recording:
            tr.say("client", "reveal.phase", '{"idx":%d,"v":%d}' % (i, v))
        s.server.dephase_reveal(i, v)
        thetas[i] = 0
    while True:
        subset = [i for i in range(1, L + 1) if rng.random() < 0.5]
        if subset:
            break
    base = subset[0]
    folded = _fold(s, base, subset[1:])
    if folded is None:
        return False
    chosen = set(subset)
    complement = [0] + [i for i in range(1, L + 1) if i not in chosen]
    if not run_stdb_test(s, s.keys, complement):
        return False
    return _coin_check(s, base, *folded, force_coin)


def run_comp_round(s: ClientSession) -> tuple[bool, CompOutputs]:
    """Computation round: burn the test gadget, then reveal every output
    gadget's key pair so the server can decode its qubits into the clear."""
    tr = s.tr
    flag = run_stdb_test(s, s.keys, [0])
    indices = list(range(1, s.L + 1))
    revealed = [s.keys[i] for i in indices]
    if tr.recording:
        keys = ",".join(['["%s","%s"]' % (k.x0.token(), k.x1.token()) for k in revealed])
        tr.say("client", "comp.reveal", '{"idx":[%s],"keys":[%s]}' % (",".join(map(str, indices)), keys))
    out = s.server.decode_outputs(indices, revealed)
    client_thetas = tuple(s.thetas[i] for i in indices)
    if out is None:
        if tr.recording:
            tr.say("server", "comp.state", '{"decoded":null}')
        return flag, CompOutputs(client_thetas, None, None)
    state, k = out
    if tr.recording:
        tr.say("server", "comp.state", _encode({"decoded": state.thetas, "phase": [ROOT8[k].real, ROOT8[k].imag]}))
    return flag, CompOutputs(client_thetas, state, k)


def run_pre_rspv(
    strategy: Strategy,
    seed=None,
    *,
    kappa: int = 16,
    L: int = 8,
    force_plan: str | None = None,
    force_coin: str | None = None,
    collect_transcript: bool = False,
) -> SessionOutcome:
    """One full session against `strategy`; pure function of (strategy, seed).

    `force_plan` / `force_coin` pin the dispatch for instrumented runs; the
    natural coins are still drawn first so the client RNG stream stays
    aligned with unforced sessions.  Raises ValueError on L < 1 or kappa < 4.
    """
    check_size(L, kappa)
    s = open_session(strategy, seed, kappa, L, Transcript() if collect_transcript else NULL_TRANSCRIPT)
    tr = s.tr

    bare_test = s.rng.random() < 0.5
    sub = randbelow(s.rng, 5)
    plan = "test" if bare_test else _PREP_MENU[sub]
    if force_plan is not None:
        if force_plan not in ROUND_TYPES:
            raise ValueError(f"unknown round type {force_plan!r}")
        plan = force_plan
    if tr.recording:
        tr.say("client", "round.plan", '{"type":"%s","kappa":%d,"L":%d}' % (plan, kappa, L))

    score: bool | None = False if plan == "prep:inph" else None
    quiz_delta: int | None = None
    outputs: CompOutputs | None = None
    flag = False

    # A server whose state diverged from the client's keys (e.g. a tampered
    # setup image that still inverted) can hit undecryptable tables and give
    # up mid-round; that is a failed session, not a simulator error.
    try:
        if run_setup(s):
            if plan == "test":
                flag = run_stdb_test(s, s.keys, [HELPER, *range(L + 1)])
            elif not run_add_phase(s):
                flag = False  # helper check failed; planned round type stands
            elif plan == "prep:stdb":
                flag = run_stdb_test(s, s.keys, list(range(L + 1)))
            elif plan == "prep:coph":
                flag = run_coph_test(s, force_coin)
            elif plan == "prep:inph":
                flag, score, quiz_delta = run_inph_test(s)
            elif plan == "prep:bn":
                flag = run_bn_test(s, force_coin)
            else:
                flag, outputs = run_comp_round(s)
    except (TableMismatch, TagCollision):
        flag = False
        if tr.recording:
            tr.say("server", "abort", "{}")

    if tr.recording:
        outcome = {"type": plan, "flag": flag, "score": score, "quiz_delta": quiz_delta}
        tr.say("client", "session.outcome", _encode(outcome))
    return SessionOutcome(
        round_type=plan,
        flag=flag,
        score=score,
        quiz_delta=quiz_delta,
        outputs=outputs,
        transcript=tr if collect_transcript else None,
    )
