"""Server strategies: honest behavior and tampering hooks.

The protocol layer acts as the client and calls into a per-session
``ServerSession`` object for every server action: building states at setup,
applying phase tables, dephasing on reveals, and answering the three kinds of
measurement requests.  The base class is the honest server; attacks subclass
it and override the narrow hook they tamper with.  Two rules are enforced by
interface shape, mirroring the protocol's information model:

* sessions never receive client secrets or NTCF trapdoors — setup hands the
  server only its own honest post-measurement data (the claw);
* all server randomness comes from the session's server stream, so a strategy
  cannot shift the client's draws (round type, deltas, pads, subsets).

A ``Strategy`` is built only by ``parse_strategy(name or spec)``.  Its
``spec`` is the canonical blob of that input, so it always describes the
sessions the strategy starts: reports echo it, and parallel workers rebuild
the strategy from it.  Built-in names:

* ``honest`` — the reference server.
* ``conjugate`` — complex-conjugates every diagonal operation (negated table
  phases, negated dephasing) and X-corrects its decoded output.  Every
  client-observable distribution is identical to honest, bit-for-bit under a
  shared seed.
* ``phase_offset`` (phase functions ``f``, ``g``) — rotates branch b by
  f/g(theta_b) instead of theta_b after decrypting a phase table, then
  continues honestly.  Linear equal offsets are undetectable; nonlinear
  choices lose win rate and leak fail events (see ``expected_inph_rates``).
* ``random_response`` / ``always_lose`` — uniform-random bitstrings at every
  measurement hook (negative control; keeps honest internal state so widths
  are right).
* ``corrupt_setup`` — flips a bit of one setup image y (fault injection).
* ``ghz_collapse`` — replaces the output gadgets by a single two-branch
  register over the concatenated keys at the start of a branch-number test.
  It passes the combines deterministically, but a standard-basis measurement
  of any complement gadget collapses the register, after which the Hadamard
  coin is a fair-coin fail.
"""

from __future__ import annotations

from random import Random
from typing import Callable, NamedTuple

from . import gadget  # gadget.combine_step is looked up per call, so a wrapper set on the module sees it
from .bits import Bits
from .gadget import (
    COS2_TABLE,
    Gadget,
    KeyPair,
    PlusStateVector,
    decode_output,
    decrypt_branch_phases,
    dephase,
    hadamard_sample,
    make_gadget,
    materialize,
    merge_keys,
    rotate_branches,
    std_sample,
)
from .ntcf import ClawResult
from .oracle import RandomOracle
from .tables import LookupTable, decrypt_row

HELPER = -1  # gadget index of the helper block; output gadgets are 1..L, test gadget is 0

OPT = COS2_TABLE[1] / 3  # (1/3) cos^2(pi/8): the optimal quiz win rate


class ServerSession:
    """Honest server for one session; subclass hooks to tamper."""

    def __init__(self, oracle: RandomOracle, rng: Random, kappa: int):
        self.oracle = oracle
        self.rng = rng
        self.kappa = kappa
        self.gadgets: dict[int, Gadget] = {}

    # -- setup ------------------------------------------------------------
    def setup_block(self, idx: int, claw: ClawResult) -> Bits:
        self.gadgets[idx] = make_gadget(tuple.__new__(KeyPair, (claw.x0, claw.x1)))
        return claw.y

    # -- phase injection ----------------------------------------------------
    def receive_phase_table(self, idx: int, table: LookupTable) -> None:
        helper_in_hand = self.gadgets[HELPER].keys.x0  # either branch decrypts alike
        g = self.gadgets[idx]
        t0, t1 = decrypt_branch_phases(g, table, helper_in_hand, self.oracle)
        t0, t1 = self.tweak_phases(idx, t0, t1)
        self.gadgets[idx] = rotate_branches(g, t0, t1)

    def tweak_phases(self, idx: int, t0: int, t1: int) -> tuple[int, int]:
        return t0, t1

    # -- reveals ------------------------------------------------------------
    def dephase_reveal(self, idx: int, revealed: int) -> None:
        self.gadgets[idx] = dephase(self.gadgets[idx], self.tweak_reveal(idx, revealed))

    def tweak_reveal(self, idx: int, revealed: int) -> int:
        return revealed

    # -- measurements ---------------------------------------------------------
    def _take(self, idx: int) -> Gadget:
        """Consume gadget `idx`, its full key pair built (``materialize``)."""
        return materialize(self.gadgets.pop(idx))

    def respond_std(self, indices: list[int]) -> list[Bits]:
        return [std_sample(self._take(idx), self.rng)[1] for idx in indices]

    def respond_combine(self, base: int, other: int, table: LookupTable) -> Bits:
        g_a = self.gadgets[base]
        g_b = self._take(other)
        r, combined = gadget.combine_step(g_a, g_b, table, self.oracle, self.rng)
        self.gadgets[base] = combined
        return r

    def respond_hadamard(self, idx: int, pad: Bits) -> Bits:
        return hadamard_sample(self._take(idx), pad, self.oracle, self.rng)

    # -- output -----------------------------------------------------------
    def decode_outputs(
        self, indices: list[int], revealed: list[KeyPair]
    ) -> tuple[PlusStateVector, int] | None:
        gs = [self._take(i) for i in indices]
        return decode_output(gs, revealed)


class ConjugateSession(ServerSession):
    """Complex-conjugate attack: conjugated diagonal ops + X-corrected decode."""

    def tweak_phases(self, idx, t0, t1):
        return (-t0) % 8, (-t1) % 8

    def tweak_reveal(self, idx, revealed):
        return (-revealed) % 8

    def decode_outputs(self, indices, revealed):
        # the held state decodes to |+_{-theta}>; X (branch-phase swap) fixes it
        for i in indices:
            g = self.gadgets[i]
            self.gadgets[i] = tuple.__new__(Gadget, (g.keys, g.t1, g.t0, g.parts))
        return super().decode_outputs(indices, revealed)


class PhaseOffsetSession(ServerSession):
    """Rotate by f(theta0)/g(theta1) instead of the decrypted phases."""

    def __init__(self, oracle, rng, kappa, f: Callable[[int], int], g: Callable[[int], int]):
        super().__init__(oracle, rng, kappa)
        self._f, self._g = f, g

    def tweak_phases(self, idx, t0, t1):
        return self._f(t0) % 8, self._g(t1) % 8


class RandomResponseSession(ServerSession):
    """Uniform-random bitstrings at every measurement hook (negative control).

    State bookkeeping stays honest so response widths are well-defined and
    later hooks still find their gadgets.
    """

    def respond_std(self, indices):
        out = []
        for idx in indices:
            width = self._take(idx).keys.x0.width
            out.append(tuple.__new__(Bits, (self.rng.getrandbits(width), width)))
        return out

    def respond_combine(self, base, other, table):
        super().respond_combine(base, other, table)
        return tuple.__new__(Bits, (self.rng.getrandbits(self.kappa), self.kappa))

    def respond_hadamard(self, idx, pad):
        g = self._take(idx)
        width = g.keys.x0.width + self.kappa
        return Bits(self.rng.getrandbits(width), width)

    def decode_outputs(self, indices, revealed):
        return None


class CorruptSetupSession(ServerSession):
    """Fault injection: flips the low bit of the first setup image."""

    _done = False

    def setup_block(self, idx, claw):
        y = super().setup_block(idx, claw)
        if not self._done:
            self._done = True
            y = Bits(y.value ^ 1, y.width)
        return y


class GhzSession(ServerSession):
    """Branch-number attack: merge all output gadgets into one two-branch
    register (|x0..x0> + e^{i phi}|x1..x1>)/sqrt2 when the branch-number test
    starts revealing phases.

    Combines decrypt deterministically (branches stay aligned), the
    complement standard-basis measurement collapses everything to one branch,
    and a post-collapse Hadamard request can only be answered uniformly —
    failing the parity check half the time.  Honest in every other round.
    """

    def __init__(self, oracle, rng, kappa):
        super().__init__(oracle, rng, kappa)
        self.outputs: dict[int, KeyPair] = {}  # each merged output's own key pair
        self.joint: Gadget | None = None  # the register's phases; keys come per answer
        self.collapsed: int | None = None
        self.folded: list[int] = []

    def _merge(self) -> None:
        t0 = t1 = 0
        for i in sorted(i for i in self.gadgets if i >= 1):
            g = self.gadgets.pop(i)
            self.outputs[i] = g.keys
            t0, t1 = t0 + g.t0, t1 + g.t1
        self.joint = Gadget(None, t0 % 8, t1 % 8)

    def _register(self, order: list[int]) -> Gadget:
        """The joint register over the outputs in `order`, its branches
        aligned: each branch key concatenates the outputs' same-subscript keys."""
        first, *rest = order
        keys = merge_keys(self.outputs[first], [(self.outputs[j], 0) for j in rest])
        return self.joint._replace(keys=keys)

    def dephase_reveal(self, idx, revealed):
        if idx >= 1:
            if self.joint is None:
                self._merge()
            self.joint = dephase(self.joint, revealed)
        else:
            super().dephase_reveal(idx, revealed)

    def _collapse(self) -> int:
        if self.collapsed is None:
            self.collapsed = 0 if self.rng.random() < 0.5 else 1
        return self.collapsed

    def respond_std(self, indices):
        out = []
        for idx in indices:
            if idx in self.outputs:
                order = self.folded if self.folded and idx == self.folded[0] else [idx]
                out.append(self._register(order).keys[self._collapse()])
            else:
                out.append(std_sample(self._take(idx), self.rng)[1])
        return out

    def respond_combine(self, base, other, table):
        if base not in self.outputs:
            return super().respond_combine(base, other, table)
        if not self.folded:
            self.folded = [base]
        key = self.outputs[self.folded[0]].x0.concat(self.outputs[other].x0)
        hit = decrypt_row(table, key, self.oracle)
        self.folded.append(other)
        return tuple.__new__(Bits, (hit[1] if hit else 0, self.kappa))

    def respond_hadamard(self, idx, pad):
        if idx not in self.outputs:
            return super().respond_hadamard(idx, pad)
        g = self._register(self.folded or [idx])
        if self.collapsed is not None:
            # single branch left: Hadamard outcome is uniform
            width = g.keys.x0.width + self.kappa
            return Bits(self.rng.getrandbits(width), width)
        return hadamard_sample(g, pad, self.oracle, self.rng)


# -- strategy selection by name + JSON blob (CLI / parallel workers) --------

def parse_phase_fn(spec: str) -> Callable[[int], int]:
    """Phase-function grammar: identity | negate | shift:k | bump:t | const:c
    | map:v0,...,v7 (all arithmetic mod 8)."""
    if not isinstance(spec, str):
        raise ValueError(f"phase function must be a string, not {spec!r}")
    if spec == "identity":
        return lambda t: t
    if spec == "negate":
        return lambda t: (-t) % 8
    head, _, arg = spec.partition(":")
    if head == "shift":
        k = int(arg)
        return lambda t: (t + k) % 8
    if head == "bump":
        tgt = int(arg) % 8
        return lambda t: (t + (1 if t % 8 == tgt else 0)) % 8
    if head == "const":
        c = int(arg) % 8
        return lambda t: c
    if head == "map":
        table = tuple(int(v) % 8 for v in arg.split(","))
        if len(table) != 8:
            raise ValueError("map needs exactly 8 values")
        return lambda t: table[t % 8]
    raise ValueError(f"unknown phase function {spec!r}")


class Strategy(NamedTuple):
    """One server strategy; build it with ``parse_strategy``, so that ``spec``
    always describes the sessions ``begin`` starts."""

    name: str
    spec: dict
    session_cls: type[ServerSession]
    args: tuple = ()

    def begin(self, oracle, rng: Random, kappa: int) -> ServerSession:
        return self.session_cls(oracle, rng, kappa, *self.args)


#: strategy name -> session class; ``always_lose`` is an alias
_SESSIONS: dict[str, type[ServerSession]] = {
    "honest": ServerSession,
    "conjugate": ConjugateSession,
    "phase_offset": PhaseOffsetSession,
    "random_response": RandomResponseSession,
    "always_lose": RandomResponseSession,
    "corrupt_setup": CorruptSetupSession,
    "ghz_collapse": GhzSession,
}


def parse_strategy(spec: dict | str) -> Strategy:
    """Build a Strategy from a name or a CLI-style blob, e.g.
    {"attack": "phase_offset", "f": "shift:1", "g": "identity"}.  The
    strategy's ``spec`` is the blob's canonical form, which reports echo.
    Raises ValueError on an unknown name or on a key the strategy does not
    take (only ``phase_offset`` takes ``f`` and ``g``)."""
    if isinstance(spec, str):
        spec = {"attack": spec}
    name = spec.get("attack", "honest")
    cls = _SESSIONS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown strategy {name!r}")
    unknown = set(spec) - ({"attack", "f", "g"} if cls is PhaseOffsetSession else {"attack"})
    if unknown:
        raise ValueError(f"strategy {name!r} takes no key {sorted(unknown)}")
    if cls is PhaseOffsetSession:
        f, g = spec.get("f", "identity"), spec.get("g", "identity")
        fns = (parse_phase_fn(f), parse_phase_fn(g))
        return Strategy(name, {"attack": name, "f": f, "g": g}, cls, fns)
    return Strategy(name, {"attack": name}, cls)


# -- analytic expectation oracle ---------------------------------------------

def expected_inph_rates(f: Callable[[int], int], g: Callable[[int], int]) -> dict[str, float]:
    """Exact in-phase-test rates for a phase-offset server, averaged over the
    protocol's uniform theta, in the large-kappa limit (d-suffix failures
    ignored).

    Phase injection always produces branch phases (0, theta), which the
    attack turns into (f(0), g(theta)).  The client reveals theta - delta,
    so the residual relative phase is g(theta) - f(0) - theta + delta and
    the parity-0 probability is cos^2(residual * pi/8).
    """
    # count residuals as integers first so uniform-attack cases come out
    # exact in floating point (8 equal terms collapse to one product)
    counts = [0] * 8
    for theta in range(8):
        counts[(g(theta) - f(0) - theta) % 8] += 1
    win1 = sum(n * COS2_TABLE[(r + 1) % 8] for r, n in enumerate(counts) if n) / 8
    fail0 = sum(n * (1 - COS2_TABLE[r]) for r, n in enumerate(counts) if n) / 8
    fail4 = sum(n * COS2_TABLE[(r + 4) % 8] for r, n in enumerate(counts) if n) / 8
    return {
        "quiz_win": win1 / 3,  # delta=1 happens 1/3 of quiz rounds; parity 0 wins
        "delta0_fail": fail0,  # delta=0 passes on parity 0
        "delta4_fail": fail4,  # delta=4 passes on parity 1
        "delta_fail": (fail0 + fail4) / 2,
        "delta1_win": win1,
    }
