"""Mock trapdoor claw-free function pair (hidden-shift instantiation).

The protocol needs a 2-to-1 function family f(b, x) with a trapdoor: the
client can invert images, the server cannot pair up the two preimages of an
image ("claw") by itself.  Here that is modeled, not assumed: pick a secret
nonzero shift s and an injective map G, and let

    f(b, x) = G(x XOR b*s),        claws are exactly (x, x XOR s).

G(u) = P(u || 0^kappa) with P a 4-round Feistel permutation on 2*kappa bits
(``_permute`` writes the four rounds out) whose round rnd applies a seeded PRF
to (rnd << kappa) | half, so G is injective and a random-looking 2*kappa-bit
image tells you nothing structural.  The trapdoor inverts P and strips b*s; a
string outside G's image (random y: all but a 2^-kappa fraction) decodes to
the invalid marker.

This instantiation is functionally exact (2-to-1, trapdoor round-trip, the
check predicate is the decode biconditional) but NOT computationally
claw-free — the public key carries the shift because public evaluation needs
it.  Claw-freeness is enforced by interface discipline instead: server-side
strategy code never receives key material, only honest post-measurement
branch data.

In this mock ``keygen`` returns one ``NtcfKey``, passed as the public key
(``pk``) and as the trapdoor (``sk``) alike.  It carries a memo of Feistel
round outputs, as client and server share one oracle memo: ``dec`` of an
honest image reuses ``eval_claw``'s four rounds.  The memo caches a pure
function of the key, so no output changes.

The protocol imports these module functions directly (``keygen``,
``eval_claw``, ``dec``, ``claw_partner``; ``chk`` for checks), so an
LWE-backed scheme would replace them here, behind the same signatures.
"""

from __future__ import annotations

from hashlib import blake2b
from random import Random
from typing import NamedTuple

from .bits import Bits
from .oracle import _stream_bits, prf_key, randbelow, randbytes


class NtcfKey(NamedTuple):
    kappa: int
    shift: Bits  # functionally public in this mock; see module docstring
    prf: blake2b  # blake2b keyed by the permutation seed, built once per key
    rounds: dict[int, int]  # Feistel round memo


class ClawResult(NamedTuple):
    y: Bits
    x0: Bits
    x1: Bits


def _permute(key: NtcfKey, u: int) -> int:
    """P on 2*kappa-bit ints, each half updated in place, not swapped."""
    kappa, _, prf, rounds = key
    width = kappa + 8
    left, right = u >> kappa, u & ((1 << kappa) - 1)
    out = rounds.get(right)  # round 0's input (0 << kappa) | right
    if out is None:
        out = rounds[right] = _stream_bits(prf, (right, width), kappa)
    left ^= out
    inp = (1 << kappa) | left
    out = rounds.get(inp)
    if out is None:
        out = rounds[inp] = _stream_bits(prf, (inp, width), kappa)
    right ^= out
    inp = (2 << kappa) | right
    out = rounds.get(inp)
    if out is None:
        out = rounds[inp] = _stream_bits(prf, (inp, width), kappa)
    left ^= out
    inp = (3 << kappa) | left
    out = rounds.get(inp)
    if out is None:
        out = rounds[inp] = _stream_bits(prf, (inp, width), kappa)
    return (left << kappa) | (right ^ out)


def _unpermute(key: NtcfKey, y: int) -> int:
    kappa, _, prf, rounds = key
    width = kappa + 8
    left, right = y >> kappa, y & ((1 << kappa) - 1)
    for rnd in (3, 2, 1, 0):
        inp = (rnd << kappa) | left
        out = rounds.get(inp)
        if out is None:
            out = rounds[inp] = _stream_bits(prf, (inp, width), kappa)
        left, right = right ^ out, left
    return (left << kappa) | right


def keygen(kappa: int, rng: Random) -> NtcfKey:
    """Sample a permutation seed and a nonzero hidden shift."""
    if kappa < 2:
        raise ValueError("kappa must be >= 2 (shift space degenerate below that)")
    perm_seed = randbytes(rng, 32)  # drawn before the shift, as the golden digests pin
    shift = tuple.__new__(Bits, (1 + randbelow(rng, (1 << kappa) - 1), kappa))
    return tuple.__new__(NtcfKey, (kappa, shift, prf_key(perm_seed), {}))


def eval_claw(pk: NtcfKey, rng: Random) -> ClawResult:
    """Honest post-measurement result of evaluating f on a uniform superposition.

    Measuring the image register of sum_x |b, x, f(b,x)> yields a uniform
    image y together with the two-preimage register (|x0> + |x1>)/sqrt(2);
    classically that is y plus the claw pair, which the caller turns into a
    two-branch gadget.
    """
    kappa = pk.kappa
    u = rng.getrandbits(kappa)
    new = tuple.__new__
    y = new(Bits, (_permute(pk, u << kappa), 2 * kappa))
    return new(ClawResult, (y, new(Bits, (u, kappa)), new(Bits, (u ^ pk.shift.value, kappa))))


def dec(sk: NtcfKey, b: int, y: Bits) -> Bits | None:
    """Trapdoor decode of branch b's preimage; None marks an invalid image."""
    kappa = sk.kappa
    if y.width != 2 * kappa:
        return None
    u = _unpermute(sk, y.value)
    if u & ((1 << kappa) - 1):
        return None
    x = tuple.__new__(Bits, (u >> kappa, kappa))
    return claw_partner(sk, x) if b else x


def claw_partner(sk: NtcfKey, x: Bits) -> Bits:
    """The other preimage of x's image: claws are exactly (x, x XOR s), so
    claw_partner(sk, dec(sk, 0, y)) == dec(sk, 1, y) for every valid y."""
    return tuple.__new__(Bits, (x.value ^ sk.shift.value, x.width))


def chk(pk: NtcfKey, b: int, x: Bits, y: Bits) -> bool:
    """Public check predicate: true exactly when dec(sk, b, y) = x."""
    kappa = pk.kappa
    if x.width != kappa or y.width != 2 * kappa:
        return False
    u = x.value ^ pk.shift.value if b else x.value
    return _permute(pk, u << kappa) == y.value
