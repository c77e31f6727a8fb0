"""Exact state engine for two-branch gadgets with Z8 phases.

A gadget is the server-side state (1/sqrt2)(e^{i t0 pi/4}|x0> +
e^{i t1 pi/4}|x1>): two branch keys and two phases t0, t1 in Z8.  Honest
execution and every built-in attack stay inside this family exactly, because
every operation multiplies a branch by an 8th root of unity, which adds to
its phase mod 8.  So there is no general statevector and no float amplitude
here, just (keys, t0, t1), and nothing to renormalise.

Folds stay linear-time at any L.  A folded register keeps its base key pair
(whose first kappa bits key every combine table) and the chain of key pairs
merged into it, each with its reply's orientation; ``materialize`` builds
the full key pair once, in one pass (``merge_keys``), when a measurement or
the decode needs it.

Measurement sampling is exact, not approximate:

* standard basis — each branch with probability 1/2;
* padded Hadamard basis — measuring the state over w_b = x_b || H(pad||x_b)
  in the Hadamard basis gives outcome d with probability
  |e^{i t0 pi/4} (-1)^{d.w0} + e^{i t1 pi/4} (-1)^{d.w1}|^2 / 2^(n+1), which
  factorizes into a two-point parity distribution (the class
  c = d.(w0 xor w1), with Pr[c=0] = COS2_TABLE[(t1 - t0) % 8]) times a
  uniform choice within the class.  ``hadamard_sample`` implements the
  factorized law; ``enumerate_hadamard_distribution`` is the brute-force
  float statevector enumeration kept as an independent reference for tests
  and selftest.

Conjugating a gadget negates both phases, so t1 - t0 becomes t0 - t1.
COS2_TABLE is symmetric under k <-> 8 - k, so every observable probability
is the *same float* for a gadget and its conjugate — runs that differ only
by conjugation make bit-identical random decisions from the same RNG
stream.  That exactness is load-bearing for the conjugate-attack
equivalence tests.
"""

from __future__ import annotations

import math
from random import Random
from typing import NamedTuple

from .bits import Bits
from .oracle import RandomOracle
from .tables import LookupTable, decrypt_row

_SQ = math.sqrt(0.5)

# e^{i k pi/4} for k = 0..7, from one sqrt(0.5) literal: ROOT8[(8-k) % 8] is
# the exact complex conjugate of ROOT8[k], component by component.
ROOT8 = (
    complex(1, 0),
    complex(_SQ, _SQ),
    complex(0, 1),
    complex(-_SQ, _SQ),
    complex(-1, 0),
    complex(-_SQ, -_SQ),
    complex(0, -1),
    complex(_SQ, -_SQ),
)

# |<+_a|+_b>|^2 as a function of (a - b) mod 8; exact 0.0 at orthogonality
# and symmetric under delta <-> 8 - delta by construction.
_C8 = math.cos(math.pi / 8) ** 2
_S8 = math.sin(math.pi / 8) ** 2
COS2_TABLE = (1.0, _C8, 0.5, _S8, 0.0, _S8, 0.5, _C8)


class TableMismatch(Exception):
    """A lookup table did not decrypt consistently under the expected keys."""


class KeyPair(NamedTuple):
    x0: Bits
    x1: Bits


class Gadget(NamedTuple):
    keys: KeyPair  # a folded register's base pair until ``materialize``
    t0: int  # branch phases in units of pi/4, in 0..7
    t1: int
    parts: tuple | None = None  # folded-in (earlier parts, key pair, crossed), newest first


class PlusStateVector(NamedTuple):
    thetas: tuple[int, ...]


def make_gadget(keys: KeyPair, phases: tuple[int, int] = (0, 0)) -> Gadget:
    assert keys[0] != keys[1], "branch keys must be distinct"
    return tuple.__new__(Gadget, (keys, phases[0] % 8, phases[1] % 8, None))


def decrypt_branch_phases(
    g: Gadget, table: LookupTable, helper_key_in_hand: Bits, oracle: RandomOracle
) -> tuple[int, int]:
    """What the server learns per branch from a phase table: (theta0, theta1)."""
    out = []
    hv, hw = helper_key_in_hand
    for x_b in g.keys:
        hit = decrypt_row(table, ((hv << x_b.width) | x_b.value, hw + x_b.width), oracle)
        if hit is None:
            raise TableMismatch("phase table has no row for a branch key")
        out.append(hit[1])
    return out[0], out[1]


def rotate_branches(g: Gadget, theta0: int, theta1: int) -> Gadget:
    """Diagonal phase op: branch b picks up e^{i theta_b pi/4}."""
    return tuple.__new__(Gadget, (g.keys, (g.t0 + theta0) % 8, (g.t1 + theta1) % 8, g.parts))


def dephase(g: Gadget, revealed: int) -> Gadget:
    """Rotate branch 1 by e^{-i revealed pi/4} (the server's reaction to a
    revealed relative phase; residual relative phase = old - revealed)."""
    return tuple.__new__(Gadget, (g.keys, g.t0, (g.t1 - revealed) % 8, g.parts))


def std_sample(g: Gadget, rng: Random) -> tuple[int, Bits]:
    """Standard-basis measurement: (b, x_b) with Pr[b] = 1/2."""
    b = 0 if rng.random() < 0.5 else 1
    return b, g.keys[b]


def branch_words(keys: KeyPair, pad: Bits, oracle: RandomOracle, kappa: int) -> tuple[Bits, Bits]:
    """w_b = x_b || H(pad || x_b, kappa) — the padded-Hadamard words."""
    words = []
    for x in keys:
        h = oracle.query(((pad.value << x.width) | x.value, pad.width + x.width), kappa)
        words.append(Bits((x.value << kappa) | h, x.width + kappa))
    return words[0], words[1]


def parity_probs(g: Gadget) -> tuple[float, float]:
    """(Pr[c=0], Pr[c=1]) for the Hadamard parity class c = d.(w0 xor w1):
    cos^2 and sin^2 of (t1 - t0) pi/8, exactly 0 or 1 at the poles."""
    rel = g.t1 - g.t0
    return COS2_TABLE[rel % 8], COS2_TABLE[(rel + 4) % 8]


def enumerate_hadamard_distribution(g: Gadget, pad: Bits, oracle: RandomOracle, kappa: int) -> dict[int, float]:
    """Brute-force oracle: full 2^(|x|+kappa) Hadamard-basis distribution.

    Expands the complex amplitudes a_b = e^{i t_b pi/4}/sqrt2 over every
    outcome d; exponential, for tests and selftest only.
    """
    w0, w1 = branch_words(g.keys, pad, oracle, kappa)
    n = w0.width
    a0, a1 = ROOT8[g.t0] * _SQ, ROOT8[g.t1] * _SQ
    out: dict[int, float] = {}
    for d in range(1 << n):
        s0 = -1.0 if (d & w0.value).bit_count() & 1 else 1.0
        s1 = -1.0 if (d & w1.value).bit_count() & 1 else 1.0
        amp = a0 * s0 + a1 * s1
        out[d] = (amp.real * amp.real + amp.imag * amp.imag) / (1 << n)
    return out


def sampler_distribution(g: Gadget, pad: Bits, oracle: RandomOracle, kappa: int) -> dict[int, float]:
    """The exact law implemented by ``hadamard_sample`` (class weight times
    uniform-in-class), for direct comparison against the enumeration oracle."""
    w0, w1 = branch_words(g.keys, pad, oracle, kappa)
    delta = w0.xor(w1)
    assert not delta.is_zero
    p = parity_probs(g)
    n = w0.width
    half = 1 << (n - 1)
    return {d: p[(d & delta.value).bit_count() & 1] / half for d in range(1 << n)}


def hadamard_sample(g: Gadget, pad: Bits, oracle: RandomOracle, rng: Random) -> Bits:
    """Padded Hadamard-basis measurement outcome d (gadget consumed).

    Exact two-step draw: parity class c with the two-point law, then a
    uniform element of {d : d.(w0 xor w1) = c} — a uniform draw with the
    pivot bit (lowest set bit of the xor) flipped on parity mismatch.
    """
    w0, w1 = branch_words(g.keys, pad, oracle, pad.width)
    delta = w0.xor(w1)
    assert not delta.is_zero, "branch words collide (impossible for distinct keys)"
    c = 1 if rng.random() < parity_probs(g)[1] else 0
    d = Bits(rng.getrandbits(delta.width), delta.width)
    if d.parity_with(delta) != c:
        d = Bits(d.value ^ (delta.value & -delta.value), d.width)
    return d


def _join(xs: list[Bits]) -> Bits:
    """The left fold of ``Bits.concat`` over `xs`, in one linear pass over
    their fixed-width binary digits (``bin(v | 1 << w)[3:]`` is v's w digits)."""
    digits = "".join([bin(x.value | 1 << x.width)[3:] for x in xs])
    return Bits(int(digits, 2) if digits else 0, len(digits))


def merge_keys(base: KeyPair, parts: list[tuple[KeyPair, int]]) -> KeyPair:
    """The combine rule, applied to each (kb, crossed) of `parts` in order:
    the merged register's key pair pairs equal branch subscripts
    (x0 || kb.x0, x1 || kb.x1), or crossed ones (x0 || kb.x1, x1 || kb.x0).
    Builds the whole register in one pass, not one concat per part."""
    x0s, x1s = [base.x0], [base.x1]
    for kb, crossed in parts:
        x0s.append(kb[crossed])
        x1s.append(kb[1 - crossed])
    return KeyPair(_join(x0s), _join(x1s))


def materialize(g: Gadget) -> Gadget:
    """`g` with its full key pair: a folded register's parts merged into its
    base pair (``merge_keys``); an unfolded gadget as it is."""
    parts, node = [], g.parts
    while node is not None:
        node, kb, crossed = node
        parts.append((kb, crossed))
    return Gadget(merge_keys(g.keys, parts[::-1]), g.t0, g.t1) if parts else g


def combine_step(
    g_a: Gadget, g_b: Gadget, table: LookupTable, oracle: RandomOracle, rng: Random
) -> tuple[Bits, Gadget]:
    """Merge two gadgets through a combine table.

    The server decrypts the table in superposition and measures the result
    register: outcome r0 keeps equal-subscript branch pairs (x0a x0b / x1a
    x1b), outcome r1 the crossed pairs (``merge_keys``), each with probability
    1/2; the phases of the paired branches add.
    Table rows are keyed by the *first kappa bits* of the a-side branch (the
    client builds them from the base gadget's keys), which are read off
    g_a's base pair.  The merged gadget keeps that base pair and chains
    g_b's keys onto its parts; its full key pair is built only by
    ``materialize``, when the register is measured or decoded.
    """
    kappa = table.kappa
    rows = []
    for x_a in g_a.keys:
        head = x_a.value >> (x_a.width - kappa)  # first kappa bits
        for x_b in g_b.keys:
            hit = decrypt_row(table, ((head << x_b.width) | x_b.value, kappa + x_b.width), oracle)
            if hit is None:
                raise TableMismatch("combine table has no row for a branch pair")
            rows.append(hit[1])
    r00, r01, r10, r11 = rows
    if r00 != r11 or r01 != r10 or r00 == r01:
        raise TableMismatch("table decryptions do not form a combine pattern")

    crossed = int(rng.random() >= 0.5)
    tb = (g_b.t0, g_b.t1)
    combined = tuple.__new__(
        Gadget, (g_a.keys, (g_a.t0 + tb[crossed]) % 8, (g_a.t1 + tb[1 - crossed]) % 8, (g_a.parts, g_b.keys, crossed))
    )
    return tuple.__new__(Bits, (r01 if crossed else r00, kappa)), combined


def decode_output(gadgets: list[Gadget], revealed_keys: list[KeyPair]) -> tuple[PlusStateVector, int]:
    """Honest decode: each theta = t1 - t0, yielding the product state
    |+_theta(1)> x ... times the global phase e^{i k pi/4}, where k is the sum
    of the branch-0 phases mod 8.

    Gadget branch order must match the revealed key pairs (an X-corrected
    server swaps its branches first).
    """
    if len(gadgets) != len(revealed_keys):
        raise ValueError("gadget/key count mismatch")
    thetas = []
    phase = 0
    for g, keys in zip(gadgets, revealed_keys):
        if g.keys != tuple(keys):
            raise TableMismatch("gadget keys do not match revealed pair")
        thetas.append((g.t1 - g.t0) % 8)
        phase += g.t0
    return PlusStateVector(tuple(thetas)), phase % 8


def fidelity_ideal(decoded: PlusStateVector, client_thetas: list[int] | tuple[int, ...]) -> float:
    """prod_i |<+_client(i) | +_decoded(i)>|^2 = prod_i cos^2(delta_i pi/8)."""
    if len(decoded.thetas) != len(client_thetas):
        raise ValueError("length mismatch")
    f = 1.0
    for a, b in zip(decoded.thetas, client_thetas):
        f *= COS2_TABLE[(a - b) % 8]
    return f
