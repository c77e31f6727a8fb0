"""Keyed encryption rows and lookup tables.

A ciphertext under key k is the pair of pairs

    (R,  H(R  || k) + p)        -- fresh pad R, plaintext p masked by the oracle
    (R', H(R' || k))            -- fresh pad R', key-authentication tag

where + is the table's group operation: Z8 (phases, 3-bit masks) or bitwise
XOR on kappa bits (combine targets).  A lookup table is a shuffled list of
such rows under different keys; whoever holds one of the keys finds their row
by recomputing the tag and unmasks their plaintext, and learns nothing about
the other rows (each mask is an independent oracle entry).

Every table has four rows, one per pair of branch subscripts, and the build
path is written for that shape: four keys and plaintexts as literal lists,
four ``encrypt`` calls by name and four tags unpacked for the cross-clean.
Two table shapes are used upstream:

* phase table — 4 rows keyed helper-branch-key || gadget-branch-key, the
  plaintext being the gadget branch's phase (helper branch irrelevant);
* combine table — 4 rows keyed a-branch-key || b-branch-key, plaintext r0
  when the branch subscripts agree and r1 when they differ (r0 != r1).

Tag collisions are a real event at desk-scale kappa; decrypt_row reports
them (TagCollision) instead of guessing, and the table builders resample
pads until the intended keys decrypt cleanly (see _build_table) so that the
honest path never trips over one.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .bits import Bits, token_field
from .oracle import RandomOracle, shuffle

Z8 = "Z8"
XOR = "XOR"


class TagCollision(Exception):
    """More than one row's authentication tag matched the key."""


class Ciphertext(NamedTuple):
    pad_r: int
    masked: int  # Z8 element, or a kappa-bit XOR target
    pad_rp: int
    tag: int


class LookupTable(NamedTuple):
    rows: tuple[Ciphertext, ...]
    group: str  # Z8 | XOR
    kappa: int  # width of every pad, tag and XOR plaintext


# Rows hold plain ints, kappa bits wide, and oracle inputs are pad || key as
# (value, width) pairs built with int shifts: this is the hot path of every
# table build and lookup.


def encrypt(
    key: tuple[int, int], p: int, group: str, kappa: int, oracle: RandomOracle, rng: Random
) -> Ciphertext:
    """One row: plaintext p masked under key (a (value, width) pair), plus
    the key-auth tag; group and p are checked before a pad is drawn."""
    kv, kw = key
    width = kappa + kw
    query = oracle.query
    if group == Z8:
        assert isinstance(p, int) and 0 <= p < 8, f"Z8 plaintext out of range: {p}"
        pad_r = rng.getrandbits(kappa)
        masked = (query(((pad_r << kw) | kv, width), 3) + p) % 8
    elif group == XOR:
        assert isinstance(p, int) and 0 <= p < 1 << kappa, "XOR plaintext must be kappa bits"
        pad_r = rng.getrandbits(kappa)
        masked = query(((pad_r << kw) | kv, width), kappa) ^ p
    else:
        raise ValueError(f"unknown group {group!r}")
    pad_rp = rng.getrandbits(kappa)
    return tuple.__new__(Ciphertext, (pad_r, masked, pad_rp, query(((pad_rp << kw) | kv, width), kappa)))


def decrypt_row(table: LookupTable, key: tuple[int, int], oracle: RandomOracle) -> tuple[int, int] | None:
    """Find the unique row opened by `key` (a (value, width) pair) and its
    plaintext; None if none, TagCollision if several.

    Every row is checked (a false tag match has probability 2^-kappa per row,
    observable at small kappa), so the collision case is detected rather than
    silently resolved by row order.
    """
    kv, kw = key
    rows, group, kappa = table
    width = kappa + kw
    query = oracle.query
    found = None
    for idx, (pad_r, masked, pad_rp, tag) in enumerate(rows):
        if query(((pad_rp << kw) | kv, width), kappa) == tag:
            if found is not None:
                raise TagCollision(f"key opens rows {found[0]} and {idx}")
            inp = ((pad_r << kw) | kv, width)
            if group == Z8:
                found = (idx, (masked - query(inp, 3)) % 8)
            else:
                found = (idx, masked ^ query(inp, kappa))
    return found


def _cross_clean(rows: list[Ciphertext], keys: list[int], kw: int, oracle: RandomOracle, kappa: int) -> bool:
    """True iff no intended key (kw bits wide) falsely opens another key's row."""
    query = oracle.query
    width = kappa + kw
    (_, _, p0, t0), (_, _, p1, t1), (_, _, p2, t2), (_, _, p3, t3) = rows
    tags = ((p0 << kw, t0), (p1 << kw, t1), (p2 << kw, t2), (p3 << kw, t3))
    for i, kv in enumerate(keys):
        for j, (head, tag) in enumerate(tags):
            if i != j and query((head | kv, width), kappa) == tag:
                return False
    return True


def _build_table(
    keys: list[int], kw: int, plaintexts: list[int], group: str, kappa: int, oracle: RandomOracle, rng: Random
) -> LookupTable:
    """Encrypt rows under the kw-bit keys, resampling pads until each
    intended key opens exactly its own row.

    A cross-row false tag match happens with probability ~ 12 * 2^-kappa per
    attempt; at cryptographic kappa that is negligible, but at desk scale it
    would make the honest server mis-decrypt (or abort on TagCollision) often
    enough to swamp the protocol's 2^-kappa failure budget.  The client holds
    all four keys, so she simply checks and rebuilds.
    """
    k0, k1, k2, k3 = keys
    p0, p1, p2, p3 = plaintexts
    for _ in range(4096):
        rows = [
            encrypt((k0, kw), p0, group, kappa, oracle, rng),
            encrypt((k1, kw), p1, group, kappa, oracle, rng),
            encrypt((k2, kw), p2, group, kappa, oracle, rng),
            encrypt((k3, kw), p3, group, kappa, oracle, rng),
        ]
        if _cross_clean(rows, keys, kw, oracle, kappa):
            shuffle(rng, rows)
            return tuple.__new__(LookupTable, (tuple(rows), group, kappa))
    raise RuntimeError("could not build a collision-free table (kappa too small?)")


def _cross_keys(k_a: tuple[Bits, Bits], k_b: tuple[Bits, Bits]) -> tuple[list[int], int]:
    """The four keys a-branch || b-branch, in the order (0,0), (0,1), (1,0),
    (1,1), and their common width."""
    (a0, wa), (a1, _) = k_a
    (b0, wb), (b1, _) = k_b
    a0, a1 = a0 << wb, a1 << wb
    return [a0 | b0, a0 | b1, a1 | b0, a1 | b1], wa + wb


def make_phase_table(
    helper_k: tuple[Bits, Bits],
    k_i: tuple[Bits, Bits],
    theta_i: tuple[int, int],
    kappa: int,
    oracle: RandomOracle,
    rng: Random,
) -> LookupTable:
    """Four rows: helper-branch || gadget-branch -> that gadget branch's phase."""
    assert helper_k[0] != helper_k[1] and k_i[0] != k_i[1], "branch keys must be distinct"
    keys, kw = _cross_keys(helper_k, k_i)
    t0, t1 = theta_i[0] % 8, theta_i[1] % 8
    return _build_table(keys, kw, [t0, t1, t0, t1], Z8, kappa, oracle, rng)


def make_combine_table(
    k_a: tuple[Bits, Bits],
    k_b: tuple[Bits, Bits],
    r0: tuple[int, int],
    r1: tuple[int, int],
    kappa: int,
    oracle: RandomOracle,
    rng: Random,
) -> LookupTable:
    """Four rows: a-branch || b-branch -> r0 on equal subscripts, r1 on
    unequal; the targets are kappa-bit (value, width) pairs."""
    if r0 == r1:
        raise ValueError("combine targets r0 and r1 must differ")
    assert r0[1] == r1[1] == kappa, "combine targets must be kappa bits"
    keys, kw = _cross_keys(k_a, k_b)
    return _build_table(keys, kw, [r0[0], r1[0], r1[0], r0[0]], XOR, kappa, oracle, rng)


def table_payload(table: LookupTable) -> str:
    """The table's canonical JSON text (transcript wire format): each row a
    ``%`` template over (pad_r, masked, pad_rp, tag), every field a kappa-bit
    token (``bits.token_field``) but the Z8 ``ct``, an int."""
    token = '"%s"' % token_field(table.kappa)
    row = '{"R":%s,"ct":%s,"Rp":%s,"tag":%s}' % (token, "%d" if table.group == Z8 else token, token, token)
    return '{"rows":[%s],"group":"%s"}' % (",".join([row % r for r in table.rows]), table.group)
