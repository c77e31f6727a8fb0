"""Keyed encryption rows and lookup tables.

A ciphertext under key k is the pair of pairs

    (R,  H(R  || k) + p)        -- fresh pad R, plaintext p masked by the oracle
    (R', H(R' || k))            -- fresh pad R', key-authentication tag

where + is the table's group operation: Z8 (phases, 3-bit masks) or bitwise
XOR on kappa bits (combine targets).  A lookup table is a shuffled list of
such rows under different keys; whoever holds one of the keys finds their row
by recomputing the tag and unmasks their plaintext, and learns nothing about
the other rows (each mask is an independent oracle entry).

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

from .bits import Bits, parse_token
from .oracle import OracleView, RandomOracle

Oracle = RandomOracle | OracleView

Z8 = "Z8"
XOR = "XOR"


class TagCollision(Exception):
    """More than one row's authentication tag matched the key."""


class Ciphertext(NamedTuple):
    pad_r: Bits
    masked: int | Bits  # int in Z8 tables, Bits(kappa) in XOR tables
    pad_rp: Bits
    tag: Bits


class LookupTable(NamedTuple):
    rows: tuple[Ciphertext, ...]
    group: str  # Z8 | XOR


# Oracle inputs are pad || key as plain (value, width) pairs, built with int
# shifts: this is the hot path of every table build and lookup.


def _mask(key: tuple[int, int], pad: Bits, group: str, kappa: int, oracle: Oracle) -> int | Bits:
    kv, kw = key
    inp = ((pad.value << kw) | kv, pad.width + kw)
    if group == Z8:
        return oracle.query(inp, 3).value
    return oracle.query(inp, kappa)


def encrypt(key: Bits, p: int | Bits, group: str, kappa: int, oracle: Oracle, rng: Random) -> Ciphertext:
    """One row: plaintext p masked under key, plus the key-auth tag."""
    if group == Z8:
        assert isinstance(p, int) and 0 <= p < 8, f"Z8 plaintext out of range: {p}"
    elif group == XOR:
        assert isinstance(p, Bits) and p.width == kappa, "XOR plaintext must be kappa bits"
    else:
        raise ValueError(f"unknown group {group!r}")
    pad_r = Bits(rng.getrandbits(kappa), kappa)
    pad_rp = Bits(rng.getrandbits(kappa), kappa)
    m = _mask(key, pad_r, group, kappa, oracle)
    masked = (m + p) % 8 if group == Z8 else m.xor(p)
    tag = oracle.query(((pad_rp.value << key.width) | key.value, kappa + key.width), kappa)
    return Ciphertext(pad_r, masked, pad_rp, tag)


def decrypt_row(
    table: LookupTable, key: tuple[int, int], oracle: Oracle, kappa: int
) -> tuple[int, int | Bits] | None:
    """Find the unique row opened by `key` (Bits, or a (value, width) pair);
    None if none, TagCollision if several.

    Every row is checked (a false tag match has probability 2^-kappa per row,
    observable at small kappa), so the collision case is detected rather than
    silently resolved by row order.
    """
    kv, kw = key
    found = None
    for idx, row in enumerate(table.rows):
        pad = row.pad_rp
        if oracle.query(((pad.value << kw) | kv, pad.width + kw), kappa) == row.tag:
            if found is not None:
                raise TagCollision(f"key opens rows {found[0]} and {idx}")
            m = _mask(key, row.pad_r, table.group, kappa, oracle)
            p = (row.masked - m) % 8 if table.group == Z8 else row.masked.xor(m)
            found = (idx, p)
    return found


def _cross_clean(rows: list[Ciphertext], keys: list[Bits], oracle: Oracle, kappa: int) -> bool:
    """True iff no intended key falsely opens another key's row."""
    query = oracle.query
    for i, (kv, kw) in enumerate(keys):
        for j, row in enumerate(rows):
            if i != j and query(((row.pad_rp.value << kw) | kv, kappa + kw), kappa) == row.tag:
                return False
    return True


def _build_table(
    keys: list[Bits], plaintexts: list, group: str, kappa: int, oracle: Oracle, rng: Random
) -> LookupTable:
    """Encrypt rows, resampling pads until each intended key opens exactly
    its own row.

    A cross-row false tag match happens with probability ~ 12 * 2^-kappa per
    attempt; at cryptographic kappa that is negligible, but at desk scale it
    would make the honest server mis-decrypt (or abort on TagCollision) often
    enough to swamp the protocol's 2^-kappa failure budget.  The client holds
    all four keys, so she simply checks and rebuilds.
    """
    for _ in range(4096):
        rows = [encrypt(k, p, group, kappa, oracle, rng) for k, p in zip(keys, plaintexts)]
        if _cross_clean(rows, keys, oracle, kappa):
            rng.shuffle(rows)
            return LookupTable(tuple(rows), group)
    raise RuntimeError("could not build a collision-free table (kappa too small?)")


def make_phase_table(
    helper_k: tuple[Bits, Bits],
    k_i: tuple[Bits, Bits],
    theta_i: tuple[int, int],
    kappa: int,
    oracle: Oracle,
    rng: Random,
) -> LookupTable:
    """Four rows: helper-branch || gadget-branch -> that gadget branch's phase."""
    assert helper_k[0] != helper_k[1] and k_i[0] != k_i[1], "branch keys must be distinct"
    keys = [helper_k[bh].concat(k_i[b]) for bh in (0, 1) for b in (0, 1)]
    plaintexts = [theta_i[b] % 8 for _ in (0, 1) for b in (0, 1)]
    return _build_table(keys, plaintexts, Z8, kappa, oracle, rng)


def make_combine_table(
    k_a: tuple[Bits, Bits],
    k_b: tuple[Bits, Bits],
    r0: Bits,
    r1: Bits,
    kappa: int,
    oracle: Oracle,
    rng: Random,
) -> LookupTable:
    """Four rows: a-branch || b-branch -> r0 on equal subscripts, r1 on unequal."""
    if r0 == r1:
        raise ValueError("combine targets r0 and r1 must differ")
    keys = [k_a[ba].concat(k_b[bb]) for ba in (0, 1) for bb in (0, 1)]
    plaintexts = [r0 if ba == bb else r1 for ba in (0, 1) for bb in (0, 1)]
    return _build_table(keys, plaintexts, XOR, kappa, oracle, rng)


def table_payload(table: LookupTable) -> dict:
    """Canonical JSON-friendly form (transcript wire format)."""
    rows = [
        {
            "R": row.pad_r.token(),
            "ct": row.masked if table.group == Z8 else row.masked.token(),
            "Rp": row.pad_rp.token(),
            "tag": row.tag.token(),
        }
        for row in table.rows
    ]
    return {"rows": rows, "group": table.group}


def table_from_payload(payload: dict) -> LookupTable:
    group = payload["group"]
    rows = tuple(
        Ciphertext(
            parse_token(r["R"]),
            r["ct"] if group == Z8 else parse_token(r["ct"]),
            parse_token(r["Rp"]),
            parse_token(r["tag"]),
        )
        for r in payload["rows"]
    )
    return LookupTable(rows, group)
