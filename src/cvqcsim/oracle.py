"""Seeded random-oracle model with lazy per-entry sampling.

The hash H in the protocol is an ideal random function; here it is a keyed
PRF (blake2b keyed by a 32-byte seed, expanded counter-mode into an output
stream) so that every run is reproducible from the seed.  Two properties the
rest of the stack relies on:

* determinism — query(x, n) is a pure function of (seed, x, n);
* prefix consistency — query(x, n) is the first n bits of query(x, m) for
  n <= m, i.e. each entry is one long lazily-evaluated random string.

Output length is capped at |input|^2 bits: a fixed polynomial cut-off that
keeps the map total without giving callers unbounded stretch.

Inputs are (value, width) pairs and outputs plain ints.  The memo key is the
flat tuple ``(value, width, out_len)``: cheaper per hit than a packed int, and
its size is moot in a memo of one live table (below).  Queries are checked on
a miss only, as a hit matches a key checked when stored; the 32-bit bound on
width and out_len is set by the 4-byte width and counter fields of the stream.

One oracle instance per protocol session; sessions are independent
experiments, so nothing is shared across them.  The memo holds only the live
exchange: once the server has answered a lookup table, nothing reads that
table's entries again, so the protocol (``run_add_phase`` per phase table,
``_fold`` per combine table) calls ``forget`` and the memo stays O(1) in L.
"""

from __future__ import annotations

from hashlib import blake2b
from random import Random

from .bits import Bits

_BLOCK_BYTES = 64  # blake2b max digest; one block per counter tick


def prf_key(seed: bytes) -> blake2b:
    """blake2b state keyed by `seed`; ``_stream_bits`` copies it per block,
    which costs less than keying a fresh hash each time."""
    return blake2b(key=seed, digest_size=_BLOCK_BYTES)


def _stream_bits(keyed: blake2b, inp: tuple[int, int], out_len: int) -> int:
    """First out_len bits of the entry's infinite stream, as an int.

    `keyed` comes from ``prf_key(seed)`` and `inp` is a (value, width)
    pair.  The stream is blake2b(width || value || counter) for counter =
    0, 1, ... (4-byte width, value in whole bytes, 4-byte counter); an
    output that fits one block hashes once with counter 0.
    """
    value, width = inp
    nbytes = (width + 7) // 8
    if out_len <= 512:  # 8 * _BLOCK_BYTES: one block
        h = keyed.copy()
        h.update((((width << (8 * nbytes)) | value) << 32).to_bytes(nbytes + 8, "big"))
        return int.from_bytes(h.digest(), "big") >> (512 - out_len)
    prefix = ((width << (8 * nbytes)) | value).to_bytes(nbytes + 4, "big")
    chunks = []
    for ctr in range((out_len + 8 * _BLOCK_BYTES - 1) // (8 * _BLOCK_BYTES)):
        h = keyed.copy()
        h.update(prefix + ctr.to_bytes(4, "big"))
        chunks.append(h.digest())
    raw = b"".join(chunks)
    return int.from_bytes(raw, "big") >> (8 * len(raw) - out_len)


class RandomOracle:
    """Lazy random map {0,1}* -> {0,1}^outLen, seeded, memoized; inputs are
    (value, width) pairs (a Bits is one), outputs out_len-bit ints."""

    __slots__ = ("keyed", "cache")

    def __init__(self, seed: bytes):
        if len(seed) != 32:
            raise ValueError("oracle seed must be 32 bytes")
        self.keyed = prf_key(seed)
        self.cache: dict[tuple[int, int, int], int] = {}  # (value, width, out_len) -> output

    def query(self, inp: tuple[int, int], out_len: int) -> int:
        value, width = inp
        key = (value, width, out_len)
        hit = self.cache.get(key)
        if hit is None:
            # a cached key passed this check when it was stored; >> 32 also catches negatives
            if (width | out_len) >> 32 or not 1 <= out_len <= width * width:
                raise ValueError(f"need 1 <= outLen <= |input|^2, both < 2^32; got {out_len}, |input|={width}")
            hit = self.cache[key] = _stream_bits(self.keyed, inp, out_len)
        return hit

    def forget(self) -> None:
        """Empty the memo; no output changes, as entries are pure functions."""
        self.cache.clear()


def fresh_pad(rng: Random, kappa: int) -> Bits:
    """Uniform kappa-bit pad from the session RNG (client side of Hadamard tests)."""
    return Bits(rng.getrandbits(kappa) if kappa else 0, kappa)


def randbelow(rng: Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1 (``choice`` indexes with it), without
    its pure-Python wrappers: n.bit_length() bits, redrawn while >= n.  This
    and the two draws below take the MT19937 stream exactly as CPython's
    methods do; seeded outputs need only random() and getrandbits()."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def shuffle(rng: Random, x: list) -> None:
    """``rng.shuffle(x)``: the same Fisher-Yates swaps from the same draws."""
    for i in range(len(x) - 1, 0, -1):
        j = randbelow(rng, i + 1)
        x[i], x[j] = x[j], x[i]


def randbytes(rng: Random, n: int) -> bytes:
    """``rng.randbytes(n)``."""
    return rng.getrandbits(8 * n).to_bytes(n, "little")


def derive_seed(master: bytes, label: str, index: int = 0) -> bytes:
    """Independent 32-byte subseed: counter-mode blake2b keyed by the master seed."""
    return blake2b(label.encode() + index.to_bytes(8, "big"), key=master, digest_size=32).digest()
