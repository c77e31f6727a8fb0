"""Fixed-width bitstrings.

Everything the protocol exchanges (keys, pads, tags, measurement outcomes) is
a bitstring of known width, so we carry (value, width) pairs around as a
NamedTuple.  Convention: the *leftmost* bit of the string is the most
significant bit of ``value`` — concatenation shifts the left operand up, a
"prefix" is taken from the high end, a "suffix" from the low end.  Widths are
in bits and may be zero (the empty string is a legal prefix).

Tokens — the wire/JSON form — look like ``"12:0af"``: width in bits, colon,
the value in lowercase hex padded to ceil(width/4) nibbles (``token_field``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple


@lru_cache(maxsize=256)
def token_field(width: int) -> str:
    """The token as a ``%`` template: ``token_field(w) % v == Bits(v, w).token()``;
    at width 0 the ``%.0s`` field consumes the value and prints nothing."""
    nibbles = (width + 3) // 4
    return f"{width}:%0{nibbles}x" if nibbles else f"{width}:%.0s"


class Bits(NamedTuple):
    value: int
    width: int

    def __str__(self) -> str:
        return self.token()

    def token(self) -> str:
        return token_field(self.width) % self.value

    def concat(self, other: Bits) -> Bits:
        return tuple.__new__(Bits, ((self.value << other.width) | other.value, self.width + other.width))

    def xor(self, other: Bits) -> Bits:
        assert self.width == other.width, "xor of unequal widths"
        return tuple.__new__(Bits, (self.value ^ other.value, self.width))

    def parity_with(self, other: Bits) -> int:
        """Inner product mod 2, <self, other>."""
        assert self.width == other.width, "dot of unequal widths"
        return (self.value & other.value).bit_count() & 1

    def suffix(self, n: int) -> Bits:
        assert 0 <= n <= self.width
        return tuple.__new__(Bits, (self.value & ((1 << n) - 1), n))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

