import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqcsim.bits import Bits


@st.composite
def bitstrings(draw, max_width=64):
    width = draw(st.integers(min_value=0, max_value=max_width))
    value = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return Bits(value, width)


class TestConstruction:
    def test_zero_width(self):
        assert Bits(0, 0).token() == "0:"


class TestOps:
    def test_concat_left_high(self):
        # 101 || 01 = 10101
        assert Bits(0b101, 3).concat(Bits(0b01, 2)) == Bits(0b10101, 5)

    def test_suffix(self):
        b = Bits(0b10101, 5)
        assert b.suffix(2) == Bits(0b01, 2)
        assert b.suffix(0) == Bits(0, 0)

    def test_parity(self):
        assert Bits(0b1101, 4).parity_with(Bits(0b1011, 4)) == 0
        assert Bits(0b1101, 4).parity_with(Bits(0b1010, 4)) == 1

    def test_xor_width_mismatch_asserts(self):
        with pytest.raises(AssertionError):
            Bits(1, 2).xor(Bits(1, 3))

    @settings(max_examples=60)
    @given(bitstrings(), bitstrings())
    def test_concat_then_split_recovers(self, a, b):
        c = a.concat(b)
        assert c.width == a.width + b.width
        assert Bits(c.value >> b.width, a.width) == a
        assert c.suffix(b.width) == b

    @settings(max_examples=60)
    @given(bitstrings())
    def test_token_round_trip(self, b):
        # the wire form: width, ":", then ceil(width/4) lowercase hex nibbles
        width, _, nibbles = b.token().partition(":")
        assert int(width) == b.width
        assert len(nibbles) == -(-b.width // 4)
        assert nibbles == nibbles.lower() and set(nibbles) <= set("0123456789abcdef")
        assert int(nibbles or "0", 16) == b.value
