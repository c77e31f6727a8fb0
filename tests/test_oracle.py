import hashlib
import random

import pytest

from cvqcsim.bits import Bits
from cvqcsim.oracle import RandomOracle, _stream_bits, derive_seed, fresh_pad, randbelow, randbytes, shuffle

SEED_A = bytes(range(32))
SEED_B = bytes(range(1, 33))


class TestQuery:
    def test_deterministic(self):
        o1, o2 = RandomOracle(SEED_A), RandomOracle(SEED_A)
        x = Bits(0b1011, 4)
        assert o1.query(x, 8) == o2.query(x, 8) == o1.query(x, 8)

    def test_seed_matters(self):
        x = Bits(0xDEAD, 16)
        assert RandomOracle(SEED_A).query(x, 64) != RandomOracle(SEED_B).query(x, 64)

    def test_prefix_consistency(self):
        # each entry behaves like one long lazy random string
        o = RandomOracle(SEED_A)
        x = Bits(0xABCD, 16)
        long = o.query(x, 200)
        for n in (1, 3, 64, 128, 199):
            assert RandomOracle(SEED_A).query(x, n) == long >> (200 - n)

    def test_prefix_consistency_across_blocks(self):
        # outputs past one 512-bit block chain counter-mode blocks
        x = Bits(0x89ABCDEF, 32)
        long = RandomOracle(SEED_A).query(x, 600)
        for n in (511, 512, 513, 599):
            assert RandomOracle(SEED_A).query(x, n) == long >> (600 - n)

    def test_stream_framing(self):
        # block ctr = blake2b_seed(4-byte width || value bytes || 4-byte ctr)
        x = Bits(0x12345, 40)
        prefix = (40).to_bytes(4, "big") + (0x12345).to_bytes(5, "big")
        raw = b"".join(
            hashlib.blake2b(prefix + ctr.to_bytes(4, "big"), key=SEED_A, digest_size=64).digest()
            for ctr in range(4)
        )
        ref = int.from_bytes(raw, "big")
        for n in (16, 512, 513, 1024, 1025, 1600):
            assert RandomOracle(SEED_A).query(x, n) == ref >> (8 * len(raw) - n)

    def test_memo_key_separates_width_and_length(self):
        # the memo key is the flat tuple (value, width, out_len)
        o = RandomOracle(SEED_A)
        triples = ((1, 8, 16), (1, 16, 8), (1, 9, 16))
        for value, width, out_len in triples:
            assert o.query((value, width), out_len) == _stream_bits(o.keyed, (value, width), out_len)
        assert len(o.cache) == len(triples)
        # a Bits and its (value, width) pair share one entry
        assert o.query(Bits(1, 8), 16) == o.query((1, 8), 16)
        assert len(o.cache) == len(triples)
        for width, out_len in ((1 << 32, 8), (8, 1 << 32), (1 << 40, 1 << 33)):
            with pytest.raises(ValueError):
                o.query((1, width), out_len)
        assert len(o.cache) == len(triples)

    def test_length_bound(self):
        o = RandomOracle(SEED_A)
        x = Bits(0b101, 3)
        assert 0 <= o.query(x, 9) < 1 << 9
        with pytest.raises(ValueError):
            o.query(x, 10)  # > |input|^2
        with pytest.raises(ValueError):
            o.query(x, 0)

    def test_single_bit_flip_decorrelates(self):
        # outputs of neighbouring inputs agree on ~50% of bits (4-sigma band)
        o = RandomOracle(SEED_A)
        rng = random.Random(1)
        agree = total = 0
        for _ in range(400):
            x = Bits(rng.getrandbits(16), 16)
            y = Bits(x.value ^ (1 << rng.randrange(16)), 16)
            diff = o.query(x, 25) ^ o.query(y, 25)
            agree += 25 - diff.bit_count()
            total += 25
        mean, sigma = total / 2, (total * 0.25) ** 0.5
        assert abs(agree - mean) < 4 * sigma


class TestFreshPad:
    def test_reproducible(self):
        assert fresh_pad(random.Random(9), 8) == fresh_pad(random.Random(9), 8)

    def test_zero_width(self):
        assert fresh_pad(random.Random(9), 0) == Bits(0, 0)

    def test_bits_unbiased(self):
        # 10^5 draws at kappa=8: each position within 4 sigma of n/2
        n, kappa = 100_000, 8
        rng = random.Random(10)
        counts = [0] * kappa
        for _ in range(n):
            v = fresh_pad(rng, kappa).value
            for i in range(kappa):
                counts[i] += (v >> i) & 1
        sigma = (n * 0.25) ** 0.5
        for c in counts:
            assert abs(c - n / 2) < 4 * sigma


def test_derive_seed_independent_labels():
    s = derive_seed(SEED_A, "client", 3)
    assert len(s) == 32
    assert s != derive_seed(SEED_A, "client", 4)
    assert s != derive_seed(SEED_A, "server", 3)
    assert s == derive_seed(SEED_A, "client", 3)


class TestDrawRule:
    """``randbelow``, ``shuffle`` and ``randbytes`` against the ``Random``
    methods they stand in for, on a twin generator: the same values and the
    same MT19937 state after, so every later draw of a session agrees too."""

    SIZES = sorted({2, 3, 5, 8, 2**16 - 1, *range(1, 71)})

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_random_on_a_twin(self, seed):
        ours, twin = random.Random(seed), random.Random(seed)
        for n in self.SIZES:
            assert randbelow(ours, n) == twin.randrange(n)
            assert 1 + randbelow(ours, n) == twin.randrange(1, n + 1)  # keygen's shift draw
            seq = range(100, 100 + n)
            assert seq[randbelow(ours, n)] == twin.choice(seq)
            x, y = list(seq), list(seq)
            shuffle(ours, x)
            twin.shuffle(y)
            assert x == y
            assert randbytes(ours, n) == twin.randbytes(n)
        assert randbytes(ours, 32) == twin.randbytes(32)
        assert ours.getstate() == twin.getstate()
